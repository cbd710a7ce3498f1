package wsd

// Conditional (d-tree aware) closure evaluation. When a query touches
// components arranged in a decomposition tree, the flat componentwise
// identity Q(world) = Q(cert) ∪ ΔQ(c1, a1) ∪ … ∪ ΔQ(ck, ak) still holds for
// monotone-decomposable plans — but only over the components *active* in
// the world (a component is active iff it is top-level or its parent
// selects its conditioning alternative), and each alternative's weight in
// a closure is P(a) conditioned on the parent path. The closures are the
// same fold as the flat route's (fold.go, which weighs a flat component as
// a tree of one node: CERTAIN asks whether some top-level subtree
// contributes the tuple under every assignment, CONF multiplies miss
// probabilities over the independent top-level subtrees), over the same
// evaluations — Q(cert) once as the fold's certain slot and one delta per
// (component, alternative), componentwise.go's QueryByComponent; what this
// file adds is what else the fold is handed:
//
//   - the relevant component set is the root closure of the touched
//     components — whole trees, since an untouched ancestor still decides
//     whether a touched child is active;
//   - the emission sequence (POSSIBLE's answer and CONF's order) is the
//     *deviation worlds*: the first world plus, per relevant component c and
//     alternative a ≥ 1, the earliest world (in expansion order) with c
//     active at a. Every possible tuple's true first-appearance world is
//     in that set — if a world's answer contains t then t lies in Q(cert)
//     or in some active delta ΔQ(c, a), and the first world, or the
//     deviation world of (c, a) (or, for a = 0, of the deepest ancestor
//     pinned off its first alternative) both contains t and precedes the
//     world — so scanning the deviation worlds' full answers in expansion
//     order reproduces the naive engine's first-appearance order exactly.
//     (The deviation worlds stay full evaluations, each over the certain
//     part and every active component: the quadratic term left on nested
//     decompositions; ROADMAP item 2.)
//
// SelectClosure routes here when the touched components involve tree
// structure (treeInvolved), or when the plan's deltas do not keep a world's
// order (the analysis' Ordered: a third self-join within one component) and
// only full answers can be emitted; every other flat involvement takes
// componentwise.go's evaluations and emission.
//
// ClosureNone takes a different shape: a per-world SELECT over uncertain
// data cannot return one relation per world without expanding, but for a
// concat-structured plan the answer *is* compactly representable — as a
// conditional relation (the factorized analogue of a c-table): the
// query's schema extended with a trailing `cond` column, where the base
// rows (certain-only answer) carry an empty condition and each
// (component, alternative)'s delta rows carry the conjunction
// "c<parentID>=<alt>,…,c<ID>=<alt>" of its activation path. A world's
// answer is the base rows plus the delta rows whose conditions its
// alternative selection satisfies, in emission order. This retires the
// blanket ErrPerWorld refusal for concat plans, flat and nested alike.

import (
	"fmt"
	"sort"
	"strings"

	"maybms/internal/obs"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

// condSchema is the trailing condition column of a conditional relation.
func condSchema() *schema.Schema { return schema.New("cond") }

// deviationVector returns the digit vector of the earliest world (in
// expansion order) with component ci active at alternative a: ci's
// ancestors pinned to their conditioning alternatives, every other active
// component at its first alternative, inactive components at -1. A
// negative ci yields the first world itself. Valid digit vectors compare
// in expansion order by plain lexicographic comparison: activity at a
// component is a function of earlier digits, so the first differing
// position of two vectors is active in both.
func (d *WSD) deviationVector(byID map[int]int, ci, a int) []int {
	req := map[int]int{}
	if ci >= 0 {
		req[ci] = a
		for c := d.comps[ci]; c.Parent >= 0; {
			pi := byID[c.Parent]
			req[pi] = c.ParentAlt
			c = d.comps[pi]
		}
	}
	digits := make([]int, len(d.comps))
	for i, c := range d.comps {
		if v, ok := req[i]; ok {
			digits[i] = v
			continue
		}
		if c.Parent >= 0 && digits[byID[c.Parent]] != c.ParentAlt {
			digits[i] = -1
			continue
		}
		digits[i] = 0
	}
	return digits
}

// queryConditional evaluates query over the trees touching it: the
// certain-only answer and one delta per (relevant component, alternative)
// for the fold to weigh, and the deviation worlds' full answers (expansion
// order, first world first) as its emission sequence — 1 + Σ sizes part
// evaluations plus Σ (sizes−1) + 1 world evaluations on the worker pool, no
// merge, the decomposition untouched. The result's compIdx is the root
// closure of the touched set; sp is the route's span.
func (d *WSD) queryConditional(touched []int, query partQuery, sp *obs.Span) (*componentParts, error) {
	relevant := d.rootClosure(touched)
	byID := d.compIndexByID()

	// Deviation worlds, sorted into expansion order by their digit vectors.
	devVecs := [][]int{d.deviationVector(byID, -1, 0)}
	for _, ci := range relevant {
		for a := 1; a < len(d.comps[ci].Alts); a++ {
			devVecs = append(devVecs, d.deviationVector(byID, ci, a))
		}
	}
	sort.Slice(devVecs, func(x, y int) bool {
		vx, vy := devVecs[x], devVecs[y]
		for i := range vx {
			if vx[i] != vy[i] {
				return vx[i] < vy[i]
			}
		}
		return false
	})
	worlds := make([]map[int]int, len(devVecs))
	for di, vec := range devVecs {
		worlds[di] = map[int]int{}
		for _, ci := range relevant {
			if vec[ci] >= 0 {
				worlds[di][ci] = vec[ci]
			}
		}
	}
	return d.QueryByComponent(relevant, worlds, query, sp)
}

// condFor renders the activation condition of (component c, alternative
// a): the conjunction of the ancestor path's pinned alternatives followed
// by the component's own, root first.
func (d *WSD) condFor(byID map[int]int, c *Component, a int) string {
	var conj []string
	for cur := c; cur.Parent >= 0; {
		conj = append(conj, fmt.Sprintf("c%d=%d", cur.Parent, cur.ParentAlt))
		cur = d.comps[byID[cur.Parent]]
	}
	// The walk collected child-to-root; reverse to root-first.
	for i, j := 0, len(conj)-1; i < j; i, j = i+1, j-1 {
		conj[i], conj[j] = conj[j], conj[i]
	}
	conj = append(conj, fmt.Sprintf("c%d=%d", c.ID, a))
	return strings.Join(conj, ",")
}

// conditionalRelation answers a plain SELECT whose result varies across
// worlds as a conditional relation: the query schema plus a trailing
// `cond` column. Base rows (the certain-only answer) carry cond = "";
// each (relevant component, alternative) contributes its delta under that
// pair's activation condition, components in list order, alternatives
// ascending. A world's answer is the base rows followed by the delta rows
// whose conditions the world's alternative selection satisfies, in emission
// order — tuple-for-tuple the naive engine's per-world answer, by the concat
// structure the analysis certified. sp is the route's span.
func (d *WSD) conditionalRelation(touched []int, query partQuery, sp *obs.Span) (*relation.Relation, error) {
	relevant := d.rootClosure(touched)
	p, err := d.QueryByComponent(relevant, nil, query, sp)
	if err != nil {
		return nil, err
	}
	byID := d.compIndexByID()
	outSch := p.base.Schema.Concat(condSchema())
	rows := make([]tuple.Tuple, 0, p.base.Len())
	for _, t := range p.base.Rows() {
		rows = append(rows, append(t.Clone(), value.Str("")))
	}
	for i, ci := range relevant {
		c := d.comps[ci]
		for a, delta := range p.deltas[i] {
			if err := d.interrupted(); err != nil {
				return nil, err
			}
			if delta.Len() == 0 {
				continue
			}
			cond := value.Str(d.condFor(byID, c, a))
			for _, t := range delta.Rows() {
				rows = append(rows, append(t.Clone(), cond))
			}
		}
	}
	return relation.FromRowsShared(outSch, rows), nil
}

// uncertainTables names the referenced tables that vary across worlds —
// the blocking constructs reported by per-world refusal errors.
func (d *WSD) uncertainTables(core *sqlparse.SelectStmt) string {
	var names []string
	for _, t := range sqlparse.ReferencedTables(core) {
		if _, ok := d.schemas[key(t)]; ok && !d.isCertain(t) {
			names = append(names, t)
		}
	}
	return strings.Join(names, ", ")
}

// perWorldError wraps ErrPerWorld with the uncertain relations that
// forced the refusal.
func (d *WSD) perWorldError(core *sqlparse.SelectStmt) error {
	if names := d.uncertainTables(core); names != "" {
		return fmt.Errorf("%w: uncertain %s", ErrPerWorld, names)
	}
	return ErrPerWorld
}

// nestedAmong counts the conditional (nested) components among idxs.
func (d *WSD) nestedAmong(idxs []int) int {
	n := 0
	for _, ci := range idxs {
		if d.comps[ci].Parent >= 0 {
			n++
		}
	}
	return n
}
