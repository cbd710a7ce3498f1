package wsd

// Conditional relations, and what refusing a per-world SELECT reports.
//
// A per-world SELECT over uncertain data cannot return one relation per
// world without expanding, but for a concat-structured plan the answer *is*
// compactly representable — as a conditional relation (the factorized
// analogue of a c-table): the query's schema extended with a trailing `cond`
// column, where the base rows (certain-only answer) carry an empty condition
// and each (component, alternative)'s delta rows carry the conjunction
// "c<parentID>=<alt>,…,c<ID>=<alt>" of its activation path. A world's answer
// is the base rows plus the delta rows whose conditions its alternative
// selection satisfies, in the listed order. The evaluations are the closures'
// (componentwise.go's queryByComponent over whole trees: certain-only plus
// one tagged delta), flat and nested alike; closures over the same parts are
// fold.go's.

import (
	"fmt"
	"slices"
	"strings"

	"maybms/internal/colbatch"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
	"maybms/internal/value"
)

// condSchema is the trailing condition column of a conditional relation.
func condSchema() *schema.Schema { return schema.New("cond") }

// condFor renders the activation condition of alternative a of the
// component at position ci: the conjunction of the ancestor path's pinned
// alternatives followed by the component's own, root first.
func condFor(ix *index, ci, a int) string {
	c := ix.comps[ci]
	var conj []string
	for cur := c; cur.Parent >= 0; cur = ix.comps[ix.parent(cur)] {
		conj = append(conj, fmt.Sprintf("c%d=%d", cur.Parent, cur.ParentAlt))
	}
	// The walk collected child-to-root; reverse to root-first.
	slices.Reverse(conj)
	conj = append(conj, fmt.Sprintf("c%d=%d", c.ID, a))
	return strings.Join(conj, ",")
}

// conditionalRelation renders the evaluated parts of a plain SELECT whose
// result varies across worlds as a conditional relation: the query schema plus
// a trailing `cond` column. Base rows (the certain-only answer) carry cond =
// ""; each (component, alternative) contributes its delta under that pair's
// activation condition, components and alternatives ascending — the fold's
// emission order (fold.go). A world's answer is the base rows followed by the
// delta rows whose conditions the world's alternative selection satisfies —
// tuple-for-tuple the naive engine's per-world answer, by the concat structure
// the analysis certified. The rows are copied once, by one Concat, and the
// cond column is one typed string vector.
func (d *WSD) conditionalRelation(p *componentParts) (*relation.Relation, error) {
	ix := d.index()
	n := p.base.Len()
	for _, pt := range p.parts {
		n += pt.rows.Len()
	}
	rows := make([]colbatch.Part, 1, 1+len(p.parts))
	rows[0] = colbatch.Part{B: p.base}
	conds := make([]string, p.base.Len(), n)
	for _, pt := range p.parts {
		if err := d.interrupted(); err != nil {
			return nil, err
		}
		rows = append(rows, colbatch.Part{B: pt.rows.batch()})
		cond := condFor(ix, pt.ci, pt.a)
		for range pt.rows.Len() {
			conds = append(conds, cond)
		}
	}
	all := colbatch.Concat(p.base.Schema, rows)
	return relation.FromBatch(all.Extend(p.base.Schema.Concat(condSchema()), colbatch.Col{Kind: value.KindString, Strs: conds})), nil
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

// perWorld is the refusal of a plain SELECT whose answer varies across
// worlds and does not decompose, naming the uncertain relations it reads.
func (d *WSD) perWorld(core *sqlparse.SelectStmt) decision {
	cause, why := ErrPerWorld, "per-world answers over uncertain relations"
	if names := d.uncertainTables(core); names != "" {
		cause, why = fmt.Errorf("%w: uncertain %s", ErrPerWorld, names), why+"; uncertain: "+names
	}
	dec := refused(&refusals[0], cause)
	dec.why = why
	return dec
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
