package wsd

// Componentwise (merge-free) query evaluation. For a query whose compiled
// plan is monotone-decomposable over the components it touches (see
// internal/plan's component-touch analysis), each world's answer is
//
//	Q(world(a1,…,ak)) = Q(cert) ∪ Q_c1(a1) ∪ … ∪ Q_ck(ak)
//
// so the possible/certain/conf closures over *all* represented worlds can
// be computed from Σ_c |Alts(c)| single-alternative evaluations — never the
// Π_c |Alts(c)| alternatives a component merge would produce, and without
// mutating the decomposition at all.
//
// This file holds the evaluation half: the catalog showing one alternative
// per selected component, QueryByComponent's part evaluations on the worker
// pool, and the componentwise materialization. The closing half is the one
// fold in fold.go, shared with the d-tree route (conditional.go) and the
// stored-relation closures (ops.go): it weighs the parts and emits the
// sequence this file hands it.
//
// That sequence reproduces the naive engine's answer order exactly. The
// naive engine closes over per-world answers in mixed-radix world order
// (the last component varies fastest; see Expand and core's repair
// odometer), deduplicating by first appearance. Under the decomposition
// identity, the only worlds contributing *new* tuples to that fold are the
// first world (all components at their first alternative) and the
// single-deviation worlds (one component at alternative a ≥ 2, all others
// first), whose positions sort by reverse component order with
// alternatives ascending. The emission is therefore the first world's full
// answer (one extra evaluation), then the remaining alternatives of each
// component from the last involved component to the first — and within
// each part, the relative order of a deviation's new tuples equals their
// order in the part's own answer, because every supported operator routes
// rows value- or position-deterministically.
//
// Part answers are colbatch batches — columnar when the evaluation ran the
// batch operators, a zero-copy row-backed batch when it ran the row
// operators (internal/algebra's one rule decides per drain) — and stored
// state is batch-backed, so the catalog hands stored batches to the
// evaluations directly.

import (
	"errors"
	"fmt"
	"sort"

	"maybms/internal/algebra"
	"maybms/internal/colbatch"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/tuple"
)

// errNotConcat reports that a part evaluation was not certain-prefixed, so
// a componentwise materialization would store wrong per-world tuple order;
// callers fall back to the merge path.
var errNotConcat = errors.New("componentwise materialization requires certain-prefixed answers")

// partsCatalog exposes the certain database plus the contributions of a
// chosen alternative per selected component, as a plan.Catalog. Components
// not selected contribute nothing (their relations show only the certain
// part). Contributions are appended in component order, matching the
// per-world relation order of the merge path and the naive engine.
type partsCatalog struct {
	d     *WSD
	sel   map[int]int // component index → alternative index
	order []int       // sel's keys, ascending (the contribution order)
}

// newPartsCatalog builds a catalog over the given selection. The lookup
// cost is O(|sel|) per table, not O(components) — part evaluations select
// a single component, so scanning the whole component list per lookup
// would make componentwise evaluation quadratic in the component count.
func newPartsCatalog(d *WSD, sel map[int]int) partsCatalog {
	order := make([]int, 0, len(sel))
	for ci := range sel {
		order = append(order, ci)
	}
	sort.Ints(order)
	return partsCatalog{d: d, sel: sel, order: order}
}

// Lookup implements plan.Catalog. Stored state is batch-backed, so
// single-source lookups pass the stored batch through zero-copy — the
// vectorized scan reads stored columns directly, with no per-evaluation
// re-encode — and multi-source lookups assemble one combined batch from
// the stored parts (columnar when the table alone clears algebra's batch
// floor, a shared row slice for evaluations that will run the row operators
// anyway).
func (pc partsCatalog) Lookup(name string) (*relation.Relation, error) {
	k := key(name)
	sch, ok := pc.d.schemas[k]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknown, name)
	}
	cert := pc.d.certain[k]
	// The first contribution is tracked outside the slice: most lookups see
	// zero or one (part evaluations select a single component), and the
	// fast paths below must not pay a slice allocation to find that out.
	var first *relation.Relation
	var rest []*relation.Relation
	total := cert.Len()
	for _, ci := range pc.order {
		if c := pc.d.comps[ci].Alts[pc.sel[ci]].Contrib[k]; c.Len() > 0 {
			if first == nil {
				first = c
			} else {
				rest = append(rest, c)
			}
			total += c.Len()
		}
	}
	// Single-source fast paths: share the stored relation itself when its
	// schema is already the registered one (then even the lazy row cache
	// is shared across parts), else a zero-copy reschema of its batch.
	// Stored state is immutable and plan scans never mutate their input.
	if first == nil {
		if cert != nil {
			if cert.Schema == sch {
				return cert, nil
			}
			return cert.WithSchema(sch), nil
		}
		return relation.New(sch), nil
	}
	if cert.Len() == 0 && len(rest) == 0 {
		if first.Schema == sch {
			return first, nil
		}
		return first.WithSchema(sch), nil
	}
	if algebra.ClearsBatchFloor(total) {
		combined := colbatch.New(sch)
		if cert.Len() > 0 {
			combined.AppendBatch(cert.Batch())
		}
		combined.AppendBatch(first.Batch())
		for _, c := range rest {
			combined.AppendBatch(c.Batch())
		}
		return relation.FromBatch(combined), nil
	}
	rows := make([]tuple.Tuple, 0, total)
	rows = append(rows, cert.Rows()...)
	rows = append(rows, first.Rows()...)
	for _, c := range rest {
		rows = append(rows, c.Rows()...)
	}
	return relation.FromRowsShared(sch, rows), nil
}

var _ plan.Catalog = partsCatalog{}

// componentParts is the componentwise evaluation of one query: the answer
// of the first world (every involved component at its first alternative)
// and one answer per (component, alternative) pair, evaluated with only
// that alternative's contributions visible. Answers are batches — columnar
// when the evaluation ran the vectorized CollectBatch path, row-backed
// (zero-copy over collected tuples) otherwise.
type componentParts struct {
	d       *WSD
	compIdx []int // indexes into d.comps, ascending
	// world0 is the first world's full answer; nil unless requested.
	world0 *colbatch.Batch
	// base is the certain-only answer Q(cert); nil unless requested.
	base *colbatch.Batch
	// parts[i][a] is the answer with component compIdx[i] at alternative a.
	parts [][]*colbatch.Batch
	// probs[i][a] is the alternative's probability.
	probs [][]float64
}

// QueryByComponent evaluates query once per alternative of each listed
// component — Σ sizes evaluations on the worker pool, no merge, no
// mutation of the decomposition. withWorld0 additionally evaluates the
// first world (all listed components at alternative 0); withBase
// additionally evaluates the certain-only answer. query must be safe for
// concurrent calls.
func (d *WSD) QueryByComponent(compIdx []int, withWorld0, withBase bool, query func(cat plan.Catalog) (*colbatch.Batch, error)) (*componentParts, error) {
	out := &componentParts{
		d:       d,
		compIdx: compIdx,
		parts:   make([][]*colbatch.Batch, len(compIdx)),
		probs:   make([][]float64, len(compIdx)),
	}
	// Flatten every evaluation into one task list for the pool.
	type task struct {
		sel map[int]int
		dst **colbatch.Batch
	}
	var tasks []task
	if withWorld0 {
		first := make(map[int]int, len(compIdx))
		for _, ci := range compIdx {
			first[ci] = 0
		}
		tasks = append(tasks, task{sel: first, dst: &out.world0})
	}
	if withBase {
		tasks = append(tasks, task{sel: map[int]int{}, dst: &out.base})
	}
	for i, ci := range compIdx {
		alts := d.comps[ci].Alts
		out.parts[i] = make([]*colbatch.Batch, len(alts))
		out.probs[i] = make([]float64, len(alts))
		for a := range alts {
			out.probs[i][a] = alts[a].Prob
			tasks = append(tasks, task{sel: map[int]int{ci: a}, dst: &out.parts[i][a]})
		}
	}
	results, err := mapAlts(d, len(tasks), func(ti int) (*colbatch.Batch, error) {
		return query(newPartsCatalog(d, tasks[ti].sel))
	})
	if err != nil {
		return nil, err
	}
	for ti := range tasks {
		*tasks[ti].dst = results[ti]
	}
	return out, nil
}

// emission returns the closure emission order — the first world's answer,
// then the remaining alternatives of each component from the last involved
// component to the first — as the sequence the fold deduplicates.
func (p *componentParts) emission() []*colbatch.Batch {
	out := []*colbatch.Batch{p.world0}
	for i := len(p.compIdx) - 1; i >= 0; i-- {
		out = append(out, p.parts[i][1:]...)
	}
	return out
}

// materializeByComponent stores the answer of a concat-structured
// decomposable query as relation dst without merging: the certain-only
// answer becomes dst's certain part, and each (component, alternative)
// part contributes its suffix beyond that prefix to the alternative. Every
// world's dst instance — certain part followed by contributions in
// component order — is tuple-for-tuple identical to what the merge path
// would have stored. The concat structure is verified positionally; a
// violation returns errNotConcat and the caller falls back to the merge
// path. Part answers are stored as the new relations' backing batches —
// columnar parts land as zero-copy columnar slices (identity for later
// scans), row-backed parts as shared row slices.
func (d *WSD) materializeByComponent(dst string, compIdx []int, query func(cat plan.Catalog) (*colbatch.Batch, error)) error {
	p, err := d.QueryByComponent(compIdx, false, true, query)
	if err != nil {
		return err
	}
	baseLen := p.base.Len()
	baseKeys := make([]string, baseLen)
	var buf []byte
	for i := 0; i < baseLen; i++ {
		baseKeys[i] = string(p.base.AppendKey(buf[:0], i))
	}
	for i := range p.parts {
		for _, part := range p.parts[i] {
			if part.Len() < baseLen {
				return errNotConcat
			}
			for j, k := range baseKeys {
				// string(buf) in a comparison does not allocate.
				buf = part.AppendKey(buf[:0], j)
				if string(buf) != k {
					return errNotConcat
				}
			}
		}
	}
	if err := d.registerUncertain(dst, p.base.Schema); err != nil {
		return err
	}
	k := key(dst)
	if baseLen > 0 {
		base := p.base.Slice(0, baseLen)
		base.Schema = d.schemas[k]
		d.certain[k] = relation.FromBatch(base)
	}
	for i, ci := range compIdx {
		comp := d.comps[ci]
		for a := range p.parts[i] {
			part := p.parts[i][a]
			if part.Len() <= baseLen {
				continue
			}
			view := part.Slice(baseLen, part.Len())
			view.Schema = d.schemas[k]
			if comp.Alts[a].Contrib == nil {
				comp.Alts[a].Contrib = map[string]*relation.Relation{}
			}
			comp.Alts[a].Contrib[k] = relation.FromBatch(view)
		}
	}
	return nil
}
