package wsd

// Componentwise (merge-free) query evaluation. For a query whose compiled
// plan is monotone-decomposable over the components it touches (see
// internal/plan's component-touch analysis), each world's answer is
//
//	Q(world(a1,…,ak)) = Q(cert) ∪ ΔQ(c1, a1) ∪ … ∪ ΔQ(ck, ak)
//
// where Q(cert) is the query over the certain parts alone and ΔQ(c, a) the
// tuples alternative a of component c adds to it. So the possible/certain/
// conf closures over *all* represented worlds come from one evaluation of
// Q(cert) and Σ_c |Alts(c)| delta evaluations — never the Π_c |Alts(c)|
// alternatives a component merge would produce, without mutating the
// decomposition at all, and reading O(|cert| + Σ|contributions|) rows: the
// certain part, which the paper's decompositions keep large, is evaluated
// once per statement, not once per alternative (unconditioned tuples once,
// conditioned ones beside them: the c-tables of "Conditional Tables in
// practice", PAPERS.md).
//
// A delta is a bind-time rewrite of the compiled template (Prepared.Deltas
// and the three bind modes — cert, delta, full — in internal/plan's
// components.go). This file holds the evaluation half: the catalog serving
// the three modes for one alternative per selected component,
// queryByComponent's evaluations, and the componentwise materialization. The
// closing half is the one fold in fold.go, shared with the stored-relation
// closures (ops.go): it takes Q(cert) as the certain slot, weighs the deltas
// and lists the answer — no world is ever evaluated.
// Over components arranged in d-trees the identity holds over the components
// *active* in the world (top-level, or under the alternative their parent
// selects); the caller passes whole trees (rootClosure), since an untouched
// ancestor still decides whether a touched child is active, and the fold
// weighs each alternative by its conditioning path.
//
// Answers are colbatch batches, in whatever form colbatch picked for them,
// and stored state is batches too, so the catalog hands stored batches to
// the evaluations directly.

import (
	"fmt"
	"sort"

	"maybms/internal/colbatch"
	"maybms/internal/obs"
	"maybms/internal/plan"
	"maybms/internal/relation"
)

// partsCatalog exposes the certain database plus the contributions of a
// chosen alternative per selected component, as a plan.PartsCatalog.
// Components not selected contribute nothing (their relations show only the
// certain part). Contributions are appended in component order, matching the
// naive engine's per-world relation order.
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

// firstWorld selects the first alternative of every listed component.
func firstWorld(comps []int) map[int]int {
	sel := make(map[int]int, len(comps))
	for _, ci := range comps {
		sel[ci] = 0
	}
	return sel
}

// Lookup implements plan.Catalog: the certain part followed by the selected
// contributions.
func (pc partsCatalog) Lookup(name string) (*relation.Relation, error) {
	return pc.view(name, true, true)
}

// Certain implements plan.PartsCatalog.
func (pc partsCatalog) Certain(name string) (*relation.Relation, error) {
	return pc.view(name, true, false)
}

// Delta implements plan.PartsCatalog.
func (pc partsCatalog) Delta(name string) (*relation.Relation, error) {
	return pc.view(name, false, true)
}

// view assembles the named table from its certain part and the selected
// contributions, whichever are asked for. Stored state is batch-backed, so
// single-source views pass the stored relation through — the scan reads its
// batch directly, with no per-evaluation re-encode — and multi-source views
// concatenate the parts' batches into one, in the form colbatch picks for
// it.
func (pc partsCatalog) view(name string, withCert, withContrib bool) (*relation.Relation, error) {
	k := key(name)
	sch, ok := pc.d.schemas[k]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknown, name)
	}
	var cert *relation.Relation
	if withCert {
		cert = pc.d.certain[k]
	}
	// The first contribution is tracked outside the slice: most views see
	// zero or one (part evaluations select a single component), and the
	// fast paths below must not pay a slice allocation to find that out.
	var first *relation.Relation
	var rest []*relation.Relation
	if withContrib {
		for _, ci := range pc.order {
			if c := pc.d.comps[ci].Alts[pc.sel[ci]].Contrib[k]; c.Len() > 0 {
				if first == nil {
					first = c
				} else {
					rest = append(rest, c)
				}
			}
		}
	}
	// Single-source fast paths: share the stored relation itself when its
	// schema is already the registered one, else a zero-copy reschema of
	// its batch.
	// Stored state is immutable and plan scans never mutate their input.
	if first == nil {
		switch {
		case cert != nil && cert.Schema == sch:
			return cert, nil
		case cert != nil:
			return cert.WithSchema(sch), nil
		case !withCert:
			return nil, nil // the selection contributes nothing
		}
		return relation.New(sch), nil
	}
	if cert.Len() == 0 && len(rest) == 0 {
		if first.Schema == sch {
			return first, nil
		}
		return first.WithSchema(sch), nil
	}
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

var _ plan.PartsCatalog = partsCatalog{}

// partQuery evaluates one query against a part catalog: over the certain
// parts alone when delta is unset (Q(cert)), else as the delta ΔQ of the
// catalog's selection.
type partQuery func(cat plan.PartsCatalog, delta bool) (*colbatch.Batch, error)

// componentParts is the componentwise evaluation of one query. Answers are
// batches, in the form colbatch picked for each.
type componentParts struct {
	comps []*Component    // the evaluated components, in index order
	base  *colbatch.Batch // the certain-only answer Q(cert)
	// deltas[i][a] is ΔQ(comps[i], a): what alternative a adds to base.
	deltas [][]*colbatch.Batch
}

// queryByComponent evaluates query over the certain part once and as a delta
// per alternative of each listed component — 1 + Σ sizes evaluations, in
// component and alternative order, reading O(|cert| + Σ|contributions|)
// rows, no merge, no mutation of the decomposition. The interrupt hook is
// polled before each evaluation. sp, the route's span if any, is told what
// was evaluated.
func (d *WSD) queryByComponent(compIdx []int, query partQuery, sp *obs.Span) (*componentParts, error) {
	out := &componentParts{comps: make([]*Component, len(compIdx)), deltas: make([][]*colbatch.Batch, len(compIdx))}
	eval := func(sel map[int]int) (*colbatch.Batch, error) {
		if err := d.interrupted(); err != nil {
			return nil, err
		}
		return query(newPartsCatalog(d, sel), sel != nil)
	}
	var err error
	if out.base, err = eval(nil); err != nil {
		return nil, err
	}
	for i, ci := range compIdx {
		out.comps[i] = d.comps[ci]
		out.deltas[i] = make([]*colbatch.Batch, len(d.comps[ci].Alts))
		for a := range out.deltas[i] {
			if out.deltas[i][a], err = eval(map[int]int{ci: a}); err != nil {
				return nil, err
			}
		}
	}
	if sp != nil {
		evaluations, rows := 1, 0
		for _, alts := range out.deltas {
			for _, delta := range alts {
				evaluations++
				rows += delta.Len()
			}
		}
		sp.Set("base_rows", out.base.Len())
		sp.Set("delta_rows", rows)
		sp.Set("evaluations", evaluations)
	}
	return out, nil
}

// materializeByComponent stores the answer of a concat-structured
// decomposable query as relation dst without merging: the certain-only
// answer becomes dst's certain part, and the delta of each (component,
// alternative) that alternative's contribution. Every world's dst instance —
// certain part followed by contributions in component order — is
// tuple-for-tuple the naive engine's answer in that world: by the concat
// structure the analysis certified, or, over one merged component, because
// each part is the alternative's full answer. The answers are stored as the
// new relations' batches, zero-copy.
func (d *WSD) materializeByComponent(dst string, compIdx []int, query partQuery) error {
	p, err := d.queryByComponent(compIdx, query, nil)
	if err != nil {
		return err
	}
	if err := d.registerUncertain(dst, p.base.Schema); err != nil {
		return err
	}
	k := key(dst)
	stored := func(b *colbatch.Batch) *relation.Relation {
		view := b.Slice(0, b.Len()) // capacity-clamped: appends never reach b
		view.Schema = d.schemas[k]
		return relation.FromBatch(view)
	}
	if p.base.Len() > 0 {
		d.certain[k] = stored(p.base)
	}
	for i, ci := range compIdx {
		c := d.own(ci)
		for a, delta := range p.deltas[i] {
			if delta.Len() > 0 {
				c.Alts[a].Contrib[k] = stored(delta)
			}
		}
	}
	return nil
}
