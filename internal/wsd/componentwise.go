package wsd

// Componentwise (merge-free) query evaluation. For a query whose compiled
// plan is monotone-decomposable over the components it touches (see
// internal/plan's component-touch analysis), each world's answer is
//
//	Q(world(a1,…,ak)) = Q(cert) ∪ ΔQ(c1, a1) ∪ … ∪ ΔQ(ck, ak)
//
// where Q(cert) is the query over the certain parts alone and ΔQ(c, a) the
// tuples alternative a of component c adds to it. So the possible/certain/
// conf closures over *all* represented worlds come from two plan runs —
// certain-only plus one tagged delta — never the Π_c |Alts(c)| alternatives
// a component merge would produce, without mutating the decomposition at
// all, and reading O(|cert| + Σ|contributions|) rows: the certain part,
// which the paper's decompositions keep large, is evaluated once per
// statement, and so is every contribution (unconditioned tuples once,
// conditioned ones beside them: the c-tables of "Conditional Tables in
// practice", PAPERS.md). As there, the tagged relation is stored, not rebuilt
// per query: a relation's contributions and their tag column are
// concatenated once per change of the decomposition (index.go), and a
// statement reads them as they are.
//
// The tagged delta is the U-relation form of MayBMS's successor (Antova,
// Jansen, Koch and Olteanu, ICDE 2008): every contribution row carries the
// tag of its (component, alternative) — the index's number of it, flat over
// the whole component list — and Prepared.Deltas binds the template once
// over the tagged union (the tag rules are in internal/plan's components.go).
// Its rows tagged t are ΔQ of alternative t, in the order that
// alternative's delta alone lists them, so a stable partition on the tag
// splits the one answer into its non-empty parts.
//
// Cost model: the filter over the stored delta is the one step that reads
// every contribution row; after the two evaluations the split, the fold, the
// conditional relation and the componentwise store cost O(answer rows + the
// d-trees holding them), however many components and alternatives the
// statement lists: a component that adds nothing to the answer has no part,
// and they do not visit it. (GROUP WORLDS BY's frontier fold, groupworlds.go,
// still steps through every alternative of the grouping components.)
//
// This file holds the evaluation
// half: the catalogs (a world's instance; the certain parts and the tagged
// contributions), the two evaluations and that split, and the componentwise
// materialization. The closing half is the one fold in fold.go: it takes
// Q(cert) as the certain slot, weighs the parts and lists the answer — no
// world is ever evaluated.
// Over components arranged in d-trees the identity holds over the components
// *active* in the world (top-level, or under the alternative their parent
// selects); the caller passes whole trees (rootClosure), since an untouched
// ancestor still decides whether a touched child is active, and the fold
// weighs each alternative by its conditioning path.
//
// Answers are colbatch batches, in whatever form colbatch picked for them,
// and stored state is batches too, so the catalogs hand stored batches to
// the evaluations directly.

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"maybms/internal/colbatch"
	"maybms/internal/obs"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/value"
	"maybms/internal/world"
)

// partsCatalog exposes one world's instance of the decomposition — the
// certain database plus the contributions of a chosen alternative per
// selected component — as a plan.Catalog. Components not selected contribute
// nothing (their relations show only the certain part). Contributions are
// appended in component order, matching the naive engine's per-world
// relation order.
type partsCatalog struct {
	d     *WSD
	sel   map[int]int // component index → alternative index
	order []int       // sel's keys, ascending (the contribution order)
}

// newPartsCatalog builds a catalog over the given selection. The lookup
// cost is O(|sel|) per table, not O(components).
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
// contributions. Stored state is batch-backed, so a single-source instance
// passes the stored relation through — the scan reads its batch directly,
// with no per-evaluation re-encode — and a multi-source one is one
// colbatch.Concat of the sources' batches.
func (pc partsCatalog) Lookup(name string) (*relation.Relation, error) {
	k := key(name)
	sch, ok := pc.d.schemas[k]
	if !ok {
		return nil, fmt.Errorf("%w: %s", world.ErrUnknown, name)
	}
	cert := pc.d.certain[k]
	// The first contribution is tracked outside the slice: most instances
	// see zero or one, and the fast paths below must not pay a slice
	// allocation to find that out.
	var first *relation.Relation
	var rest []*relation.Relation
	for _, ci := range pc.order {
		if c := pc.d.comps[ci].Alts[pc.sel[ci]].Contrib[k]; c.Len() > 0 {
			if first == nil {
				first = c
			} else {
				rest = append(rest, c)
			}
		}
	}
	// Single-source fast paths share the stored relation itself. Stored
	// state is immutable and plan scans never mutate their input.
	switch {
	case first == nil && cert == nil:
		return relation.New(sch), nil
	case first == nil:
		return under(cert, sch), nil
	case cert.Len() == 0 && len(rest) == 0:
		return under(first, sch), nil
	}
	parts := make([]colbatch.Part, 0, 2+len(rest))
	if cert.Len() > 0 {
		parts = append(parts, colbatch.Part{B: cert.Batch()})
	}
	parts = append(parts, colbatch.Part{B: first.Batch()})
	for _, c := range rest {
		parts = append(parts, colbatch.Part{B: c.Batch()})
	}
	return relation.FromBatch(colbatch.Concat(sch, parts)), nil
}

// under returns the stored relation rel under the registered schema sch:
// itself when its schema is sch already, else a zero-copy reschema of its
// batch.
func under(rel *relation.Relation, sch *schema.Schema) *relation.Relation {
	if rel.Schema == sch {
		return rel
	}
	return rel.WithSchema(sch)
}

// deltaCatalog is the plan.PartsCatalog of a statement's two evaluations:
// the certain parts, and every relation's stored delta — its contributions
// tagged with the index's number of their (component, alternative).
type deltaCatalog struct {
	d      *WSD
	tagged *int // rows handed out by Delta
}

// Certain implements plan.PartsCatalog: the instance of the world that
// selects nothing.
func (dc deltaCatalog) Certain(name string) (*relation.Relation, error) {
	return partsCatalog{d: dc.d}.Lookup(name)
}

// Delta implements plan.PartsCatalog: the relation's stored delta, tag
// column and all, concatenated and numbered once per change of the
// decomposition (index.go). It allocates nothing.
func (dc deltaCatalog) Delta(name string) (*relation.Relation, error) {
	k := key(name)
	sch, ok := dc.d.schemas[k]
	if !ok {
		return nil, fmt.Errorf("%w: %s", world.ErrUnknown, name)
	}
	rel := dc.d.index().delta(k, sch)
	*dc.tagged += rel.Len()
	return rel, nil
}

var _ plan.PartsCatalog = deltaCatalog{}

// partQuery evaluates one query against a statement's part catalog: over
// the certain parts alone when delta is unset (Q(cert)), else as the tagged
// delta of the catalog's alternatives.
type partQuery func(cat plan.PartsCatalog, delta bool) (*colbatch.Batch, error)

// rowRange is rows [lo, hi) of a batch: a part, cut from an evaluation's
// answer without a copy. The zero value is the empty part.
type rowRange struct {
	b      *colbatch.Batch
	lo, hi int
}

// whole is the range of all of b's rows.
func whole(b *colbatch.Batch) rowRange { return rowRange{b: b, hi: b.Len()} }

// Len returns the number of rows in the range.
func (r rowRange) Len() int { return r.hi - r.lo }

// batch returns the rows as a batch: b itself when they are all of its rows,
// else a zero-copy view; nil when there are none.
func (r rowRange) batch() *colbatch.Batch {
	switch {
	case r.lo == 0 && r.hi == r.b.Len():
		return r.b
	case r.Len() == 0:
		return nil
	}
	return r.b.Slice(r.lo, r.hi)
}

// part is the non-empty part of alternative a of the component at position
// ci of the component list.
type part struct {
	ci, a int
	rows  rowRange
}

// componentParts is the componentwise evaluation of one query. Answers are
// batches, in the form colbatch picked for each.
type componentParts struct {
	idx  []int           // the listed components' positions, ascending
	base *colbatch.Batch // the certain-only answer Q(cert)
	// parts are the non-empty parts of the listed components, components
	// ascending, then alternatives — on the merge-free routes ΔQ(c, a), what
	// alternative a of c adds to base, a range of the tagged answer. A
	// (component, alternative) not among them adds nothing.
	parts []part
}

// partsOf returns the parts of the component at position ci.
func partsOf(parts []part, ci int) []part {
	lo, _ := slices.BinarySearchFunc(parts, ci, func(p part, ci int) int { return cmp.Compare(p.ci, ci) })
	hi := lo
	for hi < len(parts) && parts[hi].ci == ci {
		hi++
	}
	return parts[lo:hi]
}

// part returns the part of alternative a of the component at position ci,
// the empty range when it adds nothing.
func (p *componentParts) part(ci, a int) rowRange {
	for _, pt := range partsOf(p.parts, ci) {
		if pt.a == a {
			return pt.rows
		}
	}
	return rowRange{}
}

// queryByComponent evaluates query twice over the listed components: over
// the certain part, and as the tagged delta of all their alternatives, which
// the split cuts into the non-empty parts — reading O(|cert| +
// Σ|contributions|) rows, no merge, no mutation of the decomposition; what
// follows the evaluations costs O(answer rows). The interrupt hook is polled
// by the evaluations' drains. sp, the route's span if any, is told what was
// evaluated.
func (d *WSD) queryByComponent(compIdx []int, query partQuery, sp *obs.Span) (*componentParts, error) {
	tagged := 0
	cat := deltaCatalog{d: d, tagged: &tagged}
	base, err := query(cat, false)
	if err != nil {
		return nil, err
	}
	delta, err := query(cat, true)
	if err != nil {
		return nil, err
	}
	p := &componentParts{idx: compIdx, base: base}
	if err := p.split(d.index(), delta); err != nil {
		return nil, err
	}
	if sp != nil {
		sp.Set("base_rows", base.Len())
		sp.Set("delta_rows", delta.Len())
		sp.Set("evaluations", 2)
		sp.Set("tagged_rows", tagged)
	}
	return p, nil
}

// split cuts the tagged delta into the non-empty parts: a stable sort on the
// tag (none when the rows are in tag order already, as the rules keep them
// under scans, filters and certain-side joins), the tag dropped, and each
// run of one tag the part of the (component, alternative) the index numbers
// so, which must be a listed component. It reads the tag column once and
// costs O(answer rows), whatever the listed components hold.
func (p *componentParts) split(ix *index, delta *colbatch.Batch) error {
	n := delta.Len()
	if n == 0 {
		return nil
	}
	sch := p.base.Schema
	w := sch.Len()
	tags := tagColumn(delta, w)
	runs, sorted := 1, true
	for r := 1; r < n; r++ {
		if tags[r] != tags[r-1] {
			runs++
			sorted = sorted && tags[r-1] < tags[r]
		}
	}
	if !sorted {
		sel := make([]int32, n)
		for r := range sel {
			sel[r] = int32(r)
		}
		slices.SortStableFunc(sel, func(x, y int32) int { return cmp.Compare(tags[x], tags[y]) })
		delta = delta.Gather(sel)
		tags = tagColumn(delta, w)
	}
	answer := delta.Project(columnRange(w), sch)
	p.parts = make([]part, 0, runs)
	listed := p.idx
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && tags[hi] == tags[lo] {
			hi++
		}
		ci, a := ix.alternative(int(tags[lo]))
		if len(listed) == 0 || listed[0] != ci {
			// Gallop: touched components tend to be near each other.
			step := 1
			for step < len(listed) && listed[step] < ci {
				step *= 2
			}
			at, ok := slices.BinarySearch(listed[:min(step+1, len(listed))], ci)
			if !ok {
				return fmt.Errorf("component %d contributes to the delta but is not listed", ix.comps[ci].ID)
			}
			listed = listed[at:]
		}
		p.parts = append(p.parts, part{ci: ci, a: a, rows: rowRange{b: answer, lo: lo, hi: hi}})
		lo = hi
	}
	return nil
}

// tagColumn returns the tag of every row of a tagged batch of width w + 1:
// its typed column itself when it is one.
func tagColumn(b *colbatch.Batch, w int) []int64 {
	col := b.Col(w)
	if col.Kind == value.KindInt && col.Any == nil && col.Nulls == nil {
		return col.Ints[:b.Len()]
	}
	tags := make([]int64, b.Len())
	for r := range tags {
		tags[r] = col.Value(r).AsInt()
	}
	return tags
}

// columnRange returns the column indexes 0..n-1.
func columnRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// mergedParts evaluates query's full answer in each alternative of the
// merged component mi, in alternative order, as that alternative's part
// beside an empty certain slot: over one merged component a world's answer
// is a part of its own, Q(world a) = ∅ ∪ Q(cert ∪ contrib_a), which no
// delta of a non-decomposable plan gives. An empty answer is no part. The
// interrupt hook is polled before each evaluation.
func (d *WSD) mergedParts(mi int, ev evaluator) (*componentParts, error) {
	p := &componentParts{idx: []int{mi}, base: colbatch.New(ev.prep.Schema())}
	for a := range d.comps[mi].Alts {
		if err := d.interrupted(); err != nil {
			return nil, err
		}
		answer, err := ev.batch(newPartsCatalog(d, map[int]int{mi: a}))
		if err != nil {
			return nil, err
		}
		if answer.Len() > 0 {
			p.parts = append(p.parts, part{ci: mi, a: a, rows: whole(answer)})
		}
	}
	return p, nil
}

// materializeByComponent stores the evaluated parts of a concat-structured
// decomposable query as relation dst without merging: the certain-only
// answer becomes dst's certain part, and each (component, alternative)'s
// part that alternative's contribution. Every world's dst instance —
// certain part followed by contributions in component order — is
// tuple-for-tuple the naive engine's answer in that world: by the concat
// structure the analysis certified, or, over one merged component, because
// each part is the alternative's full answer. The certain part is stored as
// the answer's batch, zero-copy; each part through Batch.Pick, in the form
// its own row count gives it, so a one-row alternative is one tuple whatever
// the answer it was cut from. Only the components holding a part are
// copied.
func (d *WSD) materializeByComponent(dst string, p *componentParts) error {
	if err := d.registerUncertain(dst, p.base.Schema); err != nil {
		return err
	}
	k := key(dst)
	sch := d.schemas[k]
	if p.base.Len() > 0 {
		view := p.base.Slice(0, p.base.Len()) // capacity-clamped: appends never reach base
		view.Schema = sch
		d.certain[k] = relation.FromBatch(view)
	}
	var sel []int32  // 0, 1, 2, …
	var c *Component // owned at its first part
	for i, pt := range p.parts {
		if i == 0 || pt.ci != p.parts[i-1].ci {
			c = d.own(pt.ci)
		}
		for len(sel) < pt.rows.hi {
			sel = append(sel, int32(len(sel)))
		}
		stored := pt.rows.b.Pick(sel[pt.rows.lo:pt.rows.hi])
		stored.Schema = sch
		c.Alts[pt.a].Contrib[k] = relation.FromBatch(stored)
	}
	return nil
}
