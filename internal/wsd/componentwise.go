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
// per query: a relation's contributions are concatenated once per change of
// the decomposition (index.go), and a statement only writes the tag column
// its listing of the components gives them.
//
// The tagged delta is the U-relation form of MayBMS's successor (Antova,
// Jansen, Koch and Olteanu, ICDE 2008): every contribution row carries the
// tag of its (component, alternative) — the alternative's index, flat over
// the listed components — and Prepared.Deltas binds the template once over
// the tagged union (the tag rules are in internal/plan's components.go).
// Its rows tagged t are ΔQ of alternative t, in the order that
// alternative's delta alone lists them, so a stable partition on the tag
// splits the one answer into every part. This file holds the evaluation
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
	"fmt"
	"sort"

	"maybms/internal/colbatch"
	"maybms/internal/obs"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/value"
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
		return nil, fmt.Errorf("%w: %s", ErrUnknown, name)
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

// deltaCatalog is the plan.PartsCatalog of a statement's two evaluations
// over the listed components (ascending, every component feeding a table the
// statement reads among them): the certain parts, and every listed
// alternative's contribution tagged with the alternative's flat index
// (first[i] + a for alternative a of comps[i]).
type deltaCatalog struct {
	d      *WSD
	comps  []int
	first  []int
	tagged *int // rows handed out by Delta
}

// Certain implements plan.PartsCatalog: the instance of the world that
// selects nothing.
func (dc deltaCatalog) Certain(name string) (*relation.Relation, error) {
	return partsCatalog{d: dc.d}.Lookup(name)
}

// Delta implements plan.PartsCatalog: the relation's contributions,
// concatenated once per change of the decomposition (the index's stored
// delta), beside a fresh tag column this statement's listing gives them.
func (dc deltaCatalog) Delta(name string) (*relation.Relation, error) {
	k := key(name)
	sch, ok := dc.d.schemas[k]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknown, name)
	}
	sd := dc.d.index().delta(k, sch)
	if sd.rows == nil {
		return nil, nil
	}
	tags := make([]int64, sd.rows.Len())
	lo, i := 0, 0
	for _, run := range sd.runs {
		for i < len(dc.comps) && dc.comps[i] < int(run.comp) {
			i++
		}
		if i == len(dc.comps) || dc.comps[i] != int(run.comp) {
			return nil, fmt.Errorf("component %d feeds %s but is not listed", run.comp, name)
		}
		tag := int64(dc.first[i] + int(run.alt))
		for r := lo; r < int(run.end); r++ {
			tags[r] = tag
		}
		lo = int(run.end)
	}
	*dc.tagged += len(tags)
	return relation.FromBatch(sd.rows.Extend(plan.Tagged(sch), colbatch.Col{Kind: value.KindInt, Ints: tags})), nil
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

// componentParts is the componentwise evaluation of one query. Answers are
// batches, in the form colbatch picked for each.
type componentParts struct {
	idx   []int           // the evaluated components' indexes, ascending
	comps []*Component    // the evaluated components
	base  *colbatch.Batch // the certain-only answer Q(cert)
	first []int           // first[i]: the flat index of (comps[i], 0)
	// parts[first[i]+a] is the part of (comps[i], a) — on the merge-free
	// routes ΔQ(comps[i], a), what alternative a adds to base: a range of the
	// tagged answer, empty when it adds nothing.
	parts []rowRange
}

// newComponentParts lays out the parts of the listed components, all empty.
func (d *WSD) newComponentParts(compIdx []int, base *colbatch.Batch) *componentParts {
	p := &componentParts{idx: compIdx, comps: make([]*Component, len(compIdx)), base: base, first: make([]int, len(compIdx))}
	n := 0
	for i, ci := range compIdx {
		p.comps[i], p.first[i] = d.comps[ci], n
		n += len(d.comps[ci].Alts)
	}
	p.parts = make([]rowRange, n)
	return p
}

// part returns the part of (comps[i], alternative a).
func (p *componentParts) part(i, a int) rowRange { return p.parts[p.first[i]+a] }

// queryByComponent evaluates query twice over the listed components: over
// the certain part, and as the tagged delta of all their alternatives, which
// a stable partition on the tag splits into the parts — reading
// O(|cert| + Σ|contributions|) rows, no merge, no mutation of the
// decomposition. The interrupt hook is polled by the evaluations' drains.
// sp, the route's span if any, is told what was evaluated.
func (d *WSD) queryByComponent(compIdx []int, query partQuery, sp *obs.Span) (*componentParts, error) {
	p := d.newComponentParts(compIdx, nil)
	tagged := 0
	cat := deltaCatalog{d: d, comps: compIdx, first: p.first, tagged: &tagged}
	var err error
	if p.base, err = query(cat, false); err != nil {
		return nil, err
	}
	delta, err := query(cat, true)
	if err != nil {
		return nil, err
	}
	p.split(delta, p.base.Schema)
	if sp != nil {
		sp.Set("base_rows", p.base.Len())
		sp.Set("delta_rows", delta.Len())
		sp.Set("evaluations", 2)
		sp.Set("tagged_rows", tagged)
	}
	return p, nil
}

// split cuts the tagged delta into the parts: a stable counting sort on the
// tag (no gather when the rows are in tag order already, as the rules keep
// them under scans, filters and certain-side joins), the tag dropped, and
// each alternative's part the range of its rows.
func (p *componentParts) split(delta *colbatch.Batch, sch *schema.Schema) {
	n := delta.Len()
	if n == 0 {
		return
	}
	w := sch.Len()
	col := delta.Col(w)
	tags := make([]int, n)
	start := make([]int, len(p.parts)+1)
	sorted := true
	for r := range tags {
		t := int(col.Value(r).AsInt())
		tags[r] = t
		start[t+1]++
		sorted = sorted && (r == 0 || tags[r-1] <= t)
	}
	for t := range p.parts {
		start[t+1] += start[t]
	}
	answer := delta.Project(columnRange(w), sch)
	if !sorted {
		sel := make([]int32, n)
		at := append([]int(nil), start[:len(p.parts)]...)
		for r, t := range tags {
			sel[at[t]] = int32(r)
			at[t]++
		}
		answer = answer.Gather(sel)
	}
	for t := range p.parts {
		if start[t] < start[t+1] {
			p.parts[t] = rowRange{b: answer, lo: start[t], hi: start[t+1]}
		}
	}
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
// delta of a non-decomposable plan gives. The interrupt hook is polled
// before each evaluation.
func (d *WSD) mergedParts(mi int, ev evaluator) (*componentParts, error) {
	p := d.newComponentParts([]int{mi}, colbatch.New(ev.prep.Schema()))
	for a := range p.parts {
		if err := d.interrupted(); err != nil {
			return nil, err
		}
		answer, err := ev.batch(newPartsCatalog(d, map[int]int{mi: a}))
		if err != nil {
			return nil, err
		}
		p.parts[a] = whole(answer)
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
// the answer's batch, zero-copy; each non-empty part through Batch.Pick, in
// the form its own row count gives it, so a one-row alternative is one
// tuple whatever the answer it was cut from.
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
	var sel []int32 // 0, 1, 2, …
	for i, ci := range p.idx {
		var c *Component // owned at its first non-empty part
		for a := range p.comps[i].Alts {
			part := p.part(i, a)
			if part.Len() == 0 {
				continue
			}
			if c == nil {
				c = d.own(ci)
			}
			for len(sel) < part.hi {
				sel = append(sel, int32(len(sel)))
			}
			stored := part.b.Pick(sel[part.lo:part.hi])
			stored.Schema = sch
			c.Alts[a].Contrib[k] = relation.FromBatch(stored)
		}
	}
	return nil
}
