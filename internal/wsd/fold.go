package wsd

// The closure fold: POSSIBLE, CERTAIN and CONF from component independence,
// in time linear in the representation — never in the worlds. It answers the
// SELECT closures, and nothing else: every route that closes over
// per-(component, alternative) parts reaches this one type. The SELECT routes
// hand it the evaluated certain-only answer and deltas (componentwise.go),
// flat and tree involvement alike; the merge route hands it the merged
// component with each alternative's full answer as its part beside an empty
// certain slot (Q(world a) = ∅ ∪ Q(cert ∪ contrib_a)), and a spanning GROUP
// WORLDS BY one group of those alternatives at a time.
//
// A fold is given the non-empty parts — what an alternative of a listed
// component adds, components ascending, then alternatives — and the certain
// part beside them, whose tuples are certain with confidence exactly 1; a
// (component, alternative) with no part adds nothing. Per distinct tuple t it
// computes
//
//	p_c(t)      = Σ_a P(a) · (t ∈ part_c(a) ? 1 : 1 − Π_ch (1 − p_ch(t)))
//	always_c(t) = ∀a: t ∈ part_c(a) ∨ ∃ch: always_ch(t)
//
// over the children ch conditioned on alternative a, bottom-up, and closes
// over the independent roots: conf(t) = 1 − Π_root (1 − p_root(t)), and t is
// certain iff some root always contributes it (an OR of independent events is
// always true iff one of them is). A component that does not hold t would
// multiply by exactly 1 − 0 or add exactly P(a)·0, and skipping it changes no
// bit: so the fold visits only the whole d-trees (a flat component is a tree
// of one node) that hold a part, an untouched ancestor of a touched child
// included, and a node only ever visits the tuples of its own subtree. It
// costs O(Σ part rows × tree depth + the touched trees' size), whatever the
// listed components hold beyond the answer. Sums run in alternative order and
// products in component order, like the naive engine's; the
// single-component rule for CONF (conf) is keyed to the components listed,
// not to those touched, so every confidence keeps its bits.
//
// Which tuples are answered, and in which order, is decided here and nowhere
// else. A closed answer is a set — a world-set closed into one relation has no
// world order to inherit — and the fold lists it in representation order: the
// certain slot's rows, then every part with components ascending and
// alternatives ascending, each distinct tuple where it first appears, CERTAIN
// filtering that sequence. The order is deterministic for a given
// decomposition and the same for every closure over a plain scan of a
// relation and for its conditional relation (conditional.go); it is not the
// naive engine's world-enumeration order, and neither is API. Tuples are
// identified by AppendKey arena keys — the byte space of tuple.Encode,
// whatever a batch's form — interned once per distinct tuple; the output is
// gathered into one batch, in the form colbatch picks for it.

import (
	"slices"

	"maybms/internal/colbatch"
	"maybms/internal/core"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/value"
)

// foldTuple is the fold's state for one distinct tuple: the verdict over the
// roots folded so far, and the scratch of the node being weighed (valid while
// its stamps equal the node's or alternative's tick).
type foldTuple struct {
	miss   float64 // Π over roots, in component order, of 1 − p_root(t)
	last   float64 // p_root(t) of the last root holding t
	always bool    // some root contributes t under every assignment

	node, direct, via int32   // ticks: node weighing t / alternative holding t directly / through a child
	n                 int32   // alternatives of the node under which its subtree always contributes t
	viaAlways         bool    // some child of the alternative always contributes t
	p, viaMiss        float64 // the node's p_c(t) so far / Π_ch (1 − p_ch(t)) of the alternative
}

// posting is one tuple of a weighed subtree.
type posting struct {
	id, n int32
	p     float64
}

// span locates a weighed subtree's postings; alts is its root's alternative
// count (n == alts means always).
type span struct{ lo, hi, alts int }

type closureFold struct {
	d *WSD
	// listed is the number of components the parts were evaluated over: the
	// single-component confidence rule (conf) is keyed to it.
	listed int
	// parts are the non-empty parts, components ascending, then
	// alternatives (componentParts.parts).
	parts []part
	// group, when set, is a transient flat component standing for the one
	// the parts name (a group of a merged component's alternatives).
	group *Component
	// certain holds tuples present in every world beside the parts: the
	// certain-only answer Q(cert) (whose parts are the deltas beyond it).
	certain *colbatch.Batch

	ids    map[string]int32
	tuples []foldTuple
	// rows remembers the tuple ids of weighed batches, so the emission does
	// not encode them again.
	rows    map[*colbatch.Batch][]int32
	post    []posting
	tick    int32
	scratch []int32
	buf     []byte
}

// newClosureFold folds the parts p evaluated, with group, when set, standing
// for the one component they name.
func (d *WSD) newClosureFold(p *componentParts, group *Component) *closureFold {
	return &closureFold{d: d, listed: len(p.idx), parts: p.parts, group: group, certain: p.base,
		ids: map[string]int32{}, rows: map[*colbatch.Batch][]int32{}}
}

// component returns the component at position ci, or the group standing for
// it.
func (f *closureFold) component(ci int) *Component {
	if f.group != nil {
		return f.group
	}
	return f.d.comps[ci]
}

// intern returns the dense id of the scratch-encoded key, materializing the
// key string only on first sight.
func (f *closureFold) intern(key []byte) int32 {
	if id, ok := f.ids[string(key)]; ok {
		return id
	}
	id := int32(len(f.ids))
	f.ids[string(key)] = id
	return id
}

// tuple returns tuple id's state. States exist from the first time a tuple is
// weighed, so POSSIBLE — which weighs nothing — allocates none.
func (f *closureFold) tuple(id int32) *foldTuple {
	for int(id) >= len(f.tuples) {
		f.tuples = append(f.tuples, foldTuple{miss: 1})
	}
	return &f.tuples[id]
}

// rowIDs returns the tuple id of every row of r. With remember set the ids of
// all of r's batch are computed — one pass over an answer that several parts
// are cut from — and kept for the other parts and the emission to reuse;
// else r's own live until the next call.
func (f *closureFold) rowIDs(r rowRange, remember bool) []int32 {
	if r.Len() == 0 {
		return nil
	}
	if ids, ok := f.rows[r.b]; ok {
		return ids[r.lo:r.hi]
	}
	lo, hi, ids := r.lo, r.hi, f.scratch[:0]
	if remember {
		lo, hi = 0, r.b.Len()
		ids = make([]int32, 0, hi)
	}
	for i := lo; i < hi; i++ {
		f.buf = r.b.AppendKey(f.buf[:0], i)
		ids = append(ids, f.intern(f.buf))
	}
	if !remember {
		f.scratch = ids
		return ids
	}
	f.rows[r.b] = ids
	return ids[r.lo:r.hi]
}

// touch returns tuple id's state with the node scratch opened for the node
// ticked stamp, listing the tuple among the node's postings on first touch.
func (f *closureFold) touch(id, stamp int32) *foldTuple {
	t := f.tuple(id)
	if t.node != stamp {
		t.node, t.p, t.n = stamp, 0, 0
		f.post = append(f.post, posting{id: id})
	}
	return t
}

// hold records that the alternative ticked tok, of probability pa, holds
// tuple id directly (once, however many of its rows repeat the tuple).
func (f *closureFold) hold(id, stamp, tok int32, pa float64) {
	if t := f.touch(id, stamp); t.direct != tok {
		t.direct = tok
		t.p += pa
		t.n++
	}
}

// weighNode appends the postings of the subtree rooted at position ci —
// after its children's, which ix lists (nil: a flat fold) — polling the
// interrupt hook once per part.
func (f *closureFold) weighNode(ix *index, ci int) (span, error) {
	alts := f.component(ci).Alts
	var kids [][]span
	if ix != nil && len(ix.children[ci]) > 0 {
		kids = make([][]span, len(alts))
		for _, ch := range ix.children[ci] {
			sp, err := f.weighNode(ix, ch)
			if err != nil {
				return span{}, err
			}
			a := ix.comps[ch].ParentAlt
			kids[a] = append(kids[a], sp)
		}
	}
	parts := partsOf(f.parts, ci)
	lo := len(f.post)
	f.tick++
	stamp := f.tick
	var via []int32
	for a := range alts {
		f.tick++
		tok, pa := f.tick, alts[a].Prob
		if len(parts) > 0 && parts[0].a == a {
			if err := f.d.interrupted(); err != nil {
				return span{}, err
			}
			for _, id := range f.rowIDs(parts[0].rows, true) {
				f.hold(id, stamp, tok, pa)
			}
			parts = parts[1:]
		}
		if kids == nil {
			continue
		}
		via = via[:0]
		for _, sp := range kids[a] {
			for _, e := range f.post[sp.lo:sp.hi] {
				t := &f.tuples[e.id]
				if t.direct == tok {
					continue
				}
				if t.via != tok {
					t.via, t.viaMiss, t.viaAlways = tok, 1, false
					via = append(via, e.id)
				}
				t.viaMiss *= 1 - e.p
				t.viaAlways = t.viaAlways || int(e.n) == sp.alts
			}
		}
		for _, id := range via {
			t := f.touch(id, stamp)
			t.p += pa * (1 - t.viaMiss)
			if t.viaAlways {
				t.n++
			}
		}
	}
	for j := lo; j < len(f.post); j++ {
		t := &f.tuples[f.post[j].id]
		f.post[j].p, f.post[j].n = t.p, t.n
	}
	return span{lo: lo, hi: len(f.post), alts: len(alts)}, nil
}

// roots returns the positions of the roots of the trees holding a part,
// ascending: the components of the parts themselves when the fold is flat
// (ix nil).
func (f *closureFold) roots(ix *index) []int {
	var roots []int
	for i, pt := range f.parts {
		if i > 0 && pt.ci == f.parts[i-1].ci {
			continue
		}
		r := pt.ci
		if ix != nil {
			r = ix.root(r)
		}
		roots = append(roots, r)
	}
	if ix != nil {
		slices.Sort(roots)
		roots = slices.Compact(roots)
	}
	return roots
}

// weigh folds every tree holding a part into the per-tuple verdicts, roots in
// component order. A tree holding none would change no verdict, so it is not
// visited; a tree holding one is walked whole, its untouched nodes included,
// since an untouched ancestor still weighs a touched child by its path.
func (f *closureFold) weigh() error {
	var ix *index
	if f.group == nil && !f.d.flat() {
		ix = f.d.index()
	}
	if f.certain != nil {
		for _, id := range f.rowIDs(whole(f.certain), true) {
			t := f.tuple(id)
			t.miss, t.last, t.always = 0, 1, true
		}
	}
	for _, r := range f.roots(ix) {
		sp, err := f.weighNode(ix, r)
		if err != nil {
			return err
		}
		for _, e := range f.post[sp.lo:sp.hi] {
			t := &f.tuples[e.id]
			t.miss *= 1 - e.p
			t.last = e.p
			t.always = t.always || int(e.n) == sp.alts
		}
		f.post = f.post[:0]
	}
	return nil
}

// conf is the weighed tuple's confidence 1 − Π_root (1 − p_root(t)).
func (f *closureFold) conf(t *foldTuple) float64 {
	conf := 1 - t.miss
	if f.listed == 1 && t.miss > 0 {
		// Over a single component the confidence of a tuple outside the
		// certain part (those have miss 0) is the plain probability sum,
		// accumulated in alternative order — bit-identical to the naive
		// engine's sum over worlds (1 − (1 − p) would lose ulps).
		conf = t.last
	}
	if conf > 1 {
		conf = 1 // clamp float accumulation noise
	}
	return conf
}

// close answers closure cl under schema sch (CONF appends the conf column):
// the distinct tuples of the certain slot and then the parts, components and
// alternatives ascending, in first-appearance order — all of them for
// POSSIBLE and CONF, the always-contributed ones for CERTAIN. The interrupt
// hook is polled once per emitted part.
func (f *closureFold) close(cl core.Closure, sch *schema.Schema) (*relation.Relation, error) {
	if cl != core.ClosurePossible {
		if err := f.weigh(); err != nil {
			return nil, err
		}
	}
	// Every tuple is interned by the time it is emitted; POSSIBLE, which
	// weighs nothing, interns during the emission, up to one tuple per row.
	room := len(f.ids)
	if cl == core.ClosurePossible {
		room = f.certain.Len()
		for _, pt := range f.parts {
			room += pt.rows.Len()
		}
	}
	// The answer is one Concat of the emitted rows of every part, cut from
	// one flat selection; consecutive parts over one batch (row ranges of a
	// tagged delta) share one part of it.
	var parts []colbatch.Part
	sel := make([]int32, 0, room)
	emitted := make([]bool, len(f.ids), room)
	var confs []float64
	emit := func(part rowRange) error {
		if part.Len() == 0 {
			return nil
		}
		if err := f.d.interrupted(); err != nil {
			return err
		}
		lo := len(sel)
		for r, id := range f.rowIDs(part, false) {
			if int(id) == len(emitted) { // first seen by the emission: ids are dense
				emitted = append(emitted, false)
			}
			if emitted[id] {
				continue
			}
			emitted[id] = true
			if cl == core.ClosureCertain && !f.tuple(id).always {
				continue
			}
			sel = append(sel, int32(part.lo+r))
			if cl.IsConf() {
				confs = append(confs, f.conf(f.tuple(id)))
			}
		}
		n := len(parts)
		switch picked := sel[lo:]; {
		case len(picked) == 0:
		case len(picked) == part.b.Len(): // every row, ascending by construction
			parts = append(parts, colbatch.Part{B: part.b})
		case n > 0 && parts[n-1].B == part.b && parts[n-1].Sel != nil:
			parts[n-1].Sel = sel[lo-len(parts[n-1].Sel):]
		default:
			parts = append(parts, colbatch.Part{B: part.b, Sel: picked})
		}
		return nil
	}
	if err := emit(whole(f.certain)); err != nil {
		return nil, err
	}
	for _, pt := range f.parts {
		if err := emit(pt.rows); err != nil {
			return nil, err
		}
	}
	out := colbatch.Concat(sch, parts)
	if cl.IsConf() {
		out = out.Extend(sch.Concat(confSchema()), colbatch.Col{Kind: value.KindFloat, Floats: confs})
	}
	return relation.FromBatch(out), nil
}

// closeParts closes a query's evaluated parts under cl: its certain-only
// answer in the certain slot, its per-alternative parts as the parts.
func (d *WSD) closeParts(p *componentParts, cl core.Closure) (*relation.Relation, error) {
	return d.newClosureFold(p, nil).close(cl, p.base.Schema)
}
