// Package worldset implements explicitly enumerated world-sets and the
// cross-world operations of I-SQL: probability normalization, the
// possible / certain closures, tuple confidence, and grouping of worlds by
// query-answer fingerprints (GROUP WORLDS BY).
//
// This is the reference (naive) representation: every world is materialized.
// internal/wsd provides the compact world-set decomposition with the same
// semantics for exponentially large sets.
package worldset

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"maybms/internal/colbatch"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/value"
	"maybms/internal/world"
)

// Errors reported by world-set operations.
var (
	ErrEmpty       = errors.New("operation would leave an empty world-set")
	ErrNotWeighted = errors.New("operation requires a probabilistic (weighted) world-set")
)

// ProbEps is the tolerance used when checking that probabilities sum to 1.
const ProbEps = 1e-9

// Set is an explicitly enumerated world-set. In a weighted set every world
// carries a probability and the probabilities sum to 1; in an unweighted
// set probabilities are absent (the paper's Example 2.3 world-set).
type Set struct {
	Weighted bool
	Worlds   []*world.World
}

// New returns a world-set containing a single empty world named "w1". The
// set is weighted iff weighted is true (the single world then has
// probability 1).
func New(weighted bool) *Set {
	w := world.New("w1")
	if weighted {
		w.Prob = 1
	}
	return &Set{Weighted: weighted, Worlds: []*world.World{w}}
}

// Len returns the number of worlds.
func (s *Set) Len() int { return len(s.Worlds) }

// Clone deep-copies the set structure (worlds are cloned; relations are
// shared, as they are immutable).
func (s *Set) Clone() *Set {
	out := &Set{Weighted: s.Weighted, Worlds: make([]*world.World, len(s.Worlds))}
	for i, w := range s.Worlds {
		out.Worlds[i] = w.Clone(w.Name)
	}
	return out
}

// Replace substitutes the world list, renormalizing when weighted. It
// refuses to leave the set empty.
func (s *Set) Replace(worlds []*world.World) error {
	if len(worlds) == 0 {
		return ErrEmpty
	}
	s.Worlds = worlds
	if s.Weighted {
		return s.Normalize()
	}
	return nil
}

// Normalize rescales probabilities to sum to 1 (Example 2.5's uniform
// renormalization after assert).
func (s *Set) Normalize() error {
	if !s.Weighted {
		return ErrNotWeighted
	}
	total := 0.0
	for _, w := range s.Worlds {
		if w.Prob < 0 {
			return fmt.Errorf("world %s has negative probability %g", w.Name, w.Prob)
		}
		total += w.Prob
	}
	if total <= 0 {
		return fmt.Errorf("cannot normalize: total probability is %g", total)
	}
	for _, w := range s.Worlds {
		w.Prob /= total
	}
	return nil
}

// CheckInvariant validates the set: non-empty, one schema — every world
// binds the same relation names, each with an identical schema, which is
// what lets a statement compiled against one world bind in all of them —
// and (when weighted) probabilities in [0,1] summing to 1 within ProbEps.
func (s *Set) CheckInvariant() error {
	if len(s.Worlds) == 0 {
		return ErrEmpty
	}
	first := s.Worlds[0]
	for _, w := range s.Worlds[1:] {
		if w.Len() != first.Len() {
			return fmt.Errorf("world %s binds %d relations, world %s %d", w.Name, w.Len(), first.Name, first.Len())
		}
		for _, name := range first.Names() {
			want, _ := first.Lookup(name)
			got, err := w.Lookup(name)
			if err != nil {
				return err
			}
			if !got.Schema.Identical(want.Schema) {
				return fmt.Errorf("relation %s has schema %s in world %s, %s in world %s",
					name, got.Schema, w.Name, want.Schema, first.Name)
			}
		}
	}
	if !s.Weighted {
		return nil
	}
	total := 0.0
	for _, w := range s.Worlds {
		if w.Prob < -ProbEps || w.Prob > 1+ProbEps {
			return fmt.Errorf("world %s probability %g out of range", w.Name, w.Prob)
		}
		total += w.Prob
	}
	if math.Abs(total-1) > ProbEps {
		return fmt.Errorf("probabilities sum to %g, want 1", total)
	}
	return nil
}

// requireSameArity checks that per-world results can be combined.
func requireSameArity(results []*relation.Relation) error {
	if len(results) == 0 {
		return errors.New("no per-world results")
	}
	arity := results[0].Schema.Len()
	for _, r := range results[1:] {
		if r.Schema.Len() != arity {
			return fmt.Errorf("per-world results have mixed arity %d vs %d", arity, r.Schema.Len())
		}
	}
	return nil
}

// Possible computes the POSSIBLE closure over per-world answers: the
// deduplicated union, each tuple at its first appearance in world order.
// results[i] must be the answer in world i of the group being closed.
// interrupt (nil ok) is polled before each world's answer: a non-nil return
// aborts the closure with that error, so deadlined server requests do not
// hold the engine through a huge merge.
func Possible(results []*relation.Relation, interrupt func() error) (*relation.Relation, error) {
	if err := requireSameArity(results); err != nil {
		return nil, err
	}
	parts := newAnswerParts(results)
	seen := map[string]struct{}{}
	var buf []byte
	for _, r := range results {
		if err := poll(interrupt); err != nil {
			return nil, err
		}
		b := r.Batch()
		for i := 0; i < b.Len(); i++ {
			buf = b.AppendKey(buf[:0], i)
			if _, dup := seen[string(buf)]; dup {
				continue
			}
			seen[string(buf)] = struct{}{}
			parts.sel = append(parts.sel, int32(i))
		}
		parts.end(b)
	}
	return relation.FromBatch(colbatch.Concat(results[0].Schema, parts.list)), nil
}

// answerParts accumulates a closure's answer as the parts of one Concat: of
// each world's answer, the rows it lists first, cut from one flat selection
// (sel, whose rows since lo are the current world's).
type answerParts struct {
	sel  []int32
	lo   int
	list []colbatch.Part
}

// newAnswerParts sizes the parts of the answer over results: a part per
// world, and a selection of the largest answer's length, which holds every
// distinct row of each.
func newAnswerParts(results []*relation.Relation) answerParts {
	n := 0
	for _, r := range results {
		n = max(n, r.Len())
	}
	return answerParts{sel: make([]int32, 0, n), list: make([]colbatch.Part, 0, len(results))}
}

// end closes the rows selected since the last end as a part of b: none when
// they are no row, every row of b (nil) when they are all of them, as they
// then are in order.
func (a *answerParts) end(b *colbatch.Batch) {
	switch sel := a.sel[a.lo:]; len(sel) {
	case 0:
	case b.Len():
		a.list = append(a.list, colbatch.Part{B: b})
	default:
		a.list = append(a.list, colbatch.Part{B: b, Sel: sel})
	}
	a.lo = len(a.sel)
}

// poll invokes a (possibly nil) interrupt hook.
func poll(interrupt func() error) error {
	if interrupt == nil {
		return nil
	}
	return interrupt()
}

// Certain computes the CERTAIN closure: tuples present in every per-world
// answer, in the first world's order. interrupt is polled as in Possible.
func Certain(results []*relation.Relation, interrupt func() error) (*relation.Relation, error) {
	if err := requireSameArity(results); err != nil {
		return nil, err
	}
	out := results[0].Distinct()
	for _, r := range results[1:] {
		if err := poll(interrupt); err != nil {
			return nil, err
		}
		out = relation.Intersect(out, r)
		if out.Empty() {
			break
		}
	}
	return out, nil
}

// Conf computes tuple confidences: for every distinct tuple appearing in
// some per-world answer, the sum of probabilities of the worlds whose
// answer contains it, accumulated in world order. probs[i] is the
// probability of world i. The result extends the answer schema with a
// trailing "conf" column. interrupt is polled as in Possible.
func Conf(results []*relation.Relation, probs []float64, interrupt func() error) (*relation.Relation, error) {
	if err := requireSameArity(results); err != nil {
		return nil, err
	}
	if len(results) != len(probs) {
		return nil, fmt.Errorf("got %d results for %d probabilities", len(results), len(probs))
	}
	// Tuples are listed once, at their first appearance, in out; conf[i]
	// accumulates row i's confidence, and lastWorld[i] dedups within one
	// world: a tuple appearing several times in one world's answer
	// contributes that world's probability once.
	parts := newAnswerParts(results)
	var stamps [32]int // a small answer's stamps stay on the stack
	lastWorld := stamps[:0]
	index := map[string]int{}
	var conf []float64
	var buf []byte
	for w, r := range results {
		if err := poll(interrupt); err != nil {
			return nil, err
		}
		b := r.Batch()
		for i := 0; i < b.Len(); i++ {
			buf = b.AppendKey(buf[:0], i)
			e, ok := index[string(buf)]
			if !ok {
				e = len(conf)
				index[string(buf)] = e
				conf = append(conf, 0)
				lastWorld = append(lastWorld, -1)
				parts.sel = append(parts.sel, int32(i))
			}
			if lastWorld[e] == w {
				continue
			}
			lastWorld[e] = w
			conf[e] += probs[w]
		}
		parts.end(b)
	}
	for e := range conf {
		conf[e] = min(conf[e], 1) // clamp float accumulation noise
	}
	sch := results[0].Schema.Concat(schema.New("conf"))
	out := colbatch.Concat(results[0].Schema, parts.list)
	return relation.FromBatch(out.Extend(sch, colbatch.Col{Kind: value.KindFloat, Floats: conf})), nil
}

// Group partitions world indexes by fingerprint key: worlds with equal keys
// form one group. Groups are returned in first-appearance order.
func Group(keys []uint64) [][]int {
	var order []uint64
	groups := map[uint64][]int{}
	for i, k := range keys {
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	out := make([][]int, len(order))
	for i, k := range order {
		out[i] = groups[k]
	}
	return out
}

// Coalesce merges indistinguishable worlds (equal database fingerprints):
// one representative remains per distinct instance, carrying the summed
// probability. Queries cannot distinguish coalesced from uncoalesced
// world-sets — per-world answers of equal worlds are equal, so possible,
// certain, conf and group-worlds-by all agree — but the set can be
// exponentially smaller after asserts or projections collapse choices. It
// returns the number of worlds removed.
func (s *Set) Coalesce() int {
	byFp := map[uint64]*world.World{}
	var kept []*world.World
	for _, w := range s.Worlds {
		fp := w.Fingerprint()
		if rep, ok := byFp[fp]; ok {
			rep.Prob += w.Prob
			continue
		}
		byFp[fp] = w
		kept = append(kept, w)
	}
	removed := len(s.Worlds) - len(kept)
	s.Worlds = kept
	return removed
}

// TotalProb returns the sum of probabilities of the worlds at the given
// indexes.
func (s *Set) TotalProb(indexes []int) float64 {
	total := 0.0
	for _, i := range indexes {
		total += s.Worlds[i].Prob
	}
	return total
}

// String renders every world, in order.
func (s *Set) String() string {
	var b strings.Builder
	for i, w := range s.Worlds {
		if i > 0 {
			b.WriteString("\n")
		}
		if s.Weighted {
			fmt.Fprintf(&b, "P(%s) = %.4f\n", w.Name, w.Prob)
		}
		b.WriteString(w.String())
	}
	return b.String()
}
