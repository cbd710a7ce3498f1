package worldset

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/tuple"
	"maybms/internal/value"
	"maybms/internal/world"
)

func rel(vals ...int) *relation.Relation {
	r := relation.New(schema.New("X"))
	for _, v := range vals {
		r.MustAppend(tuple.New(value.Int(int64(v))))
	}
	return r
}

func TestNew(t *testing.T) {
	s := New(true)
	if s.Len() != 1 || !s.Weighted || s.Worlds[0].Prob != 1 {
		t.Fatalf("New(true) = %+v", s)
	}
	if err := s.CheckInvariant(); err != nil {
		t.Error(err)
	}
	u := New(false)
	if u.Weighted {
		t.Error("New(false) should be unweighted")
	}
	if err := u.CheckInvariant(); err != nil {
		t.Error(err)
	}
}

func TestCloneIsolation(t *testing.T) {
	s := New(true)
	s.Worlds[0].Put("R", rel(1))
	c := s.Clone()
	c.Worlds[0].Put("R", rel(1, 2))
	got, _ := s.Worlds[0].Lookup("R")
	if got.Len() != 1 {
		t.Error("Clone must not share world state")
	}
}

func TestReplaceAndNormalize(t *testing.T) {
	s := New(true)
	a := world.New("a")
	a.Prob = 1.0 / 3
	b := world.New("b")
	b.Prob = 5.0 / 12
	if err := s.Replace([]*world.World{a, b}); err != nil {
		t.Fatal(err)
	}
	// Example 2.5: renormalizing {1/3, 5/12} gives {0.444…, 0.555…}.
	if math.Abs(s.Worlds[0].Prob-4.0/9) > 1e-12 || math.Abs(s.Worlds[1].Prob-5.0/9) > 1e-12 {
		t.Errorf("normalized = %g, %g", s.Worlds[0].Prob, s.Worlds[1].Prob)
	}
	if err := s.CheckInvariant(); err != nil {
		t.Error(err)
	}
}

func TestReplaceEmptyFails(t *testing.T) {
	s := New(true)
	if err := s.Replace(nil); err != ErrEmpty {
		t.Errorf("Replace(nil) = %v, want ErrEmpty", err)
	}
}

func TestNormalizeErrors(t *testing.T) {
	s := New(false)
	if err := s.Normalize(); err != ErrNotWeighted {
		t.Errorf("unweighted Normalize = %v", err)
	}
	w := New(true)
	w.Worlds[0].Prob = 0
	if err := w.Normalize(); err == nil {
		t.Error("zero total must fail")
	}
	w.Worlds[0].Prob = -1
	if err := w.Normalize(); err == nil {
		t.Error("negative prob must fail")
	}
}

func TestCheckInvariantDetectsBadSums(t *testing.T) {
	s := New(true)
	s.Worlds[0].Prob = 0.5
	if err := s.CheckInvariant(); err == nil {
		t.Error("sum 0.5 must fail invariant")
	}
	s.Worlds[0].Prob = 1.5
	if err := s.CheckInvariant(); err == nil {
		t.Error("prob > 1 must fail invariant")
	}
	s.Worlds = nil
	if err := s.CheckInvariant(); err != ErrEmpty {
		t.Errorf("empty = %v", err)
	}
}

// TestCheckInvariantDetectsSchemaDivergence: a world-set is a set of
// databases over one schema, so worlds that differ in a relation name or a
// column name break the invariant.
func TestCheckInvariantDetectsSchemaDivergence(t *testing.T) {
	xy := func(cols ...string) *relation.Relation { return relation.New(schema.New(cols...)) }
	for name, worlds := range map[string][2]map[string]*relation.Relation{
		"same":          {{"R": xy("X"), "S": xy("Y")}, {"r": xy("X"), "S": xy("Y")}},
		"relation name": {{"R": xy("X"), "S": xy("Y")}, {"R": xy("X"), "T": xy("Y")}},
		"column name":   {{"R": xy("X"), "S": xy("Y")}, {"R": xy("X"), "S": xy("Z")}},
		"extra":         {{"R": xy("X")}, {"R": xy("X"), "S": xy("Y")}},
	} {
		s := New(false)
		var ws []*world.World
		for i, rels := range worlds {
			w := world.New(string(rune('a' + i)))
			for n, r := range rels {
				w.Put(n, r)
			}
			ws = append(ws, w)
		}
		if err := s.Replace(ws); err != nil {
			t.Fatal(err)
		}
		if err := s.CheckInvariant(); (err == nil) != (name == "same") {
			t.Errorf("%s: CheckInvariant = %v", name, err)
		}
	}
}

func TestPossible(t *testing.T) {
	// Example 2.8 shape: per-world sums {44},{49},{50},{55} → union.
	results := []*relation.Relation{rel(44), rel(49), rel(50), rel(55)}
	got, err := Possible(results, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 4 {
		t.Errorf("possible = %v", got.Rows())
	}
	// Duplicates across worlds collapse.
	got, _ = Possible([]*relation.Relation{rel(1, 2), rel(2, 3)}, nil)
	if got.Len() != 3 {
		t.Errorf("dedup = %v", got.Rows())
	}
}

func TestCertain(t *testing.T) {
	// Example 2.9 shape: {e1} ∩ {e1, e2} = {e1}.
	got, err := Certain([]*relation.Relation{rel(1), rel(1, 2)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.Rows()[0][0].AsInt() != 1 {
		t.Errorf("certain = %v", got.Rows())
	}
	got, _ = Certain([]*relation.Relation{rel(1), rel(2)}, nil)
	if !got.Empty() {
		t.Errorf("disjoint certain = %v", got.Rows())
	}
}

func TestCertainSingleWorld(t *testing.T) {
	got, err := Certain([]*relation.Relation{rel(1, 1, 2)}, nil)
	if err != nil || got.Len() != 2 {
		t.Errorf("single-world certain must dedup: %v, %v", got, err)
	}
}

func TestConf(t *testing.T) {
	// Example 2.10 shape: worlds A (0.11) and D (0.42) satisfy; tuple
	// appears in both → conf 0.53.
	probs := []float64{0.11, 0.33, 0.14, 0.42}
	empty := relation.New(schema.New())
	hit := relation.New(schema.New())
	hit.MustAppend(tuple.Tuple{})
	results := []*relation.Relation{hit, empty, empty, hit}
	got, err := Conf(results, probs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("conf rows = %d", got.Len())
	}
	if math.Abs(got.Rows()[0][0].AsFloat()-0.53) > 1e-12 {
		t.Errorf("conf = %v", got.Rows()[0])
	}
	if got.Schema.Names()[0] != "conf" {
		t.Errorf("schema = %s", got.Schema)
	}
}

func TestConfPerTuple(t *testing.T) {
	results := []*relation.Relation{rel(1, 2), rel(2), rel(2, 2)}
	probs := []float64{0.5, 0.3, 0.2}
	got, err := Conf(results, probs, nil)
	if err != nil {
		t.Fatal(err)
	}
	conf := map[int64]float64{}
	for _, tp := range got.Rows() {
		conf[tp[0].AsInt()] = tp[1].AsFloat()
	}
	if math.Abs(conf[1]-0.5) > 1e-12 || math.Abs(conf[2]-1.0) > 1e-12 {
		t.Errorf("conf = %v", conf)
	}
}

func TestConfClampsAboveOne(t *testing.T) {
	results := []*relation.Relation{rel(1), rel(1), rel(1)}
	probs := []float64{0.5, 0.5, 1e-13} // float noise
	got, err := Conf(results, probs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows()[0][1].AsFloat() > 1 {
		t.Error("conf must be clamped to 1")
	}
}

func TestConfErrors(t *testing.T) {
	if _, err := Conf([]*relation.Relation{rel(1)}, []float64{0.5, 0.5}, nil); err == nil {
		t.Error("length mismatch must error")
	}
	if _, err := Conf(nil, nil, nil); err == nil {
		t.Error("empty input must error")
	}
}

func TestMixedArityRejected(t *testing.T) {
	two := relation.New(schema.New("A", "B"))
	if _, err := Possible([]*relation.Relation{rel(1), two}, nil); err == nil {
		t.Error("mixed arity possible must error")
	}
	if _, err := Certain([]*relation.Relation{rel(1), two}, nil); err == nil {
		t.Error("mixed arity certain must error")
	}
}

func TestGroup(t *testing.T) {
	groups := Group([]uint64{7, 7, 9, 7, 9, 11})
	if len(groups) != 3 {
		t.Fatalf("groups = %v", groups)
	}
	if len(groups[0]) != 3 || groups[0][2] != 3 {
		t.Errorf("first group = %v", groups[0])
	}
	if len(groups[2]) != 1 || groups[2][0] != 5 {
		t.Errorf("third group = %v", groups[2])
	}
}

func TestTotalProb(t *testing.T) {
	s := New(true)
	a := world.New("a")
	a.Prob = 0.25
	b := world.New("b")
	b.Prob = 0.75
	if err := s.Replace([]*world.World{a, b}); err != nil {
		t.Fatal(err)
	}
	if got := s.TotalProb([]int{0, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("TotalProb = %g", got)
	}
	if got := s.TotalProb([]int{1}); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("TotalProb = %g", got)
	}
}

func TestStringRendering(t *testing.T) {
	s := New(true)
	s.Worlds[0].Put("R", rel(1))
	out := s.String()
	if !strings.Contains(out, "P(w1)") || !strings.Contains(out, "R") {
		t.Errorf("rendering = %q", out)
	}
	u := New(false)
	u.Worlds[0].Put("R", rel(1))
	if strings.Contains(u.String(), "P(") {
		t.Error("unweighted rendering must not show probabilities")
	}
}

// contains reports whether r holds a tuple equal to t.
func contains(r *relation.Relation, t tuple.Tuple) bool {
	one, err := relation.FromRows(r.Schema, []tuple.Tuple{t})
	return err == nil && relation.Intersect(one, r).Len() == 1
}

func TestQuickCertainSubsetOfPossible(t *testing.T) {
	f := func(worldVals [][]uint8) bool {
		if len(worldVals) == 0 {
			return true
		}
		results := make([]*relation.Relation, len(worldVals))
		for i, vals := range worldVals {
			r := relation.New(schema.New("X"))
			for _, v := range vals {
				r.MustAppend(tuple.New(value.Int(int64(v % 6))))
			}
			results[i] = r
		}
		poss, err1 := Possible(results, nil)
		cert, err2 := Certain(results, nil)
		if err1 != nil || err2 != nil {
			return false
		}
		for _, t := range cert.Rows() {
			if !contains(poss, t) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickConfMatchesPossibleAndCertain(t *testing.T) {
	// conf(t) > 0 iff possible; conf(t) ≈ 1 iff certain (for full-support
	// probability vectors).
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(4)
		results := make([]*relation.Relation, n)
		probs := make([]float64, n)
		total := 0.0
		for i := range results {
			rl := relation.New(schema.New("X"))
			for j := 0; j < r.Intn(4); j++ {
				rl.MustAppend(tuple.New(value.Int(int64(r.Intn(3)))))
			}
			results[i] = rl
			probs[i] = 0.1 + r.Float64()
			total += probs[i]
		}
		for i := range probs {
			probs[i] /= total
		}
		confRel, err := Conf(results, probs, nil)
		if err != nil {
			t.Fatal(err)
		}
		poss, _ := Possible(results, nil)
		cert, _ := Certain(results, nil)
		for _, tp := range confRel.Rows() {
			base := tp[:1]
			c := tp[1].AsFloat()
			if c <= 0 {
				t.Fatalf("conf of listed tuple must be positive: %v", tp)
			}
			if !contains(poss, base) {
				t.Fatalf("conf tuple not possible: %v", tp)
			}
			isCertain := contains(cert, base)
			if isCertain && math.Abs(c-1) > 1e-9 {
				t.Fatalf("certain tuple with conf %g", c)
			}
			if !isCertain && c > 1-1e-9 {
				t.Fatalf("non-certain tuple with conf 1: %v", tp)
			}
		}
	}
}

func TestCoalesceMergesEqualWorlds(t *testing.T) {
	s := New(true)
	a := world.New("a")
	a.Prob = 0.25
	a.Put("R", rel(1, 2))
	b := world.New("b")
	b.Prob = 0.35
	b.Put("R", rel(2, 1)) // same set as a
	c := world.New("c")
	c.Prob = 0.4
	c.Put("R", rel(3))
	if err := s.Replace([]*world.World{a, b, c}); err != nil {
		t.Fatal(err)
	}
	removed := s.Coalesce()
	if removed != 1 || s.Len() != 2 {
		t.Fatalf("removed = %d, len = %d", removed, s.Len())
	}
	if math.Abs(s.Worlds[0].Prob-0.6) > 1e-12 {
		t.Errorf("merged prob = %g, want 0.6", s.Worlds[0].Prob)
	}
	if err := s.CheckInvariant(); err != nil {
		t.Error(err)
	}
	// Idempotent.
	if s.Coalesce() != 0 {
		t.Error("second coalesce must be a no-op")
	}
}

func TestCoalesceDistinguishesRelationNames(t *testing.T) {
	s := New(false)
	a := world.New("a")
	a.Put("R", rel(1))
	b := world.New("b")
	b.Put("S", rel(1))
	if err := s.Replace([]*world.World{a, b}); err != nil {
		t.Fatal(err)
	}
	if s.Coalesce() != 0 {
		t.Error("different relation names must not coalesce")
	}
}
