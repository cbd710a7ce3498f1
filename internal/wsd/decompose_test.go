package wsd

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/world"
	"maybms/internal/worldset"
)

func TestDecomposeRoundTripFigure2(t *testing.T) {
	// WSD → Expand → Decompose must recover the factorized structure:
	// three components (key groups a1, a2, a3 — the last certain).
	d := newFigure2WSD(t)
	set, err := d.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompose(set, "I")
	if err != nil {
		t.Fatal(err)
	}
	// a3's tuple is certain (in all four worlds) → extracted to the
	// certain part; a1 and a2 give one 2-alternative component each.
	if back.ComponentCount() != 2 {
		t.Errorf("components = %d, want 2 (a1, a2; a3 certain)", back.ComponentCount())
	}
	if back.WorldCount().Cmp(big.NewInt(4)) != 0 {
		t.Errorf("world count = %s", back.WorldCount())
	}
	if cert := closed(t, back, "select certain * from I"); cert.Len() != 1 {
		t.Errorf("certain part = %v", cert)
	}
	// Confidences agree with the original decomposition.
	for _, tp := range figure1R().Rows() {
		want, err := tupleConf(d, "I", tp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tupleConf(back, "I", tp)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > eps {
			t.Errorf("conf(%v) = %g, want %g", tp, got, want)
		}
	}
	if err := back.CheckInvariant(); err != nil {
		t.Error(err)
	}
}

func mkWorlds(t *testing.T, weighted bool, probs []float64, instances [][][]any) *worldset.Set {
	t.Helper()
	set := &worldset.Set{Weighted: weighted}
	for i, inst := range instances {
		w := world.New(string(rune('A' + i)))
		if weighted {
			w.Prob = probs[i]
		}
		rel := relation.New(schema.New("X", "Y"))
		for _, r := range inst {
			rel.MustAppend(row(r...))
		}
		w.Put("R", rel)
		set.Worlds = append(set.Worlds, w)
	}
	return set
}

func TestDecomposeCorrelatedTuplesShareComponent(t *testing.T) {
	// Two complementary tuples (XOR): never independent — one component
	// with two alternatives.
	set := mkWorlds(t, true, []float64{0.3, 0.7}, [][][]any{
		{{1, 1}},
		{{2, 2}},
	})
	d, err := Decompose(set, "R")
	if err != nil {
		t.Fatal(err)
	}
	if d.ComponentCount() != 1 {
		t.Fatalf("components = %d, want 1", d.ComponentCount())
	}
	c, err := tupleConf(d, "R", row(1, 1))
	if err != nil || math.Abs(c-0.3) > eps {
		t.Errorf("conf = %v, %v", c, err)
	}
}

func TestDecomposeIndependentTuplesSplit(t *testing.T) {
	// Two independent coin flips: four worlds with product probabilities
	// → two binary components.
	set := mkWorlds(t, true, []float64{0.06, 0.14, 0.24, 0.56}, [][][]any{
		{{1, 1}, {2, 2}}, // t1 ∧ t2: 0.2·0.3
		{{1, 1}},         // t1 ∧ ¬t2: 0.2·0.7
		{{2, 2}},         // ¬t1 ∧ t2
		{},               // neither
	})
	d, err := Decompose(set, "R")
	if err != nil {
		t.Fatal(err)
	}
	if d.ComponentCount() != 2 {
		t.Fatalf("components = %d, want 2", d.ComponentCount())
	}
	c, err := tupleConf(d, "R", row(1, 1))
	if err != nil || math.Abs(c-0.2) > eps {
		t.Errorf("conf(t1) = %v, %v", c, err)
	}
	c, err = tupleConf(d, "R", row(2, 2))
	if err != nil || math.Abs(c-0.3) > eps {
		t.Errorf("conf(t2) = %v, %v", c, err)
	}
}

func TestDecomposeJointlyDependentPairwiseIndependent(t *testing.T) {
	// Classic XOR-of-three: t3 present iff exactly one of t1, t2 — all
	// pairs independent, but the triple is not. Verification must force
	// the single-component fallback.
	set := mkWorlds(t, true, []float64{0.25, 0.25, 0.25, 0.25}, [][][]any{
		{{1, 1}, {2, 2}}, // t1 t2, no t3
		{{1, 1}, {3, 3}}, // t1 ¬t2 → t3
		{{2, 2}, {3, 3}}, // ¬t1 t2 → t3
		{},               // none
	})
	d, err := Decompose(set, "R")
	if err != nil {
		t.Fatal(err)
	}
	if d.ComponentCount() != 1 {
		t.Fatalf("components = %d, want 1 (fallback on joint dependence)", d.ComponentCount())
	}
	// The single component reproduces the distribution exactly.
	c, err := tupleConf(d, "R", row(3, 3))
	if err != nil || math.Abs(c-0.5) > eps {
		t.Errorf("conf(t3) = %v, %v", c, err)
	}
}

func TestDecomposeAllCertain(t *testing.T) {
	set := mkWorlds(t, true, []float64{0.5, 0.5}, [][][]any{
		{{1, 1}}, {{1, 1}},
	})
	d, err := Decompose(set, "R")
	if err != nil {
		t.Fatal(err)
	}
	if d.ComponentCount() != 0 {
		t.Errorf("components = %d, want 0", d.ComponentCount())
	}
	if cert := closed(t, d, "select certain * from R"); cert.Len() != 1 {
		t.Errorf("certain = %v", cert)
	}
}

func TestDecomposeUnweightedSupport(t *testing.T) {
	set := mkWorlds(t, false, nil, [][][]any{
		{{1, 1}}, {{2, 2}},
	})
	d, err := Decompose(set, "R")
	if err != nil {
		t.Fatal(err)
	}
	if d.Weighted {
		t.Error("decomposition of unweighted set must be unweighted")
	}
	if d.WorldCount().Cmp(big.NewInt(2)) != 0 {
		t.Errorf("support size = %s", d.WorldCount())
	}
}

func TestDecomposeErrors(t *testing.T) {
	if _, err := Decompose(&worldset.Set{}, "R"); err == nil {
		t.Error("empty set must fail")
	}
	set := mkWorlds(t, true, []float64{1}, [][][]any{{{1, 1}}})
	if _, err := Decompose(set, "Missing"); err == nil {
		t.Error("missing relation must fail")
	}
}

func TestDecomposeRandomProductsRecoverFactorization(t *testing.T) {
	// Build k independent choices through the forward direction (repair),
	// expand, decompose, and check the structure and distribution.
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		k := 1 + r.Intn(3)
		rel := relation.New(schema.New("K", "V", "W"))
		for g := 0; g < k; g++ {
			n := 2 + r.Intn(2)
			for v := 0; v < n; v++ {
				rel.MustAppend(row(g, v, 1+r.Intn(5)))
			}
		}
		fwd := New(true)
		if err := fwd.PutCertain("R", rel); err != nil {
			t.Fatal(err)
		}
		if err := fwd.repairByKey("R", "I", []string{"K"}, "W"); err != nil {
			t.Fatal(err)
		}
		set, err := fwd.Expand(0)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decompose(set, "I")
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if back.WorldCount().Cmp(fwd.WorldCount()) != 0 {
			t.Fatalf("trial %d: world counts %s vs %s", trial, back.WorldCount(), fwd.WorldCount())
		}
		// Confidences of every tuple agree.
		for _, tp := range rel.Rows() {
			want, _ := tupleConf(fwd, "I", tp)
			got, err := tupleConf(back, "I", tp)
			if err != nil || math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d: conf(%v) = %g vs %g (%v)", trial, tp, got, want, err)
			}
		}
	}
}
