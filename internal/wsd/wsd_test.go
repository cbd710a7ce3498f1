package wsd

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"strings"
	"testing"

	"maybms/internal/colbatch"
	"maybms/internal/core"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/tuple"
	"maybms/internal/value"
	"maybms/internal/world"
	"maybms/internal/worldset"
)

const eps = 1e-9

// rowsRel builds a relation of rows, which it takes ownership of.
func rowsRel(sch *schema.Schema, rows []tuple.Tuple) *relation.Relation {
	return relation.FromBatch(colbatch.FromRows(sch, rows))
}

func row(vals ...any) tuple.Tuple {
	out := make(tuple.Tuple, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case int:
			out[i] = value.Int(int64(x))
		case string:
			out[i] = value.Str(x)
		case float64:
			out[i] = value.Float(x)
		case nil:
			out[i] = value.Null()
		default:
			panic("bad fixture")
		}
	}
	return out
}

// closed runs closure statement sql on d and returns its answer.
func closed(t *testing.T, d *WSD, sql string) *relation.Relation {
	t.Helper()
	res, err := d.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res.First()
}

// schemaDigest renders every relation of d with its schema, in name order.
func schemaDigest(d *WSD) string {
	var b strings.Builder
	for _, n := range d.Names() {
		sch, _ := d.Schema(n)
		fmt.Fprintf(&b, "%s=%s;", n, sch)
	}
	return b.String()
}

// tupleConf is the confidence of tuple tp in relation name, asked as `select
// conf from name where` each column equals tp's cell: 0 for an empty answer,
// which no world holds.
func tupleConf(d *WSD, name string, tp tuple.Tuple) (float64, error) {
	sch, err := d.Schema(name)
	if err != nil {
		return 0, err
	}
	conds := make([]string, len(tp))
	for i, v := range tp {
		conds[i] = sch.At(i).Name + " = " + v.SQL()
		if v.IsNull() {
			conds[i] = sch.At(i).Name + " is null"
		}
	}
	res, err := d.Exec("select conf from " + name + " where " + strings.Join(conds, " and "))
	if err != nil || res.First().Len() == 0 {
		return 0, err
	}
	return res.First().Rows()[0][0].AsFloat(), nil
}

// figure1R is relation R of Figure 1.
func figure1R() *relation.Relation {
	r := relation.New(schema.New("A", "B", "C", "D"))
	r.MustAppend(row("a1", 10, "c1", 2))
	r.MustAppend(row("a1", 15, "c2", 6))
	r.MustAppend(row("a2", 14, "c3", 4))
	r.MustAppend(row("a2", 20, "c4", 5))
	r.MustAppend(row("a3", 20, "c5", 6))
	return r
}

func newFigure2WSD(t *testing.T) *WSD {
	t.Helper()
	d := New(true)
	if err := d.PutCertain("R", figure1R()); err != nil {
		t.Fatal(err)
	}
	if err := d.repairByKey("R", "I", []string{"A"}, "D"); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRepairByKeyStructure(t *testing.T) {
	d := newFigure2WSD(t)
	// One component per key group (a1, a2, a3), sizes 2·2·1.
	if d.ComponentCount() != 3 {
		t.Fatalf("components = %d, want 3", d.ComponentCount())
	}
	if d.AlternativeCount() != 5 {
		t.Errorf("alternatives = %d, want 5 (one per R tuple)", d.AlternativeCount())
	}
	if got := d.WorldCount(); got.Cmp(big.NewInt(4)) != 0 {
		t.Errorf("worlds = %s, want 4", got)
	}
	if err := d.CheckInvariant(); err != nil {
		t.Error(err)
	}
}

func TestRepairConfMatchesFigure2(t *testing.T) {
	d := newFigure2WSD(t)
	// Tuple (a1,10,c1,2) is chosen with probability 2/8 = 1/4; it appears
	// in worlds A and C: 1/9 + 5/36 = 1/4. Exact, without enumeration.
	cases := []struct {
		t    tuple.Tuple
		want float64
	}{
		{row("a1", 10, "c1", 2), 0.25},
		{row("a1", 15, "c2", 6), 0.75},
		{row("a2", 14, "c3", 4), 4.0 / 9},
		{row("a2", 20, "c4", 5), 5.0 / 9},
		{row("a3", 20, "c5", 6), 1.0},
	}
	for _, c := range cases {
		got, err := tupleConf(d, "I", c.t)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > eps {
			t.Errorf("conf(%v) = %.4f, want %.4f", c.t, got, c.want)
		}
	}
	// A tuple that never occurs.
	got, err := tupleConf(d, "I", row("a9", 0, "cx", 1))
	if err != nil || got != 0 {
		t.Errorf("conf of impossible tuple = %v, %v", got, err)
	}
}

func TestPossibleAndCertain(t *testing.T) {
	d := newFigure2WSD(t)
	if poss := closed(t, d, "select possible * from I"); poss.Len() != 5 {
		t.Errorf("possible I = %d tuples, want 5", poss.Len())
	}
	// Only the a3 tuple (singleton group) is certain.
	if cert := closed(t, d, "select certain * from I"); cert.Len() != 1 || cert.Rows()[0][0].AsStr() != "a3" {
		t.Errorf("certain I = %v", cert.Rows())
	}
	// R itself is certain everywhere.
	if certR := closed(t, d, "select certain * from R"); certR.Len() != 5 {
		t.Errorf("certain R = %d", certR.Len())
	}
}

func TestConfRelation(t *testing.T) {
	d := newFigure2WSD(t)
	rel := closed(t, d, "select *, conf from I")
	if rel.Len() != 5 || rel.Schema.Len() != 5 {
		t.Fatalf("conf relation shape: %s, %d rows", rel.Schema, rel.Len())
	}
	total := 0.0
	for _, tp := range rel.Rows() {
		c := tp[4].AsFloat()
		if c <= 0 || c > 1+eps {
			t.Errorf("conf out of range: %v", tp)
		}
		if tp[0].AsStr() == "a1" {
			total += c
		}
	}
	// The two a1 alternatives are exclusive and exhaustive: confs sum to 1.
	if math.Abs(total-1) > eps {
		t.Errorf("a1 confs sum to %g", total)
	}
}

func TestChoiceOf(t *testing.T) {
	d := New(true)
	if err := d.PutCertain("R", figure1R()); err != nil {
		t.Fatal(err)
	}
	if err := d.choiceOf("R", "P", []string{"A"}, "D"); err != nil {
		t.Fatal(err)
	}
	if d.ComponentCount() != 1 || d.WorldCount().Cmp(big.NewInt(3)) != 0 {
		t.Fatalf("choice structure: %s", d)
	}
	// Example 2.7 probabilities: 8/23, 9/23, 6/23.
	comp := d.comps[0]
	probs := map[string]float64{}
	for _, a := range comp.Alts {
		probs[a.Contrib["p"].Batch().At(0, 0).AsStr()] = a.Prob
	}
	want := map[string]float64{"a1": 8.0 / 23, "a2": 9.0 / 23, "a3": 6.0 / 23}
	for k, w := range want {
		if math.Abs(probs[k]-w) > eps {
			t.Errorf("P(%s) = %.4f, want %.4f", k, probs[k], w)
		}
	}
}

func TestExpandMatchesStructure(t *testing.T) {
	d := newFigure2WSD(t)
	set, err := d.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 4 {
		t.Fatalf("expanded worlds = %d", set.Len())
	}
	if err := set.CheckInvariant(); err != nil {
		t.Error(err)
	}
	// Figure 2 probabilities appear among the worlds.
	want := []float64{1.0 / 9, 1.0 / 3, 5.0 / 36, 5.0 / 12}
	for _, p := range want {
		found := false
		for _, w := range set.Worlds {
			if math.Abs(w.Prob-p) < eps {
				found = true
			}
		}
		if !found {
			t.Errorf("no world with probability %.4f", p)
		}
	}
	// Each world's I has exactly 3 tuples and R has 5.
	for _, w := range set.Worlds {
		i, err := w.Lookup("I")
		if err != nil {
			t.Fatal(err)
		}
		if i.Len() != 3 {
			t.Errorf("world %s I = %d tuples", w.Name, i.Len())
		}
		r, _ := w.Lookup("R")
		if r.Len() != 5 {
			t.Errorf("world %s R = %d tuples", w.Name, r.Len())
		}
	}
}

func TestExpandLimitGuard(t *testing.T) {
	d := New(true)
	rel := relation.New(schema.New("K", "V"))
	for k := 0; k < 20; k++ {
		rel.MustAppend(row(k, 0))
		rel.MustAppend(row(k, 1))
	}
	if err := d.PutCertain("R", rel); err != nil {
		t.Fatal(err)
	}
	if err := d.repairByKey("R", "I", []string{"K"}, ""); err != nil {
		t.Fatal(err)
	}
	// 2^20 worlds, limit 1<<16.
	if _, err := d.Expand(0); !errors.Is(err, ErrMergeTooBig) {
		t.Errorf("expected expansion guard, got %v", err)
	}
	// But counting and confidence still work.
	if d.WorldCount().Cmp(big.NewInt(1<<20)) != 0 {
		t.Errorf("world count = %s", d.WorldCount())
	}
	c, err := tupleConf(d, "I", row(3, 1))
	if err != nil || math.Abs(c-0.5) > eps {
		t.Errorf("conf = %v, %v", c, err)
	}
}

func TestConfOnUnweighted(t *testing.T) {
	d := New(false)
	if err := d.PutCertain("R", figure1R()); err != nil {
		t.Fatal(err)
	}
	if err := d.repairByKey("R", "I", []string{"A"}, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := tupleConf(d, "I", row("a3", 20, "c5", 6)); !errors.Is(err, worldset.ErrNotWeighted) {
		t.Errorf("conf on unweighted = %v", err)
	}
	// Possible/certain still work.
	if cert := closed(t, d, "select certain * from I"); cert.Len() != 1 {
		t.Errorf("certain = %v", cert)
	}
}

func TestWeightOnUnweightedRejected(t *testing.T) {
	d := New(false)
	if err := d.PutCertain("R", figure1R()); err != nil {
		t.Fatal(err)
	}
	if err := d.repairByKey("R", "I", []string{"A"}, "D"); !errors.Is(err, worldset.ErrNotWeighted) {
		t.Errorf("weighted repair on unweighted WSD = %v", err)
	}
	if err := d.choiceOf("R", "P", []string{"A"}, "D"); !errors.Is(err, worldset.ErrNotWeighted) {
		t.Errorf("weighted choice on unweighted WSD = %v", err)
	}
}

func TestRepairErrors(t *testing.T) {
	d := New(true)
	if err := d.repairByKey("Nope", "I", []string{"A"}, ""); !errors.Is(err, world.ErrUnknown) {
		t.Errorf("unknown source = %v", err)
	}
	if err := d.PutCertain("R", figure1R()); err != nil {
		t.Fatal(err)
	}
	if err := d.repairByKey("R", "I", []string{"Z"}, ""); err == nil {
		t.Error("unknown key column must fail")
	}
	if err := d.repairByKey("R", "I", []string{"A"}, "Zz"); err == nil {
		t.Error("unknown weight column must fail")
	}
	if err := d.repairByKey("R", "R", []string{"A"}, ""); !errors.Is(err, core.ErrExists) {
		t.Errorf("dst collision = %v", err)
	}
	if err := d.repairByKey("R", "I", []string{"A"}, ""); err != nil {
		t.Fatal(err)
	}
	// I is uncertain: repairing it splits components instead of refusing
	// (each key group has one candidate per world, so the repair is the
	// identity and the world count is preserved).
	before := d.WorldCount().String()
	if err := d.repairByKey("I", "J", []string{"A"}, ""); err != nil {
		t.Errorf("repair of uncertain relation = %v", err)
	} else if got := d.WorldCount().String(); got != before {
		t.Errorf("identity chained repair changed world count: %s -> %s", before, got)
	}
	if err := d.PutCertain("I", figure1R()); !errors.Is(err, core.ErrExists) {
		t.Errorf("PutCertain collision = %v", err)
	}
}

func TestAssertLocalFiltering(t *testing.T) {
	d := newFigure2WSD(t)
	// Drop worlds where I contains C-value c1 (Example 2.5). The assert
	// touches I, whose a1 component gets filtered; a2/a3 components stay
	// untouched only if independent — here merge involves all I components.
	err := d.assert(d.componentsFor("I"), func(cat plan.Catalog) (bool, error) {
		rel, err := cat.Lookup("I")
		if err != nil {
			return false, err
		}
		for _, tp := range rel.Rows() {
			if tp[2].AsStr() == "c1" {
				return false, nil
			}
		}
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.WorldCount().Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("worlds after assert = %s, want 2", d.WorldCount())
	}
	// Renormalized to 4/9 and 5/9 as in Example 2.5.
	set, err := d.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	probs := []float64{set.Worlds[0].Prob, set.Worlds[1].Prob}
	if !(math.Abs(probs[0]-4.0/9) < eps && math.Abs(probs[1]-5.0/9) < eps ||
		math.Abs(probs[1]-4.0/9) < eps && math.Abs(probs[0]-5.0/9) < eps) {
		t.Errorf("renormalized probs = %v", probs)
	}
}

func TestAssertCertainOnly(t *testing.T) {
	d := New(true)
	if err := d.PutCertain("R", figure1R()); err != nil {
		t.Fatal(err)
	}
	err := d.assert(d.componentsFor("R"), func(cat plan.Catalog) (bool, error) { return true, nil })
	if err != nil {
		t.Fatal(err)
	}
	err = d.assert(d.componentsFor("R"), func(cat plan.Catalog) (bool, error) { return false, nil })
	if !errors.Is(err, ErrEmpty) {
		t.Errorf("failing certain assert = %v", err)
	}
}

func TestAssertDroppingAllWorldsFails(t *testing.T) {
	d := newFigure2WSD(t)
	err := d.assert(d.componentsFor("I"), func(plan.Catalog) (bool, error) { return false, nil })
	if !errors.Is(err, ErrEmpty) {
		t.Errorf("assert dropping everything = %v", err)
	}
}

func TestMaterializeOverCertain(t *testing.T) {
	d := New(true)
	if err := d.PutCertain("R", figure1R()); err != nil {
		t.Fatal(err)
	}
	if err := d.createTableAs("R2", mustCore(t, "select * from R")); err != nil {
		t.Fatal(err)
	}
	if !d.isCertain("R2") {
		t.Error("query over certain data must stay certain")
	}
}

func TestMaterializePerWorld(t *testing.T) {
	d := newFigure2WSD(t)
	// Materialize D := σ_{A='a3'}(I) per world (Example 2.2 shape) on the
	// merge route.
	createTableMerged(t, d, "D", mustCore(t, "select * from I where A = 'a3'"))
	// D's only tuple is certain (a3 is in every world).
	if cert := closed(t, d, "select certain * from D"); cert.Len() != 1 {
		t.Errorf("certain D = %v", cert.Rows())
	}
	// World count unchanged (merge collapsed the I components into one).
	if d.WorldCount().Cmp(big.NewInt(4)) != 0 {
		t.Errorf("world count after materialize = %s", d.WorldCount())
	}
}

func TestMergeLimitGuard(t *testing.T) {
	d := New(true)
	rel := relation.New(schema.New("K", "V"))
	for k := 0; k < 20; k++ {
		rel.MustAppend(row(k, 0))
		rel.MustAppend(row(k, 1))
	}
	if err := d.PutCertain("R", rel); err != nil {
		t.Fatal(err)
	}
	if err := d.repairByKey("R", "I", []string{"K"}, ""); err != nil {
		t.Fatal(err)
	}
	err := d.assert(d.componentsFor("I"), func(plan.Catalog) (bool, error) { return true, nil })
	if !errors.Is(err, ErrMergeTooBig) {
		t.Errorf("oversized merge = %v", err)
	}
}

func TestMillionComponentWorldCount(t *testing.T) {
	// The "10^10^6 worlds" headline: a million binary components count
	// 2^1e6 ≈ 10^301030 worlds while the representation stays linear.
	d := New(true)
	rel := relation.New(schema.New("K", "V"))
	n := 1 << 10 // keep the unit test fast; the bench scales to 1e6
	for k := 0; k < n; k++ {
		rel.MustAppend(row(k, 0))
		rel.MustAppend(row(k, 1))
	}
	if err := d.PutCertain("R", rel); err != nil {
		t.Fatal(err)
	}
	if err := d.repairByKey("R", "I", []string{"K"}, ""); err != nil {
		t.Fatal(err)
	}
	count := d.WorldCount()
	if count.BitLen() != n+1 {
		t.Errorf("world count bit length = %d, want %d", count.BitLen(), n+1)
	}
	if d.AlternativeCount() != 2*n {
		t.Errorf("representation size = %d alternatives, want %d", d.AlternativeCount(), 2*n)
	}
}

func TestStringSummary(t *testing.T) {
	d := newFigure2WSD(t)
	s := d.String()
	for _, frag := range []string{"components: 3", "worlds: 4"} {
		if !strings.Contains(s, frag) {
			t.Errorf("summary %q missing %q", s, frag)
		}
	}
	if len(d.Names()) != 2 {
		t.Errorf("names = %v", d.Names())
	}
	if _, err := d.Schema("I"); err != nil {
		t.Error(err)
	}
	if _, err := d.Schema("Zz"); !errors.Is(err, world.ErrUnknown) {
		t.Errorf("unknown schema = %v", err)
	}
}

func TestInsertCertainAndDrop(t *testing.T) {
	d := New(true)
	r := relation.New(schema.New("A", "B"))
	r.MustAppend(row("x", 1))
	if err := d.PutCertain("T", r); err != nil {
		t.Fatal(err)
	}
	if err := d.insertCertain("T", nil); err != nil {
		t.Fatalf("empty insert: %v", err)
	}
	if err := d.insertCertain("T", []tuple.Tuple{row("y", 2), row("z", 3)}); err != nil {
		t.Fatal(err)
	}
	if got := closed(t, d, "select possible * from T"); got.Len() != 3 {
		t.Fatalf("after insert: %v", got.Rows())
	}
	// Width mismatch rejected.
	if err := d.insertCertain("T", []tuple.Tuple{row("w")}); err == nil {
		t.Fatal("want width error")
	}
	// Uncertain relations reject inserts; dropping one removes its
	// contributions and keeps every component, so the world count stays.
	if err := d.repairByKey("T", "U", []string{"A"}, ""); err != nil {
		t.Fatal(err)
	}
	if err := d.insertCertain("U", []tuple.Tuple{row("q", 9)}); err == nil {
		t.Fatal("insert into uncertain relation must fail")
	}
	worlds, comps := d.WorldCount().String(), d.ComponentCount()
	if err := d.drop("U"); err != nil {
		t.Fatalf("drop uncertain relation: %v", err)
	}
	if _, err := d.Exec("select possible * from U"); !errors.Is(err, world.ErrUnknown) {
		t.Fatalf("U should be gone: %v", err)
	}
	if d.WorldCount().String() != worlds || d.ComponentCount() != comps {
		t.Fatalf("drop restructured the decomposition: %s", d)
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if err := d.drop("T"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec("select possible * from T"); err == nil {
		t.Fatal("T should be gone")
	}
	if err := d.drop("T"); !errors.Is(err, world.ErrUnknown) {
		t.Fatalf("second drop: %v, want world.ErrUnknown", err)
	}
}
