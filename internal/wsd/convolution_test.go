package wsd

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

// closuresAgree compares two closed answers as sets: the same schema and the
// same tuples, and with conf set, each tuple's trailing confidence within
// 1e-12 of the reference's, relatively, and 1e-9 absolutely.
func closuresAgree(got, want *relation.Relation, conf bool) error {
	if got.Schema.String() != want.Schema.String() {
		return fmt.Errorf("schema %s, want %s", got.Schema, want.Schema)
	}
	index := func(r *relation.Relation) (map[string]float64, error) {
		out := map[string]float64{}
		for _, tp := range r.Rows() {
			k, p := tp, 0.0
			if conf {
				k, p = tp[:len(tp)-1], tp[len(tp)-1].AsFloat()
			}
			if _, dup := out[k.Key()]; dup {
				return nil, fmt.Errorf("tuple %v listed twice", k)
			}
			out[k.Key()] = p
		}
		return out, nil
	}
	g, err := index(got)
	if err != nil {
		return err
	}
	w, err := index(want)
	if err != nil {
		return err
	}
	if len(g) != len(w) {
		return fmt.Errorf("%d tuples, want %d", len(g), len(w))
	}
	for k, wp := range w {
		gp, ok := g[k]
		switch diff := math.Abs(gp - wp); {
		case !ok:
			return fmt.Errorf("tuple %q missing", k)
		case diff > 1e-9 || diff > 1e-12*math.Abs(wp):
			return fmt.Errorf("tuple %q conf %v, want %v", k, gp, wp)
		}
	}
	return nil
}

// convFixture is a flat decomposition of R(K, V): a certain part and
// components whose alternatives contribute zero or more rows each.
type convFixture struct {
	weighted bool
	cert     []tuple.Tuple
	comps    [][]convAlt
	s        []tuple.Tuple // the certain S(X) of the outer FROM of one form
}

type convAlt struct {
	weight float64
	rows   []tuple.Tuple
}

// randomConvFixture draws a fixture of 1 to 12 components of 1 to 3
// alternatives (at most 512 merged alternatives), weights from 1 to 1e6,
// contributions of 0 to 2 rows whose V is an int in [-5, 20] or NULL, and
// an empty or non-empty certain part; with float set one V, in the certain
// part or a contribution, is 2.5.
func randomConvFixture(r *rand.Rand, weighted, float bool) convFixture {
	f := convFixture{weighted: weighted}
	v := func() value.Value {
		if r.Intn(6) == 0 {
			return value.Null()
		}
		return value.Int(int64(r.Intn(26) - 5))
	}
	if r.Intn(2) == 0 {
		for j := range 1 + r.Intn(3) {
			f.cert = append(f.cert, tuple.Tuple{value.Int(int64(100 + j)), v()})
		}
	}
	for j := range r.Intn(2) {
		f.s = append(f.s, tuple.Tuple{value.Int(int64(j))})
	}
	n, product := 1+r.Intn(12), 1
	for k := range n {
		alts := 1 + r.Intn(3)
		for product*alts > 512 {
			alts--
		}
		product *= alts
		comp := make([]convAlt, alts)
		for a := range comp {
			comp[a].weight = math.Pow(10, 6*r.Float64())
			rows := []int{0, 1, 1, 2}[r.Intn(4)]
			for range rows {
				comp[a].rows = append(comp[a].rows, tuple.Tuple{value.Int(int64(k)), v()})
			}
		}
		f.comps = append(f.comps, comp)
	}
	if float {
		if len(f.cert) == 0 || r.Intn(2) == 0 {
			k := r.Intn(n)
			a := r.Intn(len(f.comps[k]))
			f.comps[k][a].rows = append(f.comps[k][a].rows, tuple.Tuple{value.Int(int64(k)), value.Float(2.5)})
		} else {
			f.cert[0][1] = value.Float(2.5)
		}
	}
	return f
}

// build makes the fixture's decomposition.
func (f convFixture) build(t *testing.T) *WSD {
	t.Helper()
	d := New(f.weighted)
	if err := d.PutCertain("R", rowsRel(schema.New("K", "V"), append([]tuple.Tuple(nil), f.cert...))); err != nil {
		t.Fatal(err)
	}
	if err := d.PutCertain("S", rowsRel(schema.New("X"), append([]tuple.Tuple(nil), f.s...))); err != nil {
		t.Fatal(err)
	}
	sch := d.schemas[key("R")]
	for _, comp := range f.comps {
		total := 0.0
		for _, a := range comp {
			total += a.weight
		}
		alts := make([]Alternative, len(comp))
		for i, a := range comp {
			alts[i] = Alternative{Prob: a.weight / total, Contrib: map[string]*relation.Relation{}}
			if len(a.rows) > 0 {
				alts[i].Contrib[key("R")] = rowsRel(sch, append([]tuple.Tuple(nil), a.rows...))
			}
		}
		if _, err := d.addComponent(alts); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	return d
}

// readsFloat reports whether a row of the fixture that passes where holds a
// float V: a SUM over it keeps the merge route.
func (f convFixture) readsFloat(where string) bool {
	passes := func(tp tuple.Tuple) bool {
		switch where {
		case " where V > 3":
			return !tp[1].IsNull() && tp[1].AsFloat() > 3
		case " where K <> 2":
			return tp[0].AsInt() != 2
		case " where V is null":
			return tp[1].IsNull()
		}
		return true
	}
	rows := f.cert
	for _, comp := range f.comps {
		for _, a := range comp {
			rows = append(rows[:len(rows):len(rows)], a.rows...)
		}
	}
	for _, tp := range rows {
		if passes(tp) && tp[1].Kind() == value.KindFloat {
			return true
		}
	}
	return false
}

// randomConvStatement draws one statement of the convolution route's shapes
// over the fixture: a scalar sum(V), count(V) or count(*) under an inner
// WHERE or none, closed by POSSIBLE, CERTAIN or (weighted) CONF, or compared
// with a constant in Example 2.10's boolean CONF over R or S. It reports
// whether a SUM reads a float, and so keeps the merge route.
func randomConvStatement(r *rand.Rand, f convFixture) (sql string, float bool) {
	agg := []string{"sum(V)", "count(V)", "count(*)"}[r.Intn(3)]
	where := []string{"", " where V > 3", " where K <> 2", " where V is null"}[r.Intn(4)]
	float = agg == "sum(V)" && f.readsFloat(where)
	forms := 2
	if f.weighted {
		forms = 5
	}
	switch r.Intn(forms) {
	case 0:
		return fmt.Sprintf("select possible %s from R%s", agg, where), float
	case 1:
		return fmt.Sprintf("select certain %s from R%s", agg, where), float
	case 2:
		return fmt.Sprintf("select %s, conf from R%s", agg, where), float
	}
	outer := "R"
	if r.Intn(4) == 0 {
		outer = "S"
	}
	c := r.Intn(40) - 5
	op := []string{">", "<=", "=", "<>"}[r.Intn(4)]
	sub := fmt.Sprintf("(select %s from R%s)", agg, where)
	if r.Intn(2) == 0 {
		return fmt.Sprintf("select conf from %s where %d %s %s", outer, c, op, sub), float
	}
	return fmt.Sprintf("select conf from %s where %s %s %d", outer, sub, op, c), float
}

// TestConvolutionMatchesMerge is the convolution route's differential test:
// seeded random flat decompositions of up to 12 components — weighted and
// not, weights from 1 to 1e6, NULLs, alternatives that contribute nothing,
// empty and non-empty certain parts — and random statements of its shapes,
// each answered by the engine and by the merge route on a copy. An integer
// SUM and every COUNT take the convolution route, merge nothing and answer
// the merge route's sets, confidences within closuresAgree's bound; a SUM
// reading a float keeps the merge route and its answer bit for bit.
func TestConvolutionMatchesMerge(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	routes := map[string]int{}
	for trial := range 60 {
		f := randomConvFixture(r, trial%3 != 0, trial%4 == 3)
		for range 10 {
			sql, float := randomConvStatement(r, f)
			label := fmt.Sprintf("trial %d %q", trial, sql)
			d, ref := f.build(t), f.build(t)
			before := d.RouteCounts()
			res, err := d.Exec(sql)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got := res.Groups[0].Rel
			want := selectMerged(t, ref, sql)
			route := "convolution"
			if float {
				route = "merge"
			}
			if n := d.RouteCounts()[route] - before[route]; n != 1 {
				t.Fatalf("%s: route counts %v -> %v, want one %s", label, before, d.RouteCounts(), route)
			}
			routes[route]++
			_, cl := parseCore(t, sql)
			if float {
				if renderRel(got) != renderRel(want) {
					t.Errorf("%s: merge route\n%s\nwant\n%s", label, renderRel(got), renderRel(want))
				}
				continue
			}
			if err := closuresAgree(got, want, cl.IsConf()); err != nil {
				t.Errorf("%s: %v\n%s\nwant (merge route)\n%s", label, err, renderRel(got), renderRel(want))
			}
			if d.MergeCount() != 0 || d.ComponentCount() != len(f.comps) {
				t.Errorf("%s: %d merges, %d components; want none and %d", label, d.MergeCount(), d.ComponentCount(), len(f.comps))
			}
		}
	}
	if routes["convolution"] < 400 || routes["merge"] < 20 {
		t.Errorf("routes taken %v: the draw does not cover both", routes)
	}
}

// p4 is P4's decomposition: n keys, key k repaired between V = k%10 (weight
// 1) and V = 10 + k%10 (weight 3).
func p4(t testing.TB, n int) *WSD {
	t.Helper()
	d := New(true)
	src := relation.New(schema.New("K", "V", "W"))
	for k := range n {
		src.MustAppend(row(k, k%10, 1))
		src.MustAppend(row(k, 10+k%10, 3))
	}
	if err := d.PutCertain("MSrc", src); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec("create table M as select K, V from MSrc repair by key K weight W"); err != nil {
		t.Fatal(err)
	}
	return d
}

// binomialBelow is P(J < j) for J ~ Binomial(n, p), summed in log space.
func binomialBelow(n, j int, p float64) float64 {
	total := 0.0
	for i := range j {
		ln, _ := math.Lgamma(float64(n + 1))
		li, _ := math.Lgamma(float64(i + 1))
		lr, _ := math.Lgamma(float64(n - i + 1))
		total += math.Exp(ln - li - lr + float64(i)*math.Log(p) + float64(n-i)*math.Log(1-p))
	}
	return total
}

// TestConvolutionAtScale: P4 answers Examples 2.8 and 2.10 at n = 16 and at
// n = 1 000, where the merge route is refused — n + 1 possible sums, 10
// apart from Σ k%10, and the binomial confidence of the comparison —
// leaving the decomposition as it was.
func TestConvolutionAtScale(t *testing.T) {
	for _, n := range []int{16, 1000} {
		d := p4(t, n)
		base := 0
		for k := range n {
			base += k % 10
		}
		mid := base + 10*(3*n/4)
		for _, c := range []struct {
			sql   string
			check func(rel *relation.Relation) error
		}{
			{"select possible sum(V) from M", func(rel *relation.Relation) error {
				if rel.Len() != n+1 {
					return fmt.Errorf("%d sums, want %d", rel.Len(), n+1)
				}
				for j, tp := range rel.Rows() {
					if tp[0].AsInt() != int64(base+10*j) {
						return fmt.Errorf("sum %d is %v, want %d", j, tp[0], base+10*j)
					}
				}
				return nil
			}},
			{fmt.Sprintf("select conf from M where %d > (select sum(V) from M)", mid), func(rel *relation.Relation) error {
				want := binomialBelow(n, 3*n/4, 0.75)
				if got := rel.Rows()[0][0].AsFloat(); math.Abs(got-want) > 1e-9 {
					return fmt.Errorf("conf %v, want %v", got, want)
				}
				return nil
			}},
		} {
			res, err := d.Exec(c.sql)
			if err != nil {
				t.Fatalf("n=%d %q: %v", n, c.sql, err)
			}
			if err := c.check(res.Groups[0].Rel); err != nil {
				t.Errorf("n=%d %q: %v", n, c.sql, err)
			}
			if d.ComponentCount() != n || d.MergeCount() != 0 || d.RouteCounts()["convolution"] == 0 {
				t.Errorf("n=%d %q: %d components, %d merges, routes %v", n, c.sql, d.ComponentCount(), d.MergeCount(), d.RouteCounts())
			}
		}
	}
}

// TestConvolutionFoldLimit: the fold is bounded by MergeLimit values, not by
// the merged alternatives. P4 at n = 16 reaches 17 sums: under a limit of 16
// it fails with ErrMergeTooBig naming them, on the convolution route and
// leaving the decomposition as it was; under a limit of 17 it answers where
// the merge (65 536 alternatives) is refused. One component is never
// refused, as a merge of one is none.
func TestConvolutionFoldLimit(t *testing.T) {
	d := p4(t, 16)
	d.MergeLimit = 16
	before := d.String()
	_, err := d.Exec("select possible sum(V) from M")
	if !errors.Is(err, ErrMergeTooBig) || !strings.Contains(err.Error(), "reached 17 values") {
		t.Errorf("limit 16: error %v, want ErrMergeTooBig at 17 values", err)
	}
	if d.String() != before || d.RouteCounts()["convolution"] != 1 {
		t.Errorf("limit 16: routes %v, decomposition changed: %v", d.RouteCounts(), d.String() != before)
	}
	d.MergeLimit = 17
	if res, err := d.Exec("select possible sum(V) from M"); err != nil || res.Groups[0].Rel.Len() != 17 {
		t.Errorf("limit 17: %v, %v", res, err)
	}
	if _, err := d.Exec("select possible max(V) from M"); !errors.Is(err, ErrMergeTooBig) {
		t.Errorf("limit 17: max over 16 components %v, want the merge refused", err)
	}

	one := p4(t, 4)
	if _, err := one.Exec("select possible max(V) from M"); err != nil {
		t.Fatal(err)
	}
	one.MergeLimit = 2
	res, err := one.Exec("select sum(V), conf from M")
	if err != nil || res.Groups[0].Rel.Len() != 5 {
		t.Errorf("one component of 16 alternatives under limit 2: %v, %v", res, err)
	}
}

// TestConvolutionEmptyOuter: Example 2.10's form answers nothing in a world
// whose outer table is empty, whatever the comparison says there. R's
// certain part is empty and each component contributes nothing to R in one
// alternative: R is empty with probability 1/2 · 3/4, and only there is the
// count of V 0.
func TestConvolutionEmptyOuter(t *testing.T) {
	f := convFixture{weighted: true, comps: [][]convAlt{
		{{weight: 1}, {weight: 1, rows: []tuple.Tuple{row(0, 1)}}},
		{{weight: 3}, {weight: 1, rows: []tuple.Tuple{row(1, 2)}}},
	}}
	for sql, want := range map[string]string{
		"select conf from R where 5 > (select count(*) from R)": "0.625",
		"select conf from R where 0 = (select count(V) from R)": "none",
		"select conf from R where (select sum(V) from R) <= 3":  "0.625",
	} {
		d := f.build(t)
		res, err := d.Exec(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		got := res.Groups[0].Rel
		conf := "none"
		if got.Len() > 0 {
			conf = fmt.Sprint(got.Rows()[0][0].AsFloat())
		}
		if conf != want || d.RouteCounts()["convolution"] != 1 {
			t.Errorf("%q: conf %s, want %s; routes %v", sql, conf, want, d.RouteCounts())
		}
		if err := closuresAgree(got, selectMerged(t, f.build(t), sql), true); err != nil {
			t.Errorf("%q: %v", sql, err)
		}
	}
}

// TestConvolutionAnswerOrder: POSSIBLE lists the values ascending, NULL
// first, and CERTAIN holds the one value when there is one.
func TestConvolutionAnswerOrder(t *testing.T) {
	f := convFixture{weighted: true, comps: [][]convAlt{
		{{weight: 1}, {weight: 1, rows: []tuple.Tuple{row(0, 7)}}},
		{{weight: 1, rows: []tuple.Tuple{row(1, -3)}}, {weight: 1, rows: []tuple.Tuple{row(1, nil)}}},
	}}
	d := f.build(t)
	var got []string
	for _, tp := range selectOn(t, d, "select possible sum(V) from R").Rows() {
		got = append(got, tp[0].String())
	}
	if strings.Join(got, " ") != "NULL -3 4 7" {
		t.Errorf("possible sums %v, want NULL -3 4 7", got)
	}
	if rel := selectOn(t, d, "select certain count(*) from R where K = 1"); rel.Len() != 1 || rel.Rows()[0][0].AsInt() != 1 {
		t.Errorf("certain count %s, want 1", renderRel(rel))
	}
	if rel := selectOn(t, d, "select certain count(V) from R"); rel.Len() != 0 {
		t.Errorf("certain count(V) %s, want none", renderRel(rel))
	}
}
