package wsd

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
	"maybms/internal/tuple"
	"maybms/internal/worldset"
)

// foldFixtures are the decomposition shapes the closure fold is reached
// with, each with the relations to close over: no component at all, one
// flat component, several, a d-tree two levels deep under a choice, and an
// unweighted decomposition.
func foldFixtures(t *testing.T) []struct {
	name string
	d    *WSD
	rels []string
} {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	keyed := func() *relation.Relation {
		r := relation.New(schema.New("K", "V", "W"))
		for _, tp := range [][]any{{0, 0, 1}, {0, 1, 3}, {1, 1, 1}, {1, 2, 1}, {1, 3, 2}, {2, 0, 1}} {
			r.MustAppend(row(tp...))
		}
		return r
	}

	certainOnly := New(true)
	must(certainOnly.PutCertain("R", keyed()))

	one := New(true)
	must(one.PutCertain("R", keyed()))
	must(one.choiceOf("R", "P", []string{"K"}, "W"))

	many := New(true)
	must(many.PutCertain("R", keyed()))
	must(many.repairByKey("R", "I", []string{"K"}, "W"))

	// P chooses a key group K, Q chooses a V among the chosen rows and L
	// repairs what is left by V: children under P's alternatives,
	// grandchildren under theirs, with a real choice at every level. (No V
	// occurs under two Ks, so no two feeders share a repair key and nothing
	// merges.)
	nested := New(true)
	nr := relation.New(schema.New("K", "V", "W"))
	for _, tp := range [][]any{{0, 0, 1}, {0, 0, 2}, {0, 1, 1}, {1, 2, 1}, {1, 2, 3}, {1, 3, 2}} {
		nr.MustAppend(row(tp...))
	}
	must(nested.PutCertain("R", nr))
	must(nested.choiceOf("R", "P", []string{"K"}, ""))
	must(nested.choiceOf("P", "Q", []string{"V"}, "W"))
	must(nested.repairByKey("Q", "L", []string{"V"}, "W"))
	depth, ix := 0, nested.index()
	for _, c := range nested.comps {
		n := 0
		for p := ix.parent(c); p >= 0; p = ix.parent(nested.comps[p]) {
			n++
		}
		if n > depth {
			depth = n
		}
	}
	if nested.MergeCount() != 0 || depth != 2 {
		t.Fatalf("nested fixture: merges=%d depth=%d, want a merge-free d-tree two levels deep", nested.MergeCount(), depth)
	}

	unweighted := New(false)
	must(unweighted.PutCertain("R", keyed()))
	must(unweighted.repairByKey("R", "I", []string{"K"}, ""))

	return []struct {
		name string
		d    *WSD
		rels []string
	}{
		{"certain-only", certainOnly, []string{"R"}},
		{"flat-1", one, []string{"P"}},
		{"flat-many", many, []string{"I", "R"}},
		{"nested", nested, []string{"P", "Q", "L"}},
		{"unweighted", unweighted, []string{"I"}},
	}
}

// TestClosureFoldAgreement: the SELECT closures over `select * from rel`
// answer through the fold and the naive engine over Expand defines it, so
// they must agree on every fixture shape, as sets and confidences to 1e-9. A
// point `select conf … where` must answer 0 for a tuple no world holds, 1 for
// one every world holds and the CONF answer's confidence for every other; on
// an unweighted decomposition both fail with worldset.ErrNotWeighted.
func TestClosureFoldAgreement(t *testing.T) {
	t.Parallel()
	for _, fx := range foldFixtures(t) {
		for _, rel := range fx.rels {
			fx, rel := fx, rel
			t.Run(fx.name+"/"+rel, func(t *testing.T) {
				d := fx.d
				naive := expandSession(t, d)
				var certain, conf *relation.Relation
				for _, c := range []struct {
					sql  string
					conf bool
					keep **relation.Relation
				}{
					{"select possible * from " + rel, false, nil},
					{"select certain * from " + rel, false, &certain},
					{"select *, conf from " + rel, true, &conf},
				} {
					got, err := d.Exec(c.sql)
					if c.conf && !d.Weighted {
						if !errors.Is(err, worldset.ErrNotWeighted) {
							t.Errorf("select conf on an unweighted decomposition = %v, want worldset.ErrNotWeighted", err)
						}
						continue
					}
					if err != nil {
						t.Fatalf("select %q: %v", c.sql, err)
					}
					want, err := naive.Exec(c.sql)
					if err != nil {
						t.Fatalf("naive %q: %v", c.sql, err)
					}
					w := renderSet(t, want.Groups[0].Rel, c.conf)
					if g := renderSet(t, got.First(), c.conf); g != w {
						t.Errorf("select closure for %q:\n%s\nnaive:\n%s", c.sql, g, w)
					}
					if c.keep != nil {
						*c.keep = got.First()
					}
				}

				absent := make(tuple.Tuple, len(certain.Schema.Names()))
				for i := range absent {
					absent[i] = row(-7)[0]
				}
				if !d.Weighted {
					if _, err := tupleConf(d, rel, absent); !errors.Is(err, worldset.ErrNotWeighted) {
						t.Errorf("point conf on an unweighted decomposition = %v, want worldset.ErrNotWeighted", err)
					}
					return
				}
				if c, err := tupleConf(d, rel, absent); err != nil || c != 0 {
					t.Errorf("conf of an absent tuple = %v, %v; want 0", c, err)
				}
				for _, tp := range certain.Rows() {
					if c, err := tupleConf(d, rel, tp); err != nil || c != 1 {
						t.Errorf("conf of certain tuple %v = %v, %v; want 1", tp, c, err)
					}
				}
				for _, tp := range conf.Rows() {
					want := tp[len(tp)-1].AsFloat()
					if c, err := tupleConf(d, rel, tp[:len(tp)-1]); err != nil || math.Abs(c-want) > 1e-9 {
						t.Errorf("conf(%v) = %v, %v; select *, conf says %v", tp[:len(tp)-1], c, err, want)
					}
				}
			})
		}
	}
}

// TestClosureFoldOrder pins the closures' row order over a plain scan —
// `select possible * from I`, `select *, conf from I` and `select certain *
// from I`: the certain part first, then the contributions in component
// order, alternatives ascending, each tuple where it first appears — CERTAIN
// a filter of that sequence.
func TestClosureFoldOrder(t *testing.T) {
	d := New(true)
	r := relation.New(schema.New("K", "V", "W"))
	for _, tp := range [][]any{{1, 5, 1}, {1, 6, 1}, {0, 7, 1}, {2, 8, 1}, {2, 9, 3}} {
		r.MustAppend(row(tp...))
	}
	if err := d.PutCertain("R", r); err != nil {
		t.Fatal(err)
	}
	if err := d.repairByKey("R", "I", []string{"K"}, "W"); err != nil {
		t.Fatal(err)
	}
	vs := func(sql string) string {
		var out []string
		for _, tp := range closed(t, d, sql).Rows() {
			out = append(out, fmt.Sprint(tp[1].AsInt()))
		}
		return strings.Join(out, " ")
	}
	// Key groups in first-appearance order: K=1 (5, 6), K=0 (7), K=2 (8, 9).
	if got := vs("select possible * from I"); got != "5 6 7 8 9" {
		t.Errorf("possible order = %s", got)
	}
	if got := vs("select *, conf from I"); got != "5 6 7 8 9" {
		t.Errorf("conf order = %s", got)
	}
	if got := vs("select certain * from I"); got != "7" {
		t.Errorf("certain = %s, want the singleton group's tuple", got)
	}
}

// TestClosureFoldScalesLinearly: CONF and CERTAIN over 8× the components
// must take about 8× the time. The bound is 16× — the per-tuple loop over
// every (component, alternative) this fold replaced took ~60×, and so did the
// deviation-world evaluations of a chained repair (every alternative carrying
// one child component), each over every active component — and a ratio, so it
// holds on any box and under -race.
func TestClosureFoldScalesLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("times 16 000-component closures")
	}
	build := func(n int, chained bool) *WSD {
		d := New(true)
		r := relation.New(schema.New("K", "V", "W"))
		for k := 0; k < n; k++ {
			r.MustAppend(row(k, 0, 1))
			r.MustAppend(row(k, 1, 3))
		}
		if err := d.PutCertain("Dirty", r); err != nil {
			t.Fatal(err)
		}
		if err := d.repairByKey("Dirty", "Clean", []string{"K"}, "W"); err != nil {
			t.Fatal(err)
		}
		if !chained {
			return d
		}
		if err := d.repairByKey("Clean", "Cleaner", []string{"K", "V"}, ""); err != nil {
			t.Fatal(err)
		}
		if nestedCount(d) != 2*n || d.MergeCount() != 0 {
			t.Fatalf("fixture: %d nested components after %d merges, want %d and 0", nestedCount(d), d.MergeCount(), 2*n)
		}
		return d
	}
	flat := [2]*WSD{build(2000, false), build(16000, false)}
	chained := [2]*WSD{build(2000, true), build(16000, true)}
	for _, q := range []struct {
		sql  string
		on   [2]*WSD
		rows func(n int) int
	}{
		{"select *, conf from Clean", flat, func(n int) int { return 2 * n }},
		{"select certain * from Clean", flat, func(int) int { return 0 }},
		{"select *, conf from Cleaner", chained, func(n int) int { return 2 * n }},
	} {
		stmt, err := sqlparse.Parse(q.sql)
		if err != nil {
			t.Fatal(err)
		}
		qcore, cl, err := takeApart(stmt.(*sqlparse.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		// Mean time per run over equal total work (8 small runs for each large
		// one), so both sides pay their share of garbage collection; the best
		// of three rounds, so one preempted round does not fail the test.
		mean := func(d *WSD, n, runs int) time.Duration {
			start := time.Now()
			for i := 0; i < runs; i++ {
				rel, err := d.selectClosure(qcore, cl)
				if err != nil {
					t.Fatal(err)
				}
				if rel.Len() != q.rows(n) {
					t.Fatalf("%q over %d components: %d rows", q.sql, n, rel.Len())
				}
			}
			return time.Since(start) / time.Duration(runs)
		}
		var ts, tl time.Duration
		for round := 0; round < 3; round++ {
			s, l := mean(q.on[0], 2000, 8), mean(q.on[1], 16000, 1)
			if round == 0 || float64(l)/float64(s) < float64(tl)/float64(ts) {
				ts, tl = s, l
			}
		}
		ratio := float64(tl) / float64(ts)
		t.Logf("%q: 2000 components %v, 16000 components %v (×%.1f)", q.sql, ts, tl, ratio)
		if ratio > 16 {
			t.Errorf("%q: 16000 components took %v, 2000 took %v — ×%.1f for ×8 components, want ≤ ×16", q.sql, tl, ts, ratio)
		}
	}
}
