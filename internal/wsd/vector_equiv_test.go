package wsd

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"maybms/internal/core"
	"maybms/internal/obs"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
)

// floorFixture builds a decomposition whose evaluations land on a chosen
// side of colbatch.Floor: P is a choice among three alternatives of
// rows tuples each (values overlap across alternatives, so certain and conf
// are non-trivial), I the repair of two two-candidate key groups plus a
// singleton, and S a certain lookup of pad rows. Twelve worlds either way,
// so the naive engine over Expand is always affordable.
func floorFixture(t *testing.T, rows, pad int) *WSD {
	t.Helper()
	d := New(true)
	c := relation.New(schema.New("G", "V"))
	for g := 0; g < 3; g++ {
		for v := 0; v < rows; v++ {
			c.MustAppend(row(g, v+g))
		}
	}
	r := relation.New(schema.New("K", "V", "W"))
	for _, tp := range [][]any{{0, 0, 1}, {0, 1, 3}, {1, 1, 1}, {1, 2, 1}, {2, 0, 1}} {
		r.MustAppend(row(tp...))
	}
	s := relation.New(schema.New("V", "Y"))
	for v := 0; v < pad; v++ {
		s.MustAppend(row(v, fmt.Sprintf("y%d", v)))
	}
	for name, rel := range map[string]*relation.Relation{"C": c, "R": r, "S": s} {
		if err := d.PutCertain(name, rel); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.choiceOf("C", "P", []string{"G"}, ""); err != nil {
		t.Fatal(err)
	}
	if err := d.repairByKey("R", "I", []string{"K"}, "W"); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestClosuresBothSidesOfTheFloor is the end-to-end half of
// internal/algebra's operator-vs-reference equivalence fuzz. Whether an
// evaluation runs over rows or columns follows from the form colbatch keeps
// its scanned relations in, by size, so the same closure and GROUP WORLDS BY
// statements run over a figure-sized fixture (every relation under the
// floor: every evaluation's answer in row form) and a padded one (over it:
// columnar answers, except an aggregate's), the trace's collect counters —
// which count answers by form — confirm which side ran, and each answer is
// compared with per-world evaluation over Expand: groups in order with
// probabilities to 1e-9, possible/certain answers as bags, conf to 1e-9.
func TestClosuresBothSidesOfTheFloor(t *testing.T) {
	t.Parallel()
	queries := []string{
		// Componentwise over one component and over several.
		"select possible V from P where V >= 1",
		"select certain V from P",
		"select conf, V from P",
		"select possible I.K, S.Y from I, S where I.V = S.V",
		"select conf, I.K, S.Y from I, S where I.V = S.V",
		// Aggregates correlate the alternatives: the merge route.
		"select conf, G, count(*) from P group by G",
		"select possible count(*) from I, S where I.V = S.V",
		// Grouped: frontier fold with a shared core.Closure, and the spanning merge.
		"select possible K, V from I group worlds by (select G from P)",
		"select conf, V from P group worlds by (select K from I where V = 0)",
		"select possible V from P group worlds by (select V from P where V < 2)",
	}
	sides := []struct {
		name      string
		rows, pad int
		batch     bool
	}{
		{"under", 3, 3, false},
		{"over", 40, 64, true},
	}
	for _, side := range sides {
		for _, q := range queries {
			side, q := side, q
			t.Run(side.name+"/"+q, func(t *testing.T) {
				t.Parallel()
				d := floorFixture(t, side.rows, side.pad)
				want, err := expandSession(t, d).Exec(q)
				if err != nil {
					t.Fatalf("naive: %v", err)
				}

				stmt, err := sqlparse.Parse(q)
				if err != nil {
					t.Fatal(err)
				}
				sel := stmt.(*sqlparse.SelectStmt)
				gw := sel.GroupWorlds
				qcore, cl, err := takeApart(sel)
				if err != nil {
					t.Fatal(err)
				}
				d.trace = obs.NewTrace(q)
				var got []core.GroupRows
				if gw != nil {
					got, err = d.groupWorldsClosure(gw, qcore, cl)
				} else {
					var rel *relation.Relation
					rel, err = d.selectClosure(qcore, cl)
					got = []core.GroupRows{{Prob: 1, Rel: rel}}
				}
				if err != nil {
					t.Fatalf("compact: %v", err)
				}
				// An aggregate lays its groups out afresh, in rows under the
				// floor, whatever it scanned.
				ex := d.trace.JSON().Exec
				if side.batch && !strings.Contains(q, "count(") && ex.BatchCollects == 0 {
					t.Errorf("over the floor but no answer was columnar (columnar=%d row-form=%d)", ex.BatchCollects, ex.RowCollects)
				}
				if !side.batch && (ex.RowCollects == 0 || ex.BatchCollects != 0) {
					t.Errorf("under the floor: %d columnar and %d row-form answers, want row-form only", ex.BatchCollects, ex.RowCollects)
				}

				if len(got) != len(want.Groups) {
					t.Fatalf("%d groups, want %d", len(got), len(want.Groups))
				}
				for gi := range got {
					if math.Abs(got[gi].Prob-want.Groups[gi].Prob) > 1e-9 {
						t.Errorf("group %d: prob %g, want %g", gi, got[gi].Prob, want.Groups[gi].Prob)
					}
					g := renderSet(t, got[gi].Rel, cl.IsConf())
					w := renderSet(t, want.Groups[gi].Rel, cl.IsConf())
					if g != w {
						t.Errorf("group %d diverged from per-world evaluation:\n%s\nwant:\n%s", gi, g, w)
					}
				}
			})
		}
	}
}
