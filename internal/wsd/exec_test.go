package wsd

import (
	"errors"
	"regexp"
	"strings"
	"testing"

	"maybms/internal/core"
	"maybms/internal/obs"
	"maybms/internal/relation"
)

// refusalExamples holds statements per row of the refusal table, over
// refusalWSD's relations; names, when set, is what the row's %s must name.
var refusalExamples = map[string][]struct{ sql, names string }{
	"per-world":        {{sql: "select sum(V) from I"}},
	"insert-uncertain": {{sql: "insert into I values (0, 2)"}},
	"primary-key":      {{sql: "create table X (K, primary key (K))"}},
	"create-view":      {{sql: "create view X as select * from R"}},
	"isql-in-select":   {{sql: "select K from I repair by key K"}},
	"split-combined":   {{sql: "create table X as select * from I repair by key K assert exists (select * from R)"}},
	"split-source": {
		{"create table X as select K from R group by K repair by key K", "GROUP BY"},
		// An aggregate among the operands of IN.
		{"create table X as select (4 in (1, sum(V))) as Y from R repair by key K", "aggregates"},
	},
	"isql-in-assert": {{sql: "assert exists (select K from I repair by key K)"}},
}

// refusalWSD is a certain relation R(K, V) and its repair I by key K: one
// component of two alternatives.
func refusalWSD(t *testing.T) *WSD {
	t.Helper()
	d := New(true)
	for _, sql := range []string{
		"create table R (K, V)",
		"insert into R values (0,0),(0,1)",
		"create table I as select * from R repair by key K",
	} {
		if _, err := d.Exec(sql); err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
	}
	return d
}

// TestISQLOutsideTheHeadBlock: I-SQL in a subquery, in a UNION arm or in
// the GROUP WORLDS BY subquery fails on both engines with the same error,
// one message per case, and never with the planner's internal "engine must
// strip it".
func TestISQLOutsideTheHeadBlock(t *testing.T) {
	const (
		sub   = "plan error: I-SQL constructs are not allowed in subqueries"
		arm   = "plan error: I-SQL constructs are not allowed in UNION arms"
		group = "group worlds by subquery must be plain SQL"
	)
	for _, tc := range []struct{ sql, want string }{
		{"select K from R where exists (select possible V from I)", sub},
		{"select possible K from I where V in (select conf from I)", sub},
		{"update R set V = 1 where exists (select certain V from I)", sub},
		{"delete from R where K in (select possible K from I)", sub},
		{"create table X as select K from R where exists (select possible V from I)", sub},
		{"select possible K from I union select possible K from R", arm},
		{"select K from R union select possible K from R", arm},
		{"select possible K from R group worlds by (select V from R where exists (select conf from R))", group},
	} {
		d := refusalWSD(t)
		s := expandSession(t, d)
		_, cerr := d.Exec(tc.sql)
		_, nerr := s.Exec(tc.sql)
		if cerr == nil || nerr == nil || cerr.Error() != tc.want || nerr.Error() != tc.want {
			t.Errorf("%q: compact %v, naive %v; want %q on both", tc.sql, cerr, nerr, tc.want)
		}
	}
}

// TestRefusalTable runs every row's example: the error wraps ErrUnsupported
// with the row's text (the per-world row's text is followed by the uncertain
// relations route names), the trace says route=refused and names the row,
// the decomposition is left as it was, and the naive engine runs the
// statement (all but the standalone ASSERT, a compact-only statement).
func TestRefusalTable(t *testing.T) {
	for i := range refusals {
		r := &refusals[i]
		t.Run(r.name, func(t *testing.T) {
			examples, ok := refusalExamples[r.name]
			if !ok {
				t.Fatalf("refusal row %q has no example statement", r.name)
			}
			for _, ex := range examples {
				sql := ex.sql
				d := refusalWSD(t)
				before := []any{d.WorldCount().String(), d.ComponentCount(), d.AlternativeCount(), d.String()}
				tr := obs.NewTrace(sql)
				_, err := core.ExecTraced(d, sql, nil, tr)
				if !errors.Is(err, ErrUnsupported) {
					t.Fatalf("%q: error %v does not wrap ErrUnsupported", sql, err)
				}
				names := ".+"
				if ex.names != "" {
					names = regexp.QuoteMeta(ex.names)
				}
				text := strings.ReplaceAll(regexp.QuoteMeta(r.text), "%s", names)
				tail := "$"
				if r.detect == nil {
					tail = ""
				}
				if !regexp.MustCompile("^" + regexp.QuoteMeta(ErrUnsupported.Error()+": ") + text + tail).MatchString(err.Error()) {
					t.Errorf("%q: error %q does not carry the row's text %q naming %q", sql, err, r.text, ex.names)
				}
				attrs := map[string]string{}
				for _, a := range tr.JSON().Attrs {
					attrs[a.Key] = a.Value
				}
				if attrs["route"] != "refused" || attrs["refusal"] != r.name {
					t.Errorf("%q: trace route=%q refusal=%q, want refused and %q", sql, attrs["route"], attrs["refusal"], r.name)
				}
				after := []any{d.WorldCount().String(), d.ComponentCount(), d.AlternativeCount(), d.String()}
				for j := range before {
					if before[j] != after[j] {
						t.Errorf("%q changed the decomposition: %v -> %v", sql, before[j], after[j])
					}
				}
				if r.name == "isql-in-assert" {
					continue
				}
				if _, err := expandSession(t, d).Exec(sql); err != nil {
					t.Errorf("naive engine on %q: %v", sql, err)
				}
			}
		})
	}
}

// cachingEngine is an engine that reports its plan-cache lookups.
type cachingEngine interface {
	core.Engine
	PlanCacheCounts() (hits, misses uint64)
}

// TestCachedPlanChecksTablesRead: a cached plan is valid while every table
// it read has the column names it was compiled against, on both engines. A
// plan compiled before DROP and a re-CREATE with other columns is not reused
// for the new relation: the statement compiles once more and reads the new
// column. A snapshot restore brings the old answer back, and costs one more
// compile, since the entry now holds the plan of the re-created table. DDL
// on a table the plan did not read leaves it a hit, and two sessions taking
// turns at one text over same-named tables with different columns each get
// their own answer.
func TestCachedPlanChecksTablesRead(t *testing.T) {
	engines := []struct {
		name string
		open func() cachingEngine
	}{
		{"naive", func() cachingEngine { return core.NewSession(true) }},
		{"compact", func() cachingEngine { return New(true) }},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			e := eng.open()
			exec := func(e core.Engine, sql string) *relation.Relation {
				t.Helper()
				res, err := core.Exec(e, sql)
				if err != nil {
					t.Fatalf("%q: %v", sql, err)
				}
				return res.First()
			}
			// compiles runs sql on e and returns its answer and the plans
			// it compiled.
			compiles := func(e cachingEngine, sql string) (*relation.Relation, uint64) {
				t.Helper()
				_, before := e.PlanCacheCounts()
				got := exec(e, sql)
				_, after := e.PlanCacheCounts()
				return got, after - before
			}
			for _, sql := range []string{
				"create table VcT (K, V)",
				"insert into VcT values (1, 10)",
				"insert into VcT values (1, 11)",
				"create table VcI as select * from VcT repair by key K",
			} {
				exec(e, sql)
			}
			const q = "select possible V from VcI"
			first, _ := compiles(e, q)
			before := renderRel(first)
			if again, n := compiles(e, q); renderRel(again) != before || n != 0 {
				t.Fatalf("a repeat compiled %d plans and answered\n%s\nwant\n%s", n, renderRel(again), before)
			}
			exec(e, "create table VcU (X)")
			if again, n := compiles(e, q); renderRel(again) != before || n != 0 {
				t.Errorf("after an unrelated CREATE TABLE: %d plan compilations, want 0 (answer\n%s)", n, renderRel(again))
			}

			restore := e.Snapshot()
			for _, sql := range []string{
				"drop table VcI",
				"create table VcI (K, W, V)",
				"insert into VcI values (1, 5, 20)",
			} {
				exec(e, sql)
			}
			got, n := compiles(e, q)
			if n != 1 || got.Len() != 1 || got.Rows()[0][0].AsInt() != 20 {
				t.Errorf("%q over the re-created VcI: %d plan compilations, want 1; answer\n%s\nwant V = 20", q, n, renderRel(got))
			}
			restore()
			if got, n := compiles(e, q); renderRel(got) != before || n != 1 {
				t.Errorf("after the restore: %d plan compilations, want 1; answer\n%s\nwant\n%s", n, renderRel(got), before)
			}

			// A second session whose VcS has other columns takes turns with
			// the first at one text.
			other := eng.open()
			exec(e, "create table VcS (K, V)")
			exec(e, "insert into VcS values (1, 10)")
			exec(other, "create table VcS (V, K)")
			exec(other, "insert into VcS values (30, 40)")
			const q2 = "select V from VcS"
			for turn := 0; turn < 3; turn++ {
				for _, c := range []struct {
					e    cachingEngine
					want int64
				}{{e, 10}, {other, 30}} {
					got := exec(c.e, q2)
					if got.Len() != 1 || got.Rows()[0][0].AsInt() != c.want {
						t.Fatalf("turn %d: %q answered\n%s\nwant V = %d", turn, q2, renderRel(got), c.want)
					}
				}
			}
		})
	}
}
