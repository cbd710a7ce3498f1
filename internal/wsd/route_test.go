package wsd

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"testing"

	"maybms/internal/core"
	"maybms/internal/obs"
	"maybms/internal/relation"
	"maybms/internal/sqlparse"
)

// The fixtures and white-box checks of this package's tests run statements
// built from parsed parts through Run, as Exec runs a parsed statement.

// repairByKey creates dst as CREATE TABLE dst AS SELECT * FROM src REPAIR BY
// KEY keys [WEIGHT weight] does.
func (d *WSD) repairByKey(src, dst string, keys []string, weight string) error {
	return d.splitStar(src, dst, &sqlparse.SelectStmt{Repair: &sqlparse.RepairClause{Key: keys, Weight: weight}})
}

// choiceOf creates dst as CREATE TABLE dst AS SELECT * FROM src CHOICE OF
// attrs [WEIGHT weight] does.
func (d *WSD) choiceOf(src, dst string, attrs []string, weight string) error {
	return d.splitStar(src, dst, &sqlparse.SelectStmt{Choice: &sqlparse.ChoiceClause{Attrs: attrs, Weight: weight}})
}

func (d *WSD) splitStar(src, dst string, q *sqlparse.SelectStmt) error {
	q.Items, q.From, q.Limit = []sqlparse.SelectItem{{Expr: sqlparse.Star{}}}, []sqlparse.TableRef{{Name: src}}, -1
	_, err := d.Run(&sqlparse.CreateTableAs{Name: dst, Query: q})
	return err
}

// withClosure is the SELECT requesting closure cl of a plain-SQL core (the
// inverse of core.TakeApart).
func withClosure(base *sqlparse.SelectStmt, cl core.Closure) *sqlparse.SelectStmt {
	q := *base
	switch cl {
	case core.ClosurePossible:
		q.Quantifier = sqlparse.QuantPossible
	case core.ClosureCertain:
		q.Quantifier = sqlparse.QuantCertain
	case core.ClosureConf, core.ClosureApproxConf:
		q.Items = append(q.Items[:len(q.Items):len(q.Items)], sqlparse.SelectItem{Expr: sqlparse.ConfExpr{Approx: cl == core.ClosureApproxConf}})
	}
	return &q
}

// selectClosure answers a SELECT core under closure cl.
func (d *WSD) selectClosure(core *sqlparse.SelectStmt, cl core.Closure) (*relation.Relation, error) {
	res, err := d.Run(withClosure(core, cl))
	if err != nil {
		return nil, err
	}
	return res.Groups[0].Rel, nil
}

// createTableAs stores a plain-SQL core's per-world answers as dst.
func (d *WSD) createTableAs(dst string, core *sqlparse.SelectStmt) error {
	_, err := d.Run(&sqlparse.CreateTableAs{Name: dst, Query: core})
	return err
}

// createTableAsClosure stores a closed, possibly grouped, core as dst.
func (d *WSD) createTableAsClosure(dst string, core *sqlparse.SelectStmt, cl core.Closure, gw *sqlparse.SelectStmt) error {
	q := withClosure(core, cl)
	q.GroupWorlds = gw
	_, err := d.Run(&sqlparse.CreateTableAs{Name: dst, Query: q})
	return err
}

// groupWorldsClosure answers `SELECT <cl> q GROUP WORLDS BY (gw)`.
func (d *WSD) groupWorldsClosure(gw, q *sqlparse.SelectStmt, cl core.Closure) ([]core.GroupRows, error) {
	st := withClosure(q, cl)
	st.GroupWorlds = gw
	res, err := d.Run(st)
	if err != nil {
		return nil, err
	}
	return res.Groups, nil
}

// assertStmt runs ASSERT e.
func (d *WSD) assertStmt(e sqlparse.Expr) error {
	_, err := d.Run(&sqlparse.Assert{Cond: e})
	return err
}

// routeLine is EXPLAIN's route line; its first word is the route.
var routeLine = regexp.MustCompile(`(?m)^route: (\w+) `)

// routeTotal sums the maybms_route_total series (the conditional kinds
// share one).
func routeTotal() uint64 {
	seen, n := map[*obs.Counter]bool{}, uint64(0)
	for _, c := range routeTotals {
		if !seen[c] {
			seen[c], n = true, n+c.Value()
		}
	}
	return n
}

// routeSeries is the maybms_route_total series of a route word.
func routeSeries(word string) *obs.Counter {
	for k, name := range routeNames {
		if name == word {
			return routeTotals[k]
		}
	}
	return nil
}

// agree runs sql under EXPLAIN and then for real, traced, and checks that
// both take the one decision: the EXPLAIN route word is the trace's route
// attribute, and maybms_route_total and the session's RouteCounts each move
// by exactly one, under that word. A statement EXPLAIN rejects must fail
// with the same error and note no route. It returns the route word.
func agree(t *testing.T, d *WSD, sql string) string {
	t.Helper()
	explained, xerr := d.Exec("EXPLAIN " + sql)
	total, session := routeTotal(), d.RouteCounts()
	series := map[string]uint64{}
	for _, w := range routeNames {
		series[w] = routeSeries(w).Value()
	}
	tr := obs.NewTrace(sql)
	_, err := core.ExecTraced(d, sql, nil, tr)
	traced := attr(tr, "route")
	if xerr != nil {
		if err == nil || err.Error() != xerr.Error() || traced != "" || routeTotal() != total {
			t.Errorf("%q: EXPLAIN failed with %v, Exec with %v and route %q", sql, xerr, err, traced)
		}
		return ""
	}
	m := routeLine.FindStringSubmatch(explained.Msg)
	if m == nil {
		t.Fatalf("%q: no route line in EXPLAIN:\n%s", sql, explained.Msg)
	}
	word := m[1]
	if traced != word {
		t.Errorf("%q: EXPLAIN says route %s, the trace %q (err %v)", sql, word, traced, err)
	}
	if (err != nil && errors.Is(err, ErrUnsupported)) != (word == "refused" && !errors.Is(err, ErrMergeTooBig)) {
		t.Errorf("%q: route %s, error %v", sql, word, err)
	}
	if got := routeTotal(); got != total+1 || routeSeries(word).Value() != series[word]+1 {
		t.Errorf("%q: maybms_route_total moved by %d, its %s series by %d; want 1 and 1",
			sql, got-total, word, routeSeries(word).Value()-series[word])
	}
	after := d.RouteCounts()
	for w, n := range after {
		want := session[w]
		if w == word {
			want++
		}
		if n != want {
			t.Errorf("%q: RouteCounts[%s] %d -> %d, route %s", sql, w, session[w], n, word)
		}
	}
	return word
}

// agreementWSD is fuzzPair's decomposition plus the tables of the other
// equivalence suites: F and G (G repaired from FR, weighted), an imported J,
// and M and T, certain rows under I's and P's contributions.
func agreementWSD(t *testing.T, seed int64) *WSD {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	s, d := fuzzPair(t, r)
	importTarget(t, r, s, d)
	f, fr := keyedTables()
	if err := d.PutCertain("F", f); err != nil {
		t.Fatal(err)
	}
	if err := d.PutCertain("FR", fr); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"create table G as select * from FR repair by key K weight W",
		"create table M as select K, V, W from R union all select K, V, W from I",
		"create table T as select K, V, W from R union all select K, V, W from P",
	} {
		if _, err := d.Exec(sql); err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
	}
	return d
}

// routeCorpus hands run the equivalence corpora — the componentwise, delta,
// GROUP WORLDS, factorized CTAS, split and conditional-shape suites and the
// DML fuzz seeds — statement by statement, each with the decomposition it
// runs over; run executes it.
func routeCorpus(t *testing.T, run func(d *WSD, sql string)) {
	t.Helper()
	for seed := int64(0); seed < 3; seed++ {
		d := agreementWSD(t, seed)
		for _, q := range componentwiseQueries {
			run(d, q.sql)
		}
		// The convolution route's two shapes: a closed scalar aggregate, and
		// Example 2.10's boolean CONF.
		run(d, "select sum(V), conf from I where V > 0")
		run(d, "select conf from I where 3 > (select count(*) from I where V > 0)")
		d = agreementWSD(t, seed)
		for _, q := range deltaQueries {
			run(d, q)
			run(d, strings.Replace(q, "select ", "select possible ", 1))
			run(d, strings.Replace(q, " from ", ", conf from ", 1))
		}
		d = agreementWSD(t, seed)
		for _, q := range groupWorldsQueries {
			run(d, q.sql)
			run(d, strings.Replace(q.sql, "select ", "create table D as select ", 1))
			run(d, "drop table D")
		}
		for _, st := range ctasStatements {
			run(agreementWSD(t, seed), st.sql)
		}
		d = agreementWSD(t, seed)
		for _, st := range dmlStatements {
			run(d, st.sql)
		}
		for _, sql := range []string{"create table N as select * from I repair by key V", "drop table N", "drop table I"} {
			run(d, sql)
		}
		d = agreementWSD(t, seed)
		// Each shape splits I, P and what the previous shape made of them:
		// repairs of repairs, choices of repairs, filtered and projected
		// sources, key and weight columns outside the select list.
		srcs := []string{"I", "P"}
		for step, split := range []string{
			"select * from %s repair by key K", "select * from %s repair by key V weight W",
			"select * from %s choice of K", "select K, V, W from %s repair by key K, V",
			"select K, V from %s where V <= 1 repair by key V weight W", "select K, V, W from %s choice of V, W",
			"select K, V, W from %s where V <= 0 choice of K weight W",
		} {
			next := []string{"I", "P"}
			for _, src := range srcs {
				dst := fmt.Sprintf("Q%d%s", step, src)
				run(d, fmt.Sprintf("create table %s as "+split, dst, src))
				if sch, err := d.Schema(dst); err == nil && sch.Len() == 3 {
					next = append(next, dst)
				}
			}
			srcs = next
		}
		run(d, "create table XA as select K, V from I assert exists (select * from I where V = 0 and K = 0)")
	}
}

// TestRouteAgreement runs routeCorpus through agree: every statement's
// EXPLAIN names the route its execution notes, once.
func TestRouteAgreement(t *testing.T) {
	words := map[string]int{}
	routeCorpus(t, func(d *WSD, sql string) { words[agree(t, d, sql)]++ })
	t.Logf("routes taken: %v", words)
	for _, w := range []string{"single", "componentwise", "conditional", "convolution", "merge", "refused"} {
		if words[w] == 0 {
			t.Errorf("no corpus statement took route %s: %v", w, words)
		}
	}
}

// TestSnapshotKeepsSavedState: every statement of routeCorpus — a read, a
// write or a failure — run after a Snapshot leaves the relation maps and the
// component list the Snapshot saved holding exactly the entries they held
// before it, pointer for pointer: the statement's first write copied them.
func TestSnapshotKeepsSavedState(t *testing.T) {
	routeCorpus(t, func(d *WSD, sql string) {
		d.Snapshot()
		saved := d.state
		certain, schemas, names := maps.Clone(saved.certain), maps.Clone(saved.schemas), maps.Clone(saved.names)
		comps := slices.Clone(saved.comps)
		_, _ = d.Exec(sql) // the corpus holds statements that fail
		if !maps.Equal(saved.certain, certain) || !maps.Equal(saved.schemas, schemas) || !maps.Equal(saved.names, names) {
			t.Errorf("%q wrote a relation map a Snapshot saved", sql)
		}
		if !slices.Equal(saved.comps, comps) {
			t.Errorf("%q wrote the component list a Snapshot saved", sql)
		}
	})
}

// TestRouteProbes pins the route of each statement shape whose EXPLAIN once
// named another route than the one that ran, or none: two repaired
// relations I and J, a choice P and a certain S. A split into an existing
// table fails before it is decided, noting no route ("").
func TestRouteProbes(t *testing.T) {
	d := New(true)
	for _, sql := range []string{
		"create table R (K, V, W)",
		"insert into R values (0, 0, 1), (0, 1, 2), (1, 1, 1), (1, 2, 1), (2, 0, 1)",
		"create table I as select * from R repair by key K weight W",
		"create table J as select * from R repair by key V",
		"create table C (K, V)",
		"insert into C values (0, 0), (1, 2)",
		"create table P as select * from C choice of K",
		"create table S (V, Y)",
		"insert into S values (0, 'y0'), (1, 'y1')",
	} {
		if _, err := d.Exec(sql); err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
	}
	for _, tc := range []struct{ sql, want string }{
		{"create table X6 as select * from J choice of K", "merge"},
		{"create table X1 as select count(*) as N from I", "merge"},
		{"create table X2 as select I.K, J.V from I, J where I.V = J.V", "merge"},
		{"create table X3 as select V from I", "componentwise"},
		{"select possible V from I group worlds by (select V from I where K = 1)", "merge"},
		{"select possible K, V from I group worlds by (select V from P)", "componentwise"},
		{"create table X4 as select possible K from I group worlds by (select V from P)", "merge"},
		{"update I set V = V + 10 where K = 0", "componentwise"},
		{"update J set W = 0 where V <= (select max(V) from P)", "merge"},
		{"delete from I where V >= 12", "componentwise"},
		{"insert into S values (2, 'y2')", "single"},
		{"insert into I values (5, 5, 1)", "refused"},
		{"create table E as select * from I where V > 100", "componentwise"},
		{"insert into E values (5, 5, 1)", "single"},
		{"create table X5 as select * from I repair by key V", "conditional"},
		{"create table X7 as select K, V from I where V <= 11 repair by key K", "conditional"},
		{"create table X8 as select * from P repair by key V", "conditional"},
		{"create table X7 as select K, V from I where V <= 11 choice of K", ""},
		{"create table X8 as select * from P repair by key K", ""},
		{"assert exists (select * from J where V = 1)", "merge"},
		{"drop table X3", "single"},
		{"select conf, K from I", "componentwise"},
		{"select sum(V) from I", "refused"},
	} {
		if got := agree(t, d, tc.sql); got != tc.want {
			t.Errorf("%q: route %s, want %s", tc.sql, got, tc.want)
		}
	}
}
