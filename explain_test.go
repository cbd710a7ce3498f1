package maybms

import (
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// explainCompactDB builds the two-component repair fixture the EXPLAIN
// goldens run against: Rp = repair of R by key K (components 0 and 1,
// with 2 and 1 alternatives), plus a certain relation C.
func explainCompactDB(t *testing.T) *CompactDB {
	t.Helper()
	db := OpenCompact()
	if err := db.Register("R", []string{"K", "A", "W"},
		[][]any{{1, "x", 0.5}, {1, "y", 0.5}, {2, "z", 1.0}}); err != nil {
		t.Fatal(err)
	}
	db.MustExec("create table Rp as select * from R repair by key K weight W")
	if err := db.Register("C", []string{"X"}, [][]any{{1}, {2}}); err != nil {
		t.Fatal(err)
	}
	return db
}

// durRE matches rendered durations/offsets (µs/ms/s); ANALYZE goldens
// normalize them since real timings vary run to run. Durations are also
// column-aligned, so interior space runs collapse too (leading
// indentation is preserved).
var (
	durRE = regexp.MustCompile(`\d+(\.\d+)?(µs|ms|s)`)
	padRE = regexp.MustCompile(`(\S) {2,}`)
)

func normalizeTrace(s string) string {
	return padRE.ReplaceAllString(durRE.ReplaceAllString(s, "T"), "$1 ")
}

func explainText(t *testing.T, db *CompactDB, query string) string {
	t.Helper()
	res, err := db.Exec(query)
	if err != nil {
		t.Fatalf("%q: %v", query, err)
	}
	return res.Msg
}

// explainGoldens pins the EXPLAIN output of every compact routing class
// over explainCompactDB: world-independent single evaluation, merge-free
// componentwise closure (of a scan, and of a hash join with the WHERE's
// single-table conjuncts sunk onto its inputs), classic bounded merge (of a
// closure, a store and a spanning GROUP WORLDS BY), conditional relation, a
// componentwise UPDATE, a nesting split, Monte-Carlo approximation, and the
// refusal forms. tinyLimit cases run
// with MergeLimit 1 and a fixed APPROX CONF configuration.
var explainGoldens = []struct {
	name, query, want string
	tinyLimit         bool
}{
	{
		name:  "single_world_independent",
		query: "EXPLAIN SELECT POSSIBLE X FROM C",
		want: `engine: compact (world-set decomposition)
worlds: 2
route: single (world-independent)
closure: possible
plan:
  Project [X]
    Scan C [certain]`,
	},
	{
		name:  "componentwise",
		query: "EXPLAIN SELECT POSSIBLE A FROM Rp",
		want: `engine: compact (world-set decomposition)
worlds: 2
route: componentwise (merge-free, 2 components, 2+1 alternatives)
closure: possible
plan:
  Project [A]
    Scan Rp [components: 0 1]`,
	},
	{
		name:  "componentwise_join",
		query: "EXPLAIN SELECT POSSIBLE A, X FROM Rp, C WHERE K = X AND A <> 'y' AND X > 0",
		want: `engine: compact (world-set decomposition)
worlds: 2
route: componentwise (merge-free, 2 components, 2+1 alternatives)
closure: possible
plan:
  Project [A, X]
    HashJoin (Rp.K = C.X)
      Filter (A <> 'y')
        Scan Rp [components: 0 1]
      Filter (X > 0)
        Scan C [certain]`,
	},
	{
		name:  "merge",
		query: "EXPLAIN SELECT A, CONF FROM Rp GROUP BY A",
		want: `engine: compact (world-set decomposition)
worlds: 2
route: merge (partial expansion, 2 components, 2 alternatives, limit 65536)
closure: conf
plan:
  Project [A]
    Aggregate [] group=[1]
      Scan Rp [components: 0 1]`,
	},
	{
		name:  "conditional_relation",
		query: "EXPLAIN SELECT A FROM Rp",
		want: `engine: compact (world-set decomposition)
worlds: 2
route: conditional (relation with cond column, 2 components, 0 nested)
closure: none
plan:
  Project [A]
    Scan Rp [components: 0 1]`,
	},
	{
		name:  "refused_per_world",
		query: "EXPLAIN SELECT SUM(A) FROM Rp",
		want: `engine: compact (world-set decomposition)
worlds: 2
route: refused (per-world answers over uncertain relations; uncertain: Rp)
closure: none
plan:
  Project [sum(A)]
    Aggregate [sum(A)]
      Scan Rp [components: 0 1]`,
	},
	{
		name:  "ctas_merge",
		query: "EXPLAIN CREATE TABLE N AS SELECT COUNT(*) AS N FROM Rp",
		want: `engine: compact (world-set decomposition)
worlds: 2
materialize: table N
route: merge (partial expansion, 2 components, 2 alternatives, limit 65536)
closure: none
plan:
  Project [count(*)]
    Aggregate [count(*)]
      Scan Rp [components: 0 1]`,
	},
	{
		name:  "group_worlds_spanning",
		query: "EXPLAIN SELECT POSSIBLE A FROM Rp GROUP WORLDS BY (SELECT A FROM Rp WHERE K = 1)",
		want: `engine: compact (world-set decomposition)
worlds: 2
group worlds by: yes
route: merge (partial expansion, 2 components, 2 alternatives, limit 65536)
closure: possible
plan:
  Project [A]
    Scan Rp [components: 0 1]`,
	},
	{
		name:  "update_componentwise",
		query: "EXPLAIN UPDATE Rp SET A = 'q' WHERE K = 1",
		want: `engine: compact (world-set decomposition)
worlds: 2
route: componentwise (merge-free, 2 components, 2+1 alternatives)
plan:
  Update Rp [components [0 1]]`,
	},
	{
		name:  "repair_conditional",
		query: "EXPLAIN CREATE TABLE Rq AS SELECT * FROM Rp REPAIR BY KEY A",
		want: `engine: compact (world-set decomposition)
worlds: 2
route: conditional (nested split, 2 feeding components)
plan:
  RepairByKey (A) -> Rq`,
	},
	{
		name:  "refused_insert_uncertain",
		query: "EXPLAIN INSERT INTO Rp VALUES (3, 'w', 1)",
		want: `engine: compact (world-set decomposition)
worlds: 2
route: refused (operation requires a certain (complete) relation: Rp has component contributions)`,
	},
	{
		tinyLimit: true,
		name:      "approx_mc",
		query:     "EXPLAIN SELECT A, APPROX CONF FROM Rp GROUP BY A",
		want: `engine: compact (world-set decomposition)
worlds: 2
route: approx_mc (merge of 2 components exceeds limit 1; 1000 samples, seed 0, stderr <= 0.0158)
closure: approx conf
plan:
  Project [A]
    Aggregate [] group=[1]
      Scan Rp [components: 0 1]`,
	},
	{
		tinyLimit: true,
		name:      "refused_merge_too_big",
		query:     "EXPLAIN SELECT A, CONF FROM Rp GROUP BY A",
		want: `engine: compact (world-set decomposition)
worlds: 2
route: refused (merge of 2 components exceeds limit 1 alternatives)
closure: conf
plan:
  Project [A]
    Aggregate [] group=[1]
      Scan Rp [components: 0 1]`,
	},
}

// explainGoldenDB is the fixture of one explainGoldens case.
func explainGoldenDB(t *testing.T, tinyLimit bool) *CompactDB {
	t.Helper()
	db := explainCompactDB(t)
	if tinyLimit {
		db.SetMergeLimit(1)
	}
	return db
}

// TestExplainCompactGolden checks every golden, and that EXPLAIN decides
// without executing (the decomposition stays unmerged).
func TestExplainCompactGolden(t *testing.T) {
	for _, tc := range explainGoldens {
		t.Run(tc.name, func(t *testing.T) {
			db := explainGoldenDB(t, tc.tinyLimit)
			if got := explainText(t, db, tc.query); got != tc.want {
				t.Errorf("EXPLAIN mismatch\n--- got ---\n%s\n--- want ---\n%s", got, tc.want)
			}
			if db.ComponentCount() != 2 {
				t.Errorf("EXPLAIN must not merge: components = %d, want 2", db.ComponentCount())
			}
		})
	}
}

// explainedRoute extracts the first word of EXPLAIN's route: line.
func explainedRoute(t *testing.T, text string) string {
	t.Helper()
	m := regexp.MustCompile(`(?m)^route: (\w+)`).FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("no route line in:\n%s", text)
	}
	return m[1]
}

// tracedRoute is the route attribute a trace ends up with.
func tracedRoute(tr *Trace) string {
	route := ""
	for _, a := range tr.JSON().Attrs {
		if a.Key == "route" {
			route = a.Value
		}
	}
	return route
}

// TestExplainNamesExecutedRoute: EXPLAIN renders the decision the executor
// switches on, so for every golden statement the route EXPLAIN names is the
// route attribute of the trace from actually executing it — including the
// Monte-Carlo escape past MergeLimit and both refusals.
func TestExplainNamesExecutedRoute(t *testing.T) {
	for _, tc := range explainGoldens {
		t.Run(tc.name, func(t *testing.T) {
			db := explainGoldenDB(t, tc.tinyLimit)
			want := explainedRoute(t, explainText(t, db, tc.query))
			_, tr, err := db.ExecTraced(strings.TrimPrefix(tc.query, "EXPLAIN "))
			if (err != nil) != (want == "refused") {
				t.Errorf("EXPLAIN says %s, execution returned error %v", want, err)
			}
			if got := tracedRoute(tr); got != want {
				t.Errorf("EXPLAIN says route %s, execution took %q", want, got)
			}
			if want == "refused" && db.ComponentCount() != 2 {
				t.Errorf("a refused statement restructured the decomposition: components = %d, want 2", db.ComponentCount())
			}
		})
	}
}

// TestExplainAgreesWithExec: EXPLAIN predicts what execution does with
// statement shapes whose refusal or error is decided before any route — a
// refused statement explains as `route: refused (<Exec's text>)`, a
// malformed one fails EXPLAIN with Exec's exact error, and a runnable one
// explains without error.
func TestExplainAgreesWithExec(t *testing.T) {
	fresh := func() *CompactDB {
		t.Helper()
		db := OpenCompact()
		if err := db.Register("R", []string{"A", "B"}, [][]any{{1, 2}, {3, 4}}); err != nil {
			t.Fatal(err)
		}
		if err := db.Register("S", []string{"K", "V"}, [][]any{{0, 0}, {0, 1}, {1, 1}}); err != nil {
			t.Fatal(err)
		}
		db.MustExec("create table I as select * from S repair by key K")
		return db
	}
	for _, tc := range []struct{ name, sql, want string }{
		{"primary_key", "create table P (A, B, primary key (A))", "refused"},
		{"split_combined", "create table D as select possible * from R repair by key A", "refused"},
		{"isql_in_assert", "assert exists (select possible * from R)", "refused"},
		{"split_source", "create table E as select A from R group by A repair by key A", "refused"},
		{"create_view", "create view V as select * from R", "refused"},
		{"grouping_not_plain", "select possible K from I group worlds by (select V from I where exists (select conf from I))", "error"},
		{"grouping_without_closure", "create table E as select K from I group worlds by (select V from I)", "error"},
		{"ctas_assert", "create table D as select * from I assert exists (select * from I where V = 1)", "runs"},
		// DML whose target, rows or template fail before any data is touched.
		{"update_missing", "update Missing set V = 1", "error"},
		{"delete_missing", "delete from Missing", "error"},
		{"insert_missing", "insert into Missing values (1)", "error"},
		{"insert_arity", "insert into R values (1, 2, 3)", "error"},
		{"insert_column", "insert into R (Z) values (1)", "error"},
		{"update_set_column", "update R set Z = 1", "error"},
		{"update_where_column", "update R set V = 1 where Z = 1", "error"},
		{"delete_where_column", "delete from R where Z = 1", "error"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := fresh()
			explained, xerr := db.Exec("EXPLAIN " + tc.sql)
			_, err := db.Exec(tc.sql)
			switch tc.want {
			case "refused":
				if !errors.Is(err, ErrCompactUnsupported) {
					t.Fatalf("Exec = %v, want a refusal", err)
				}
				route := "route: refused (" + strings.TrimPrefix(err.Error(), ErrCompactUnsupported.Error()+": ") + ")"
				if xerr != nil || !strings.Contains(explained.Msg, route) {
					t.Errorf("EXPLAIN = %v, %v; want %q", explained, xerr, route)
				}
			case "error":
				if err == nil || errors.Is(err, ErrCompactUnsupported) {
					t.Fatalf("Exec = %v, want a statement error", err)
				}
				if xerr == nil || xerr.Error() != err.Error() {
					t.Errorf("EXPLAIN error = %v, want Exec's %v", xerr, err)
				}
			default:
				if err != nil || xerr != nil {
					t.Errorf("Exec error %v, EXPLAIN error %v; want both to run", err, xerr)
				}
			}
		})
	}
}

// TestNaiveExplainAgreesWithExec is TestExplainAgreesWithExec for the naive
// engine, probabilistic and not: EXPLAIN runs the checks and the I-SQL strip
// execution runs, so a statement Exec refuses EXPLAIN refuses with the same
// error, and one Exec runs EXPLAIN explains.
func TestNaiveExplainAgreesWithExec(t *testing.T) {
	for _, open := range []struct {
		name string
		db   func() *DB
	}{{"weighted", Open}, {"incomplete", OpenIncomplete}} {
		for _, sql := range []string{
			"select conf, conf from R",
			"select possible K, conf from R",
			"select K from R repair by key K choice of V",
			"select K from R group worlds by (select V from R)",
			"select K from R repair by key K union select K from R",
			"select possible K from R group worlds by (select V from R where exists (select conf from R))",
			"select conf from R",
			"select K from R repair by key K weight V",
			"select K from R union select possible K from R",
			"select possible K from R repair by key K",
			"assert true",
			"update Missing set V = 1",
			"delete from Missing",
			"insert into Missing values (1)",
			"insert into R values (1, 2, 3)",
			"insert into R (Z) values (1)",
			"update R set Z = 1",
			"update R set V = 1 where Z = 1",
			"delete from R where Z = 1",
		} {
			t.Run(open.name+"/"+sql, func(t *testing.T) {
				db := open.db()
				if err := db.Register("R", []string{"K", "V"}, [][]any{{1, 1}, {1, 2}, {2, 3}}); err != nil {
					t.Fatal(err)
				}
				_, xerr := db.Exec("EXPLAIN " + sql)
				_, err := db.Exec(sql)
				if (err == nil) != (xerr == nil) || err != nil && xerr.Error() != err.Error() {
					t.Errorf("EXPLAIN error = %v, want Exec's %v", xerr, err)
				}
			})
		}
	}
}

// TestTableRefusalTraced: a statement the refusal table stops before it
// runs is counted and traced like route's refusals — route=refused on the
// trace and in maybms_route_total — and the trace names the row.
func TestTableRefusalTraced(t *testing.T) {
	refusedTotal := func() int {
		var b strings.Builder
		WriteMetrics(&b)
		m := regexp.MustCompile(`(?m)^maybms_route_total\{route="refused"\} (\d+)$`).FindStringSubmatch(b.String())
		if m == nil {
			return 0
		}
		n, _ := strconv.Atoi(m[1])
		return n
	}
	before := refusedTotal()
	_, tr, err := OpenCompact().ExecTraced("create table P (A, primary key (A))")
	if !errors.Is(err, ErrCompactUnsupported) {
		t.Fatalf("err = %v, want a refusal", err)
	}
	if route := tracedRoute(tr); route != "refused" {
		t.Errorf("route attr = %q, want refused", route)
	}
	refusal := ""
	for _, a := range tr.JSON().Attrs {
		if a.Key == "refusal" {
			refusal = a.Value
		}
	}
	if refusal != "primary-key" {
		t.Errorf("refusal attr = %q, want primary-key", refusal)
	}
	if after := refusedTotal(); after <= before {
		t.Errorf("maybms_route_total{route=\"refused\"} %d -> %d, want a tick", before, after)
	}
}

// TestExplainVectorized: EXPLAIN names no evaluation path — there is one
// operator set, and which form it runs over follows the scanned relations
// — and a traced run of a componentwise join against a 40-row certain
// relation (its key the WHERE's `K = X`) collects one columnar answer, the
// tagged delta of all three alternatives: the 40-row relation is stored as
// columns (past colbatch.Floor), and the hash join's output over a columnar
// build side is columnar. The other answer, the certain-only evaluation over
// Rp's empty certain part, is empty, and an empty batch is in row form.
func TestExplainVectorized(t *testing.T) {
	db := explainCompactDB(t)
	wide := make([][]any, 40)
	for i := range wide {
		wide[i] = []any{i}
	}
	if err := db.Register("Wide", []string{"X"}, wide); err != nil {
		t.Fatal(err)
	}
	want := `engine: compact (world-set decomposition)
worlds: 2
route: componentwise (merge-free, 2 components, 2+1 alternatives)
closure: possible
plan:
  Project [A]
    HashJoin (Rp.K = Wide.X)
      Scan Rp [components: 0 1]
      Scan Wide [certain]`
	query := "SELECT POSSIBLE A FROM Rp, Wide WHERE K = X"
	if got := explainText(t, db, "EXPLAIN "+query); got != want {
		t.Errorf("EXPLAIN mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	_, tr, err := db.ExecTraced(query)
	if err != nil {
		t.Fatal(err)
	}
	if ex := tr.JSON().Exec; ex.BatchCollects != 1 || ex.RowCollects != 1 {
		t.Errorf("collects batch=%d row=%d, want 1 columnar tagged delta and 1 empty certain-only answer", ex.BatchCollects, ex.RowCollects)
	}
}

// TestExplainAnalyzeCompactGolden runs EXPLAIN ANALYZE for real and pins
// the whole output with timings normalized: the actual route, spans,
// evaluation stats, and result cardinality must all appear.
func TestExplainAnalyzeCompactGolden(t *testing.T) {
	db := explainCompactDB(t)
	got := normalizeTrace(explainText(t, db, "EXPLAIN ANALYZE SELECT A, CONF FROM Rp GROUP BY A"))
	want := `engine: compact (world-set decomposition)
worlds: 2
route: merge (partial expansion, 2 components, 2 alternatives, limit 65536)
closure: conf
plan:
  Project [A]
    Aggregate [] group=[1]
      Scan Rp [components: 0 1]

actual:
  trace: SELECT A, conf FROM Rp GROUP BY A
    plan T +T cache=hit
    analyze T +T components=2 decomposable=false
    merge_eval T +T components=2 alternatives=2 merge_limit=65536
    closure T +T
    --
    route=merge
    exec: collects batch=0 row=2 rows=4
    total T
  result rows: 3`
	if got != want {
		t.Errorf("EXPLAIN ANALYZE mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestExplainAnalyzeComponentwise checks the componentwise class under
// ANALYZE structurally (span presence and route), where per-component
// cardinalities make full goldens brittle.
func TestExplainAnalyzeComponentwise(t *testing.T) {
	db := explainCompactDB(t)
	got := explainText(t, db, "EXPLAIN ANALYZE SELECT POSSIBLE A FROM Rp")
	for _, want := range []string{
		"route: componentwise (merge-free, 2 components, 2+1 alternatives)",
		"actual:",
		// One certain-only evaluation and one tagged delta of all three
		// alternatives; Rp has no certain part and every alternative one
		// row, so the delta's scan reads three tagged rows.
		"components=2  base_rows=0  delta_rows=3  evaluations=2  tagged_rows=3",
		"route=componentwise",
		"result rows: 3",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, got)
		}
	}
}

// TestExplainNaiveGolden pins the naive engine's EXPLAIN: world count,
// closure and stage lines, and the compiled per-world plan.
func TestExplainNaiveGolden(t *testing.T) {
	db := Open()
	db.MustExec("create table S (K, A, W)")
	db.MustExec("insert into S values (1, 'x', 0.5), (1, 'y', 0.5)")

	got := db.MustExec("EXPLAIN SELECT * FROM S REPAIR BY KEY K WEIGHT W").Msg
	want := `engine: naive (per-world evaluation)
worlds: 1
split: repair key (K)
closure: none
plan:
  Project [S.K, S.A, S.W]
    Scan S`
	if got != want {
		t.Errorf("EXPLAIN mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	db.MustExec("create table I as select * from S repair by key K weight W")
	got = normalizeTrace(db.MustExec("EXPLAIN ANALYZE SELECT POSSIBLE A FROM I").Msg)
	want = `engine: naive (per-world evaluation)
worlds: 2
closure: possible
plan:
  Project [A]
    Scan I

actual:
  trace: SELECT POSSIBLE A FROM I
    eval T +T worlds=2
    plan T +T cache=hit
    closure T +T groups=1
    --
    route=per-world
    exec: collects batch=0 row=2 rows=2
    total T
  result rows: 2`
	if got != want {
		t.Errorf("EXPLAIN ANALYZE mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestExplainErrors pins the parser-level EXPLAIN diagnostics.
func TestExplainErrors(t *testing.T) {
	db := Open()
	if _, err := db.Exec("EXPLAIN EXPLAIN SELECT 1"); err == nil ||
		!strings.Contains(err.Error(), "EXPLAIN cannot be nested") {
		t.Errorf("nested EXPLAIN error = %v", err)
	}
	if _, err := db.Exec("EXPLAIN"); err == nil {
		t.Error("bare EXPLAIN should fail to parse")
	}
}

// TestExecTraced checks the public tracing entry points on both engines.
func TestExecTraced(t *testing.T) {
	db := explainCompactDB(t)
	res, tr, err := db.ExecTraced("SELECT POSSIBLE A FROM Rp")
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || tr == nil {
		t.Fatal("ExecTraced returned nil result or trace")
	}
	js := tr.JSON()
	if js.Statement != "SELECT POSSIBLE A FROM Rp" {
		t.Errorf("trace statement = %q", js.Statement)
	}
	if route := tracedRoute(tr); route != "componentwise" {
		t.Errorf("route attr = %q, want componentwise", route)
	}
	if len(js.Spans) == 0 {
		t.Error("trace has no spans")
	}
	if js.Exec.Rows == 0 {
		t.Error("trace counted no rows")
	}

	n := Open()
	n.MustExec("create table S (A)")
	n.MustExec("insert into S values (1), (2)")
	_, tr2, err := n.ExecTraced("select A from S")
	if err != nil {
		t.Fatal(err)
	}
	if got := tr2.JSON(); len(got.Spans) == 0 || got.Exec.Rows != 2 {
		t.Errorf("naive trace spans=%d rows=%d, want >0 and 2", len(got.Spans), got.Exec.Rows)
	}
}

// TestNaiveCreateAsPlansOnce: a plain CREATE TABLE AS on the naive engine
// looks its template up once — the compile that checks the stored names
// hands the template to the per-world evaluation — so its trace holds one
// plan span.
func TestNaiveCreateAsPlansOnce(t *testing.T) {
	db := Open()
	db.MustExec("create table R (A, B)")
	db.MustExec("insert into R values (1, 2), (3, 4)")
	_, tr, err := db.ExecTraced("create table T as select A from R")
	if err != nil {
		t.Fatal(err)
	}
	plans := 0
	for _, sp := range tr.JSON().Spans {
		if sp.Name == "plan" {
			plans++
		}
	}
	if plans != 1 {
		t.Errorf("%d plan spans, want 1: %v", plans, tr.JSON().Spans)
	}
	if got := db.MustExec("select A from T").String(); !strings.Contains(got, "3") {
		t.Errorf("T holds\n%s", got)
	}
}

// TestTraceCountsSharedSubplans: a traced statement reports what its binds
// shared. Over the 2^9 worlds of a repair, the naive engine runs the
// uncorrelated sum once per world (subquery_evals=512), not once per row of
// I, and hashes the certain D — extended by an INSERT after the split —
// once for every world's join (shared_builds=1);
// the compact engine's merge route runs the max once per merged alternative,
// its convolution route evaluates no subquery for the sum, and its
// certain-only evaluation and tagged delta probe one table of D.
// EXPLAIN ANALYZE prints the attributes; a statement with nothing to share
// reports neither.
func TestTraceCountsSharedSubplans(t *testing.T) {
	type engine interface {
		MustExec(sql string) *Result
		ExecTraced(sql string) (*Result, *Trace, error)
	}
	load := func(db engine) engine {
		var src, dim []string
		for k := 0; k < 9; k++ {
			src = append(src, fmt.Sprintf("(%d, %d, 1), (%d, %d, 1)", k, k, k, 60+k))
		}
		for k := 0; k < 200; k++ {
			dim = append(dim, fmt.Sprintf("(%d, 'l%d', %d)", k, k%7, k%100))
		}
		db.MustExec("create table Src (K, V, W)")
		db.MustExec("insert into Src values " + strings.Join(src, ", "))
		db.MustExec("create table D (K, Label, X)")
		db.MustExec("insert into D values " + strings.Join(dim, ", "))
		db.MustExec("create table I as select K, V from Src repair by key K weight W")
		// Inserted into every world after the split: worlds that shared D
		// share its extension.
		db.MustExec("insert into D values (200, 'l0', 1)")
		return db
	}
	// The compact engine answers the sum form by convolution, evaluating no
	// subquery per world; the max form keeps the merge route, one memoised
	// evaluation per merged alternative.
	const (
		sum  = "select conf from I where 300 > (select sum(V) from I)"
		max  = "select conf from I where 300 > (select max(V) from I)"
		join = "select possible I.K, Label from I, D where I.K = D.K and V > 50 and X < 55"
		none = "select possible K from I where V > 50"
	)
	for _, c := range []struct {
		db                         engine
		sql                        string
		evals, builds, name, route string
	}{
		{load(Open()), sum, "512", "", "naive", "per-world"},
		{load(Open()), join, "", "1", "naive", "per-world"},
		{load(Open()), none, "", "", "naive", "per-world"},
		{load(OpenCompact()), sum, "", "", "compact", "convolution"},
		{load(OpenCompact()), max, "512", "", "compact", "merge"},
		{load(OpenCompact()), join, "", "1", "compact", "componentwise"},
		{load(OpenCompact()), none, "", "", "compact", "componentwise"},
	} {
		_, tr, err := c.db.ExecTraced(c.sql)
		if err != nil {
			t.Fatalf("%s %q: %v", c.name, c.sql, err)
		}
		got := map[string]string{}
		for _, a := range tr.JSON().Attrs {
			got[a.Key] = a.Value
		}
		if got["subquery_evals"] != c.evals || got["shared_builds"] != c.builds || got["route"] != c.route {
			t.Errorf("%s %q: subquery_evals=%q shared_builds=%q route=%q, want %q, %q and %q",
				c.name, c.sql, got["subquery_evals"], got["shared_builds"], got["route"], c.evals, c.builds, c.route)
		}
		if c.route == "convolution" {
			spans := map[string]map[string]string{}
			for _, sp := range tr.JSON().Spans {
				spans[sp.Name] = map[string]string{}
				for _, a := range sp.Attrs {
					spans[sp.Name][a.Key] = a.Value
				}
			}
			// 9 two-way keys with values k and 60+k: sums 36 + 60j, j = 0…9.
			if conv := spans["convolution"]; conv["components"] != "9" || conv["fold_states"] != "10" || spans["merge_eval"] != nil {
				t.Errorf("%s %q: spans %v, want convolution over 9 components reaching 10 values and no merge", c.name, c.sql, spans)
			}
		}
		analyzed := c.db.MustExec("EXPLAIN ANALYZE " + c.sql).Msg
		for key, want := range map[string]string{"subquery_evals": c.evals, "shared_builds": c.builds} {
			if printed := strings.Contains(analyzed, key+"="); printed != (want != "") ||
				want != "" && !strings.Contains(analyzed, key+"="+want+"\n") {
				t.Errorf("%s EXPLAIN ANALYZE %q: want %s=%q printed iff set:\n%s", c.name, c.sql, key, want, analyzed)
			}
		}
	}
}
