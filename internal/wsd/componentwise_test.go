package wsd

// componentwise_test.go: the merge-free decomposition-aware execution
// path. The acceptance checks of the decomposition-aware planner live
// here: CONF/POSSIBLE/CERTAIN over a relation fed by k independent
// components (plus joins against certain relations) run with zero
// component merges — observed through MergeCount and ComponentCount — and
// produce the answers of the classic merge path and of the naive engine on
// the expanded world-set, compared as the sets they are (renderSet).

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"maybms/internal/core"
	"maybms/internal/obs"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
	"maybms/internal/tuple"
)

// takeApart is the front end's plain-SQL core and closure of a SELECT, as
// a probabilistic session takes it apart.
func takeApart(st *sqlparse.SelectStmt) (*sqlparse.SelectStmt, core.Closure, error) {
	q, err := core.TakeApart(st, true)
	return q.Core, q.Closure, err
}

// parseCore parses an I-SQL SELECT and strips its closure.
func parseCore(t *testing.T, sql string) (*sqlparse.SelectStmt, core.Closure) {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	q, cl, err := takeApart(stmt.(*sqlparse.SelectStmt))
	if err != nil {
		t.Fatalf("strip %q: %v", sql, err)
	}
	return q, cl
}

// renderRel renders a relation order-sensitively and bit-exactly.
func renderRel(r *relation.Relation) string {
	var b strings.Builder
	b.WriteString(r.Schema.String())
	for _, t := range r.Rows() {
		b.WriteString("\n")
		b.WriteString(fmt.Sprintf("%q", t.Key()))
	}
	return b.String()
}

// renderRelTol renders a relation with the trailing conf column rounded,
// for comparisons where the two paths accumulate floats in different
// orders (mathematically equal, last-ulp different).
func renderRelTol(t *testing.T, r *relation.Relation) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(r.Schema.String())
	for _, tp := range r.Rows() {
		b.WriteString("\n")
		b.WriteString(fmt.Sprintf("%q|conf=%.9f", tp[:len(tp)-1].Key(), tp[len(tp)-1].AsFloat()))
	}
	return b.String()
}

// renderSet renders a closed answer as the set it is: a closure carries no
// order, and the fold, the merge route and the naive engine each list theirs
// their own way (fold.go). The schema, then the rows of renderRel — or, with
// tol, of renderRelTol — sorted; a tuple listed twice stays twice, so equal
// renderings are equal duplicate-free sets under equal schemas.
func renderSet(t *testing.T, r *relation.Relation, tol bool) string {
	t.Helper()
	s := renderRel(r)
	if tol {
		s = renderRelTol(t, r)
	}
	lines := strings.Split(s, "\n")
	sort.Strings(lines[1:])
	return strings.Join(lines, "\n")
}

// analyzed compiles core against d and runs the component-touch analysis:
// the inputs route decides on, for tests that call a run function directly.
func analyzed(t *testing.T, d *WSD, core *sqlparse.SelectStmt) (*plan.ComponentAnalysis, evaluator) {
	t.Helper()
	prep, ev, err := d.prepared(core)
	if err != nil {
		t.Fatal(err)
	}
	an, err := d.analyze(prep)
	if err != nil {
		t.Fatal(err)
	}
	return an, ev
}

// selectMerged answers sql on the merge route whatever route would pick —
// the run function the router calls for plans that correlate components —
// as the reference for the merge-free routes.
func selectMerged(t *testing.T, d *WSD, sql string) *relation.Relation {
	t.Helper()
	core, cl := parseCore(t, sql)
	an, ev := analyzed(t, d, core)
	dec := decision{kind: routeMerge, comps: an.Comps}
	if len(an.Comps) == 0 {
		dec.kind = routeSingle // nothing to merge: the merge route's one evaluation
	}
	rel, err := d.run(dec, ev, cl, "")
	if err != nil {
		t.Fatalf("%q on the merge route: %v", sql, err)
	}
	return rel
}

// selectExplained is selectClosure plus the check that EXPLAIN names the
// route that runs: the first word of EXPLAIN's route line must be the route
// attribute the trace of the actual execution ends up with. A decomposable
// core's parts are checked against the per-alternative oracle first.
func selectExplained(t *testing.T, d *WSD, core *sqlparse.SelectStmt, cl core.Closure) (*relation.Relation, error) {
	t.Helper()
	checkTaggedParts(t, "select", d, core)
	var b strings.Builder
	if err := d.Predict(&b, withClosure(core, cl)); err != nil {
		t.Fatalf("EXPLAIN %q: %v", core, err)
	}
	explained := routeLine.FindStringSubmatch(b.String())[1]
	d.trace = obs.NewTrace(core.String())
	res, err := d.Run(withClosure(core, cl))
	var rel *relation.Relation
	if err == nil {
		rel = res.Groups[0].Rel
	}
	executed := ""
	for _, a := range d.trace.JSON().Attrs {
		if a.Key == "route" {
			executed = a.Value
		}
	}
	d.trace = nil
	if executed != explained {
		t.Errorf("%q: EXPLAIN says route %s, execution took %q", core, explained, executed)
	}
	return rel, err
}

// createTableMerged stores core as dst on the merge route.
func createTableMerged(t *testing.T, d *WSD, dst string, core *sqlparse.SelectStmt) {
	t.Helper()
	an, ev := analyzed(t, d, core)
	mi, err := d.mergeComponents(an.Comps)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := d.mergedParts(mi, ev)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.materializeByComponent(dst, parts); err != nil {
		t.Fatal(err)
	}
}

// selectOn runs the SELECT sql as a statement, its route noted.
func selectOn(t *testing.T, d *WSD, sql string) *relation.Relation {
	t.Helper()
	res, err := d.Exec(sql)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	return res.Groups[0].Rel
}

// TestComponentwiseNoMergeAcceptance is the acceptance check: closures
// over a relation fed by 3 independent components, including a join
// against a certain relation, execute with no component merge and match
// the merge path tuple for tuple.
func TestComponentwiseNoMergeAcceptance(t *testing.T) {
	queries := []string{
		"select possible A, B from I",
		"select certain A from I",
		"select possible I.A, R.C from I, R where I.B = R.B",
		"select possible A, B from I where B >= 15 order by B desc, A",
		"select possible distinct C from I union select C from R",
		"select conf, A, B from I",
		"select conf, I.A from I, R where I.C = R.C",
	}
	for _, q := range queries {
		fast, slow := newFigure2WSD(t), newFigure2WSD(t)
		fastRel := selectOn(t, fast, q)

		if got := fast.MergeCount(); got != 0 {
			t.Errorf("%q merged %d times on the componentwise path, want 0", q, got)
		}
		if got := fast.ComponentCount(); got != 3 {
			t.Errorf("%q restructured the decomposition to %d components, want 3 untouched", q, got)
		}
		if got := fast.RouteCounts()["componentwise"]; got != 1 {
			t.Errorf("%q componentwise count = %d, want 1", q, got)
		}

		slowRel := selectMerged(t, slow, q)
		if slow.MergeCount() == 0 {
			t.Errorf("%q did not merge on the merge route (bad baseline)", q)
		}
		tol := strings.Contains(q, "conf")
		if gotS, wantS := renderSet(t, fastRel, tol), renderSet(t, slowRel, tol); gotS != wantS {
			t.Errorf("%q diverged from the merge path:\n%s\nwant:\n%s", q, gotS, wantS)
		}
	}
}

// TestComponentwiseConfDyadic: with dyadic probabilities both paths'
// float arithmetic is exact, so conf answers are byte-identical too.
func TestComponentwiseConfDyadic(t *testing.T) {
	build := func() *WSD {
		d := New(true)
		r := relation.New(figure1R().Schema)
		r.MustAppend(row("a1", 10, "c1", 2))
		r.MustAppend(row("a1", 15, "c2", 6)) // weights 2,6 → 0.25, 0.75
		r.MustAppend(row("a2", 14, "c3", 4))
		r.MustAppend(row("a2", 20, "c4", 4)) // weights 4,4 → 0.5, 0.5
		r.MustAppend(row("a3", 20, "c5", 6)) // single → 1
		if err := d.PutCertain("R", r); err != nil {
			t.Fatal(err)
		}
		if err := d.repairByKey("R", "I", []string{"A"}, "D"); err != nil {
			t.Fatal(err)
		}
		return d
	}
	fast, slow := build(), build()
	q := "select conf, B from I"
	got := renderSet(t, selectOn(t, fast, q), false)
	want := renderSet(t, selectMerged(t, slow, q), false)
	if got != want {
		t.Fatalf("dyadic conf diverged:\n%s\nwant:\n%s", got, want)
	}
	if fast.MergeCount() != 0 {
		t.Fatal("componentwise conf merged")
	}
}

// TestComponentwiseScalesWithSum: k components of m alternatives each are
// closed with Σ = k·m + 1 evaluations and zero merges; the merge route
// multiplies them into m^k alternatives.
func TestComponentwiseScalesWithSum(t *testing.T) {
	const k, m = 8, 3
	build := func() *WSD {
		d := New(true)
		r := relation.New(figure1R().Schema.Project([]int{0, 1}))
		for g := 0; g < k; g++ {
			for v := 0; v < m; v++ {
				r.MustAppend(row(fmt.Sprintf("g%02d", g), v))
			}
		}
		if err := d.PutCertain("R", r); err != nil {
			t.Fatal(err)
		}
		if err := d.repairByKey("R", "I", []string{"A"}, ""); err != nil {
			t.Fatal(err)
		}
		return d
	}
	fast, slow := build(), build()

	q := "select conf, A, B from I"
	got := renderSet(t, selectOn(t, fast, q), true)
	want := renderSet(t, selectMerged(t, slow, q), true)
	if got != want {
		t.Fatalf("scaled conf diverged:\n%s\nwant:\n%s", got, want)
	}
	if fast.MergeCount() != 0 || fast.ComponentCount() != k {
		t.Fatalf("componentwise path merged (merges=%d, comps=%d)", fast.MergeCount(), fast.ComponentCount())
	}
	// The merge path collapsed k components into one with m^k alternatives.
	if slow.ComponentCount() != 1 || len(slow.comps[0].Alts) != int(math.Pow(m, k)) {
		t.Fatalf("merge path shape = %d comps, %d alts", slow.ComponentCount(), len(slow.comps[0].Alts))
	}
	// Each tuple appears in exactly one alternative of one component with
	// probability 1/m.
	for _, tp := range selectOn(t, fast, "select conf, A, B from I").Rows() {
		if c := tp[len(tp)-1].AsFloat(); math.Abs(c-1.0/m) > 1e-9 {
			t.Fatalf("conf = %v, want %v", c, 1.0/m)
		}
	}
}

// TestComponentwiseCreateTableAs: a projection of a multi-component
// relation materializes componentwise — no merge, linear representation —
// and downstream closures agree with the merge path tuple for tuple.
func TestComponentwiseCreateTableAs(t *testing.T) {
	fast, slow := newFigure2WSD(t), newFigure2WSD(t)
	core, _ := parseCore(t, "select A, B from I where B >= 14")
	if err := fast.createTableAs("HighB", core); err != nil {
		t.Fatal(err)
	}
	if fast.MergeCount() != 0 {
		t.Fatal("componentwise CTAS merged")
	}
	if fast.ComponentCount() != 3 {
		t.Fatalf("CTAS restructured to %d components", fast.ComponentCount())
	}
	createTableMerged(t, slow, "HighB", core)
	if slow.MergeCount() == 0 {
		t.Fatal("merge path did not merge (bad baseline)")
	}
	for _, q := range []string{
		"select possible A, B from HighB",
		"select certain A from HighB",
		"select conf, A, B from HighB",
	} {
		tol := strings.Contains(q, "conf")
		if got, want := renderSet(t, selectOn(t, fast, q), tol), renderSet(t, selectOn(t, slow, q), tol); got != want {
			t.Errorf("%q after CTAS diverged:\n%s\nwant:\n%s", q, got, want)
		}
	}
	// The componentwise materialization is linear: one contribution per
	// original alternative, no blowup.
	if got := fast.AlternativeCount(); got != 5 {
		t.Errorf("alternatives after componentwise CTAS = %d, want 5", got)
	}
	if err := fast.CheckInvariant(); err != nil {
		t.Error(err)
	}
}

// TestDistinctCTASCrossComponentDedup: per-world DISTINCT dedupes across
// components, which factored storage cannot represent — a multi-component
// DISTINCT materialization must route to the merge path and represent
// exactly the worlds a direct merged materialization does. (Regression: the
// analysis once kept the concat flag through Distinct, storing a row shared
// by two components twice.)
func TestDistinctCTASCrossComponentDedup(t *testing.T) {
	build := func(routed bool) *WSD {
		d := New(true)
		r := relation.New(schema.New("K", "V"))
		r.MustAppend(row("k1", 1))
		r.MustAppend(row("k1", 2))
		r.MustAppend(row("k2", 1)) // V=1 shared across both components
		if err := d.PutCertain("R", r); err != nil {
			t.Fatal(err)
		}
		if err := d.repairByKey("R", "I", []string{"K"}, ""); err != nil {
			t.Fatal(err)
		}
		core, _ := parseCore(t, "select distinct V from I")
		if !routed {
			createTableMerged(t, d, "D", core)
		} else if err := d.createTableAs("D", core); err != nil {
			t.Fatal(err)
		}
		return d
	}
	fast, slow := build(true), build(false)
	if fast.MergeCount() == 0 {
		t.Fatal("DISTINCT materialization over two components did not route to the merge path")
	}
	matchViews(t, wsdViews(t, slow, "D"), wsdViews(t, fast, "D"))
	// The world where k1 picks V=1 must hold D = {1}, not {1,1}: possible
	// per-world cardinalities are {1, 2} on both paths.
	for _, d := range []*WSD{fast, slow} {
		rel := selectOn(t, d, "select possible count(*) from D")
		if got := renderRel(rel); got != renderRel(selectOn(t, slow, "select possible count(*) from D")) {
			t.Fatalf("distinct CTAS cardinalities diverge: %s", got)
		}
		if rel.Len() != 2 {
			t.Fatalf("possible count(*) rows = %d, want 2 ({1,2})", rel.Len())
		}
	}
}

// TestPlainSelectSingleRemainingWorld: a plain SELECT over uncertain
// relations is answerable when every involved component has one remaining
// alternative (singleton key groups, or asserts narrowed the choices) —
// and must not merge to find that out.
func TestPlainSelectSingleRemainingWorld(t *testing.T) {
	// Singleton key groups: the repair is deterministic.
	d := New(true)
	r := relation.New(schema.New("K", "V"))
	r.MustAppend(row("k1", 1))
	r.MustAppend(row("k2", 2))
	if err := d.PutCertain("R", r); err != nil {
		t.Fatal(err)
	}
	if err := d.repairByKey("R", "I", []string{"K"}, ""); err != nil {
		t.Fatal(err)
	}
	rel := selectOn(t, d, "select K, V from I order by K")
	if rel.Len() != 2 || d.MergeCount() != 0 || d.ComponentCount() != 2 {
		t.Fatalf("singleton plain select: rows=%d merges=%d comps=%d", rel.Len(), d.MergeCount(), d.ComponentCount())
	}

	// Assert-narrowed: pin both repairs, then plain SELECT answers.
	d2 := newFigure2WSD(t)
	err := d2.assertStmt(mustCond(t, "exists (select * from I where B = 10) and exists (select * from I where B = 14)"))
	if err != nil {
		t.Fatal(err)
	}
	rel = selectOn(t, d2, "select A, B from I")
	if rel.Len() != 3 {
		t.Fatalf("narrowed plain select rows = %d, want 3", rel.Len())
	}
	// Still-uncertain answers come back as a conditional relation: one row
	// per alternative contribution, annotated with its condition.
	d3 := newFigure2WSD(t)
	res, err := d3.Exec("select A from I")
	if err != nil {
		t.Fatalf("uncertain plain select = %v, want conditional relation", err)
	}
	rel = res.Groups[0].Rel
	if got := rel.Schema.String(); !strings.HasSuffix(got, "cond)") {
		t.Fatalf("conditional relation schema = %q, want trailing cond column", got)
	}
	if rel.Len() != 5 {
		t.Fatalf("conditional relation rows = %d, want 5 (one per alternative)", rel.Len())
	}
	if d3.MergeCount() != 0 {
		t.Error("conditional relation answer merged")
	}
	if got := d3.RouteCounts()["conditional"]; got != 1 {
		t.Errorf("conditional count = %d, want 1", got)
	}
}

func mustCond(t *testing.T, cond string) sqlparse.Expr {
	t.Helper()
	stmt, err := sqlparse.Parse("assert " + cond)
	if err != nil {
		t.Fatal(err)
	}
	return stmt.(*sqlparse.Assert).Cond
}

func mustCore(t *testing.T, sql string) *sqlparse.SelectStmt {
	t.Helper()
	core, _ := parseCore(t, sql)
	return core
}

// TestComponentwiseFallbacks: plans that genuinely correlate components
// still merge (bounded), and world-dependent plain SELECTs fail without
// merging anything. A scalar SUM over them, alone or compared in Example
// 2.10's form, is folded by convolution instead, and merges nothing.
func TestComponentwiseFallbacks(t *testing.T) {
	// Aggregate over a multi-component relation: whole-input function,
	// must merge — unless it is a SUM or COUNT.
	d := newFigure2WSD(t)
	rel := selectOn(t, d, "select possible min(B) from I")
	if d.MergeCount() == 0 {
		t.Error("aggregate over 3 components must merge")
	}
	if rel.Len() != 3 {
		t.Errorf("possible minima = %d rows, want 3", rel.Len())
	}
	d = newFigure2WSD(t)
	rel = selectOn(t, d, "select possible sum(B) from I")
	if d.MergeCount() != 0 || d.ComponentCount() != 3 {
		t.Errorf("a scalar sum over 3 components merged: %d merges, %d components", d.MergeCount(), d.ComponentCount())
	}
	if rel.Len() != 4 {
		t.Errorf("possible sums = %d rows, want 4", rel.Len())
	}

	// Predicate subquery over uncertain data: couples rows to components.
	d2 := newFigure2WSD(t)
	_ = selectOn(t, d2, "select conf from I where 20 > (select min(B) from I)")
	if d2.MergeCount() == 0 {
		t.Error("uncertain predicate subquery must merge")
	}
	d2 = newFigure2WSD(t)
	rel = selectOn(t, d2, "select conf from I where 50 > (select sum(B) from I)")
	if d2.MergeCount() != 0 {
		t.Error("Example 2.10's sum must not merge")
	}
	if got := rel.Rows()[0][0].AsFloat(); math.Abs(got-4.0/9) > 1e-12 {
		t.Errorf("conf(sum(B) < 50) = %v, want 4/9", got)
	}

	// Plain SELECT over uncertain data: answered as a conditional relation
	// without merging; only non-concat shapes (here: an aggregate) refuse,
	// naming the uncertain relation.
	d3 := newFigure2WSD(t)
	core, cl := parseCore(t, "select A from I")
	if _, err := d3.selectClosure(core, cl); err != nil {
		t.Errorf("plain select over uncertain = %v, want conditional relation", err)
	}
	if d3.MergeCount() != 0 || d3.ComponentCount() != 3 {
		t.Error("a conditional relation answer must not merge")
	}
	core, cl = parseCore(t, "select sum(B) from I")
	_, err := d3.selectClosure(core, cl)
	if !errors.Is(err, ErrPerWorld) {
		t.Errorf("plain aggregate over uncertain = %v, want ErrPerWorld", err)
	}
	if err != nil && !strings.Contains(err.Error(), "uncertain I") {
		t.Errorf("refusal %q does not name the uncertain relation", err)
	}

	// Cross-component join: correlates two components, merges exactly the
	// involved ones.
	d4 := New(true)
	if err := d4.PutCertain("R", figure1R()); err != nil {
		t.Fatal(err)
	}
	if err := d4.repairByKey("R", "I", []string{"A"}, ""); err != nil {
		t.Fatal(err)
	}
	if err := d4.choiceOf("R", "P", []string{"C"}, ""); err != nil {
		t.Fatal(err)
	}
	before := d4.ComponentCount() // 3 repair components + 1 choice
	rel = selectOn(t, d4, "select possible I.A from I, P where I.C = P.C")
	if d4.MergeCount() == 0 {
		t.Error("cross-component join must merge")
	}
	if d4.ComponentCount() >= before {
		t.Errorf("merge did not restructure (%d -> %d components)", before, d4.ComponentCount())
	}
	if rel.Empty() {
		t.Error("cross-component join answer is empty")
	}
}

// TestClosureEmissionIsRepresentationOrder pins the one emission rule
// (fold.go): the SELECT closures and the conditional relation of one relation
// list its tuples in the stored representation's order — the certain part,
// then the contributions with components and alternatives ascending, each
// tuple where it first appears — over a flat, a nested and an imported
// decomposition.
func TestClosureEmissionIsRepresentationOrder(t *testing.T) {
	// nested: one choice component whose two alternatives hold three rows
	// each, repaired by the chosen attribute — a three-alternative child under
	// either alternative, beside Figure 2's flat repair.
	nested := newFigure2WSD(t)
	cand := relation.New(schema.New("G", "V"))
	for g := 0; g < 2; g++ {
		for v := 0; v < 3; v++ {
			cand.MustAppend(row(g, v))
		}
	}
	if err := nested.PutCertain("Cand", cand); err != nil {
		t.Fatal(err)
	}
	if err := nested.choiceOf("Cand", "U", []string{"G"}, ""); err != nil {
		t.Fatal(err)
	}
	if err := nested.repairByKey("U", "N", []string{"G"}, ""); err != nil {
		t.Fatal(err)
	}
	if nestedCount(nested) != 2 || nested.MergeCount() != 0 {
		t.Fatalf("fixture: %d nested components after %d merges, want 2 and 0", nestedCount(nested), nested.MergeCount())
	}
	// tuples lists r's distinct tuples, less the trailing drop columns, in
	// first-appearance order.
	tuples := func(r *relation.Relation, drop int) string {
		seen := map[string]bool{}
		var out []string
		for _, tp := range r.Rows() {
			if k := tp[:len(tp)-drop].Key(); !seen[k] {
				seen[k] = true
				out = append(out, fmt.Sprintf("%q", k))
			}
		}
		return strings.Join(out, "\n")
	}
	for _, c := range []struct {
		label string
		d     *WSD
		rel   string
	}{
		{"flat", newFigure2WSD(t), "I"},
		{"nested", nested, "N"},
		{"imported", importedWSD(t, 64), "B"},
	} {
		k := key(c.rel)
		stored := append([]tuple.Tuple(nil), c.d.certain[k].Rows()...)
		for _, comp := range c.d.comps {
			for _, a := range comp.Alts {
				stored = append(stored, a.Contrib[k].Rows()...)
			}
		}
		want := tuples(rowsRel(c.d.schemas[k], stored), 0)
		if n := strings.Count(want, "\n") + 1; n < 5 {
			t.Fatalf("%s fixture: %s stores %d distinct tuples, want at least 5", c.label, c.rel, n)
		}
		for _, q := range []struct {
			sql  string
			drop int // trailing conf or cond column
		}{
			{"select possible * from " + c.rel, 0},
			{"select *, conf from " + c.rel, 1},
			{"select * from " + c.rel, 1},
		} {
			if got := tuples(selectOn(t, c.d, q.sql), q.drop); got != want {
				t.Errorf("%s %q lists its tuples in another order than %s's representation:\n%s\nwant:\n%s", c.label, q.sql, c.rel, got, want)
			}
		}
		if c.d.MergeCount() != 0 {
			t.Errorf("%s: a closure merged", c.label)
		}
	}
}

// TestSingleComponentConfBitIdentical: a one-component closure's conf is
// the plain probability sum in alternative order — bit-identical to the
// naive engine even for non-dyadic weights.
func TestSingleComponentConfBitIdentical(t *testing.T) {
	s := core.NewSession(true)
	if err := s.Register("R", figure1R()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("create table P as select A, B, C, D from R choice of A weight D"); err != nil {
		t.Fatal(err)
	}
	d := New(true)
	if err := d.PutCertain("R", figure1R()); err != nil {
		t.Fatal(err)
	}
	if err := d.choiceOf("R", "P", []string{"A"}, "D"); err != nil {
		t.Fatal(err)
	}
	q := "select conf, A, B from P"
	res, err := s.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	got, want := renderRel(selectOn(t, d, q)), renderRel(res.Groups[0].Rel)
	if got != want {
		t.Fatalf("single-component conf not bit-identical:\n%s\nwant:\n%s", got, want)
	}
	if d.MergeCount() != 0 {
		t.Error("single-component conf merged")
	}
}

// TestAssertInterruptInsideIterators: a pure-certain ASSERT condition has
// no per-alternative poll points at all — only the algebra iterators can
// abort it — so this pins the interrupt threading through assertStmt.
func TestAssertInterruptInsideIterators(t *testing.T) {
	d := New(true)
	big := relation.New(figure1R().Schema.Project([]int{1}))
	for i := 0; i < 400; i++ {
		big.MustAppend(row(i))
	}
	if err := d.PutCertain("B", big); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	polls := 0
	d.interrupt = func() error {
		polls++
		if polls > 3 {
			return boom
		}
		return nil
	}
	err := d.assertStmt(mustCond(t, "exists (select * from B b1, B b2, B b3 where b1.B = -1)"))
	if !errors.Is(err, boom) {
		t.Fatalf("interrupted certain assert = %v, want boom", err)
	}
	if polls > 64 {
		t.Errorf("interrupt polled %d times before aborting", polls)
	}
}

// TestInterruptPolledPerBatchAndPiece: a componentwise CONF polls the hook
// from the drains of its two evaluations (once per batch of at most 1 024
// rows, the tagged delta's included) and from the fold (once per part), and
// the per-piece rewrite of an UPDATE before each piece, so a hook failing
// from its k-th poll stops either after at most k+1 polls, with the
// decomposition as it was: the schema of every relation, the stored
// representation and, over 10 components, its Expand multiset. Over 1000
// components the decomposition is far past any expansion.
func TestInterruptPolledPerBatchAndPiece(t *testing.T) {
	open := func(n int) *WSD {
		d := New(true)
		r := relation.New(schema.New("K", "V"))
		for k := 0; k < n; k++ {
			r.MustAppend(row(k, 0))
			r.MustAppend(row(k, 1))
		}
		if err := d.PutCertain("R", r); err != nil {
			t.Fatal(err)
		}
		if err := d.repairByKey("R", "I", []string{"K"}, ""); err != nil {
			t.Fatal(err)
		}
		return d
	}
	boom := errors.New("boom")
	failingFrom := func(k int) (func() error, *int) {
		polls := new(int)
		return func() error {
			*polls++
			if *polls >= k {
				return boom
			}
			return nil
		}, polls
	}
	for _, n := range []int{10, 1000} {
		for _, sql := range []string{"select K, conf from I", "update I set V = V + 1"} {
			hook, polls := failingFrom(math.MaxInt)
			if _, err := core.ExecTraced(open(n), sql, hook, nil); err != nil {
				t.Fatalf("%s over %d components: %v", sql, n, err)
			}
			total := *polls
			d := open(n)
			schemas, stored := schemaDigest(d), d.String()
			conf := closed(t, d, "select *, conf from I")
			var worlds []worldView
			if n <= 10 {
				worlds = wsdViews(t, d, "I")
			}
			for _, k := range []int{1, total / 5, total / 2, total - 1, total} {
				hook, polls := failingFrom(k)
				if _, err := core.ExecTraced(d, sql, hook, nil); !errors.Is(err, boom) {
					t.Fatalf("%s over %d components, failing from poll %d of %d: err = %v, want boom", sql, n, k, total, err)
				}
				if *polls > k+1 {
					t.Errorf("%s over %d components: a hook failing from poll %d was polled %d times", sql, n, k, *polls)
				}
				after := closed(t, d, "select *, conf from I")
				if schemaDigest(d) != schemas || d.String() != stored || renderRel(after) != renderRel(conf) {
					t.Fatalf("%s over %d components, failing from poll %d: the decomposition changed", sql, n, k)
				}
				if worlds != nil {
					matchViews(t, worlds, wsdViews(t, d, "I"))
				}
			}
		}
	}
}

// mustRelFromNaive extracts a relation from the naive session's first
// world (valid for certain relations).
func mustRelFromNaive(t *testing.T, s *core.Session, name string) *relation.Relation {
	t.Helper()
	rel, err := s.Set().Worlds[0].Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return rel.WithSchema(rel.Schema.Unqualify())
}
