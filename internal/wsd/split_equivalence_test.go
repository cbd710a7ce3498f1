package wsd

// Equivalence fuzzing for the component-splitting paths (repair/choice
// over uncertain sources, split.go) and the factorized CREATE TABLE AS of
// closed and grouped answers (select.go / groupworlds.go), against the
// naive enumerating engine.
//
// Two comparisons are made after every statement:
//
//  1. The represented world-set must equal the naive engine's as a
//     multiset of per-relation instances with probabilities (to 1e-9),
//     via Expand — the semantic bar.
//  2. Closure answers must equal, as duplicate-free sets under the same
//     schema (renderSet; conf values to 1e-9), those of a naive engine
//     enumerating the decomposition's own expansion, AND those of the
//     reference naive chain. A closed answer carries no order: the fold
//     lists it in representation order, the naive engine in
//     world-enumeration order.
//
// Both suites run under -race in CI.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"maybms/internal/core"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
)

// expandSession enumerates the decomposition into a naive session (the
// own-expansion reference for the closures).
func expandSession(t *testing.T, d *WSD) *core.Session {
	t.Helper()
	set, err := d.Expand(1 << 14)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewSessionFromSet(set)
}

// crosscheckSplitClosures compares the compact closures over rel against
// (a) the own-expansion session and (b) the reference naive chain, as sets
// (conf to 1e-9; see the package comment).
func crosscheckSplitClosures(t *testing.T, label string, s *core.Session, d *WSD, rel string) {
	t.Helper()
	ref := expandSession(t, d)
	for _, q := range []string{
		"select possible * from " + rel,
		"select certain * from " + rel,
		"select conf, * from " + rel,
	} {
		stmt, err := sqlparse.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		qcore, cl, err := takeApart(stmt.(*sqlparse.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		got, err := selectExplained(t, d, qcore, cl)
		if err != nil {
			t.Fatalf("%s compact %q: %v", label, q, err)
		}
		own, err := ref.Exec(q)
		if err != nil {
			t.Fatalf("%s own-expansion %q: %v", label, q, err)
		}
		g := renderSet(t, got, cl.IsConf())
		if w := renderSet(t, own.Groups[0].Rel, cl.IsConf()); g != w {
			t.Errorf("%s %q diverged from own expansion:\n%s\nwant:\n%s", label, q, g, w)
		}
		want, err := s.Exec(q)
		if err != nil {
			t.Fatalf("%s naive %q: %v", label, q, err)
		}
		if w := renderSet(t, want.Groups[0].Rel, cl.IsConf()); g != w {
			t.Errorf("%s %q diverged from naive chain:\n%s\nwant:\n%s", label, q, g, w)
		}
	}
}

// splitOp is one chained repair/choice statement applied to both engines.
type splitOp struct {
	naive string
	apply func(d *WSD, dst string) error
	// noMerge asserts the compact engine split without any component
	// merge (structurally guaranteed for keys that refine the source's
	// own grouping, and for single-component sources).
	noMerge bool
}

func repairOp(src string, keys []string, weight string, noMerge bool) splitOp {
	stmt := fmt.Sprintf("select K, V, W from %s repair by key %s", src, strings.Join(keys, ", "))
	if weight != "" {
		stmt += " weight " + weight
	}
	return splitOp{
		naive:   stmt,
		apply:   func(d *WSD, dst string) error { return d.repairByKey(src, dst, keys, weight) },
		noMerge: noMerge,
	}
}

func choiceOp(src string, attrs []string, weight string, noMerge bool) splitOp {
	stmt := fmt.Sprintf("select K, V, W from %s choice of %s", src, strings.Join(attrs, ", "))
	if weight != "" {
		stmt += " weight " + weight
	}
	return splitOp{
		naive:   stmt,
		apply:   func(d *WSD, dst string) error { return d.choiceOf(src, dst, attrs, weight) },
		noMerge: noMerge,
	}
}

// TestRepairUncertainEquivalenceFuzz chains randomized repair/choice
// statements over uncertain sources (repairs of repairs, repairs of
// choices, choices of repairs) on both engines and asserts world-multiset
// equality, byte-identical closures against the own expansion, sorted
// content equality against the naive chain (conf to 1e-9), and that the
// structurally merge-free statements really split with MergeCount
// unchanged. Run under -race in CI.
func TestRepairUncertainEquivalenceFuzz(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(52))
	for trial := 0; trial < 8; trial++ {
		s, d := fuzzPair(t, r)
		rels := []string{"I", "P"}
		for step := 0; step < 2+r.Intn(2); step++ {
			src := rels[r.Intn(len(rels))]
			dst := fmt.Sprintf("J%d", step)
			weight := ""
			if r.Intn(2) == 0 {
				weight = "W"
			}
			// Structurally merge-free statements: any repair or choice
			// over P (always fed by exactly one component), and K-prefixed
			// repairs of I (I's components contribute pairwise-disjoint K
			// values, an invariant every refinement preserves). Statements
			// over the chained J tables or with V-keys may cross
			// components depending on the data — no assertion there, the
			// key-crossing analysis decides.
			var op splitOp
			switch r.Intn(5) {
			case 0:
				op = repairOp(src, []string{"K"}, weight, src == "P" || src == "I")
			case 1:
				op = repairOp(src, []string{"K", "V"}, weight, src == "P" || src == "I")
			case 2:
				op = repairOp(src, []string{"V"}, weight, src == "P")
			case 3:
				op = choiceOp(src, []string{"K"}, weight, src == "P")
			default:
				op = choiceOp(src, []string{"V", "W"}, weight, src == "P")
			}
			if _, err := s.Exec(fmt.Sprintf("create table %s as %s", dst, op.naive)); err != nil {
				t.Fatalf("trial %d step %d naive %q: %v", trial, step, op.naive, err)
			}
			mergesBefore := d.MergeCount()
			if err := op.apply(d, dst); err != nil {
				t.Fatalf("trial %d step %d compact %q: %v", trial, step, op.naive, err)
			}
			if op.noMerge && d.MergeCount() != mergesBefore {
				t.Errorf("trial %d step %d %q merged on a split-safe statement", trial, step, op.naive)
			}
			if err := d.CheckInvariant(); err != nil {
				t.Fatalf("trial %d step %d %q: %v", trial, step, op.naive, err)
			}
			rels = append(rels, dst)
			for _, rel := range append([]string{"S"}, rels...) {
				matchViews(t, naiveViews(t, s, rel), wsdViews(t, d, rel))
			}
			crosscheckSplitClosures(t, fmt.Sprintf("trial %d step %d %q", trial, step, op.naive), s, d, dst)
		}
	}
}

// ctasStatements is the factorized CTAS equivalence corpus.
var ctasStatements = []struct {
	sql     string
	conf    bool // stored content carries a float conf column
	noMerge bool
}{
	{"create table D as select possible K, V from I", false, true},
	{"create table D as select certain K, V from I", false, true},
	{"create table D as select conf, K, V from I", true, true},
	{"create table D as select possible K, V from I group worlds by (select V from P)", false, true},
	{"create table D as select certain V, W from I group worlds by (select V from P)", false, true},
	{"create table D as select conf, K from I group worlds by (select V from P)", true, true},
	// Multi-component grouping subquery: the grouping components merge
	// (a world's group is a joint function of them), bounded.
	{"create table D as select possible V, W from P group worlds by (select K, V from I)", false, false},
	// Grouping and main query share components: residual merge.
	{"create table D as select possible K, V from I group worlds by (select K from I where V = 0)", false, false},
	{"create table D as select conf, K from I group worlds by (select V from I)", true, false},
	// Disjoint grouping, main query on the merge route: the main query's
	// merge of I's components moves P's index after P's groups formed.
	{"create table D as select possible sum(V) from I group worlds by (select V from P)", false, false},
	// Merge-path closure (aggregate over uncertain data), stored certain.
	{"create table D as select possible sum(V) from I", false, false},
	// World-independent grouping subquery: one group, stored certain.
	{"create table D as select possible K from I group worlds by (select Y from S)", false, true},
}

// TestFactorizedCTASEquivalenceFuzz materializes closed and grouped
// queries as tables on both engines and asserts the stored relations
// represent identical world-sets (byte-identical instances for
// possible/certain, conf values to 1e-9), that closures over the stored
// tables keep agreeing, and that the merge-free paths (decomposable
// closures, single-component grouping subqueries) run with MergeCount
// unchanged. Run under -race in CI.
func TestFactorizedCTASEquivalenceFuzz(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(53))
	for trial := 0; trial < 8; trial++ {
		for _, st := range ctasStatements {
			s, d := fuzzPair(t, r)
			if _, err := s.Exec(st.sql); err != nil {
				t.Fatalf("trial %d naive %q: %v", trial, st.sql, err)
			}
			parsed, err := sqlparse.Parse(st.sql)
			if err != nil {
				t.Fatal(err)
			}
			cta := parsed.(*sqlparse.CreateTableAs)
			qcore, cl, err := takeApart(cta.Query)
			if err != nil {
				t.Fatal(err)
			}
			gw := cta.Query.GroupWorlds
			mergesBefore := d.MergeCount()
			if err := d.createTableAsClosure(cta.Name, qcore, cl, gw); err != nil {
				t.Fatalf("trial %d compact %q: %v", trial, st.sql, err)
			}
			if st.noMerge && d.MergeCount() != mergesBefore {
				t.Errorf("trial %d %q merged on a merge-free CTAS path", trial, st.sql)
			}
			if err := d.CheckInvariant(); err != nil {
				t.Fatalf("trial %d %q: %v", trial, st.sql, err)
			}
			if st.conf {
				matchConfViews(t, s, d, "D")
			} else {
				matchViews(t, naiveViews(t, s, "D"), wsdViews(t, d, "D"))
				// Closure answers over the stored table are the naive chain's.
				for _, q := range []string{"select possible * from D", "select certain * from D"} {
					want, err := s.Exec(q)
					if err != nil {
						t.Fatalf("trial %d naive %q: %v", trial, q, err)
					}
					stmt2, err := sqlparse.Parse(q)
					if err != nil {
						t.Fatal(err)
					}
					c2, cl2, err := takeApart(stmt2.(*sqlparse.SelectStmt))
					if err != nil {
						t.Fatal(err)
					}
					got, err := d.selectClosure(c2, cl2)
					if err != nil {
						t.Fatalf("trial %d compact %q: %v", trial, q, err)
					}
					if g, w := renderSet(t, got, false), renderSet(t, want.Groups[0].Rel, false); g != w {
						t.Errorf("trial %d %q diverged:\n%s\nwant:\n%s", trial, q, g, w)
					}
				}
			}
		}
	}
}

// TestGroupedCTASAfterMainQueryMerge: a stored GROUP WORLDS BY whose main
// query is disjoint from the grouping query but merges two components listed
// before the grouping component. That merge moves the grouping component's
// index; each group's answer must still be stored in the grouping
// component's own alternatives, as the naive engine stores it.
func TestGroupedCTASAfterMainQueryMerge(t *testing.T) {
	m := relation.New(schema.New("K", "V", "W"))
	for k := 0; k < 2; k++ {
		m.MustAppend(row(k, k, 1))
		m.MustAppend(row(k, 10+k, 2))
	}
	g := relation.New(schema.New("K", "W"))
	g.MustAppend(row(0, 1))
	g.MustAppend(row(1, 3))

	s := core.NewSession(true)
	d := New(true)
	for name, base := range map[string]*relation.Relation{"MSrc": m, "GSrc": g} {
		if err := s.Register(name, base); err != nil {
			t.Fatal(err)
		}
		if err := d.PutCertain(name, base); err != nil {
			t.Fatal(err)
		}
	}
	for _, sql := range []string{
		"create table M as select K, V, W from MSrc repair by key K weight W",
		"create table G as select K, W from GSrc choice of K weight W",
		"create table X as select possible sum(V) from M group worlds by (select K from G)",
	} {
		if _, err := s.Exec(sql); err != nil {
			t.Fatalf("naive %q: %v", sql, err)
		}
	}
	if err := d.repairByKey("MSrc", "M", []string{"K"}, "W"); err != nil {
		t.Fatal(err)
	}
	if err := d.choiceOf("GSrc", "G", []string{"K"}, "W"); err != nil {
		t.Fatal(err)
	}
	if mc, gc := d.componentsFor("M"), d.componentsFor("G"); len(mc) != 2 || len(gc) != 1 || gc[0] <= mc[1] {
		t.Fatalf("fixture: M on components %v, G on %v; want G's index above M's two", mc, gc)
	}
	q, cl := parseCore(t, "select possible sum(V) from M")
	if err := d.createTableAsClosure("X", q, cl, mustCore(t, "select K from G")); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"M", "G", "X"} {
		matchViews(t, naiveViews(t, s, rel), wsdViews(t, d, rel))
	}
}

// condSatisfied evaluates a conditional relation's cond conjunction
// ("c<ID>=<a>,…", root first) under one world's digit vector. An
// inactive component (digit -1) satisfies no conjunct, matching the
// semantics: a nested pair's suffix applies only where its whole
// conditioning path is selected.
func condSatisfied(t *testing.T, cond string, ix *index, digits []int) bool {
	t.Helper()
	if cond == "" {
		return true
	}
	for _, term := range strings.Split(cond, ",") {
		var id, a int
		if _, err := fmt.Sscanf(term, "c%d=%d", &id, &a); err != nil {
			t.Fatalf("malformed cond term %q in %q: %v", term, cond, err)
		}
		if id < 0 || id >= len(ix.pos) || ix.position(id) < 0 {
			t.Fatalf("cond %q references unknown component %d", cond, id)
		}
		if digits[ix.position(id)] != a {
			return false
		}
	}
	return true
}

// checkConditionalRelation answers a plain per-world SELECT over rel as a
// conditional relation and decodes it world by world: under each
// expansion world's digit vector, the base rows plus the satisfied
// suffix rows must reproduce that world's per-world answer tuple for
// tuple, in order. The per-world reference materializes the query on the
// own-expansion session, whose world order is the digit order by
// construction (the naive chain's world multiset is matched separately).
// A relation the assert left certain answers without the cond column;
// every row is then a base row.
func checkConditionalRelation(t *testing.T, label string, s *core.Session, d *WSD, rel string) {
	t.Helper()
	checkConditionalQuery(t, label, d, "select K, V from "+rel)
}

// checkConditionalQuery is checkConditionalRelation's decode for the plain
// SELECT q.
func checkConditionalQuery(t *testing.T, label string, d *WSD, q string) {
	t.Helper()
	stmt, err := sqlparse.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	qcore, cl, err := takeApart(stmt.(*sqlparse.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	got, err := selectExplained(t, d, qcore, cl)
	if err != nil {
		t.Fatalf("%s conditional %q: %v", label, q, err)
	}
	// A query whose answer is world-independent (certain relation, or one
	// fed only by single-alternative components) comes back without the
	// cond column; every row is then a base row, and the per-world loop
	// below still verifies it against each world's answer.
	hasCond := got.Schema.Names()[got.Schema.Len()-1] == "cond"
	ref := expandSession(t, d)
	if _, err := ref.Exec("create table __q as " + q); err != nil {
		t.Fatalf("%s own-expansion per-world CTAS: %v", label, err)
	}
	// World wi of the expansion is the wi-th assignment of Expand's walk.
	var assignments [][]int
	idxs := make([]int, len(d.comps))
	for i := range idxs {
		idxs[i] = i
	}
	_ = d.walkAssignments(idxs, func(digits []int, _ float64) error {
		assignments = append(assignments, append([]int(nil), digits...))
		return nil
	})
	ix := d.index()
	for wi, w := range ref.Set().Worlds {
		want, err := w.Lookup("__q")
		if err != nil {
			t.Fatal(err)
		}
		digits := assignments[wi]
		var decoded []string
		for _, tp := range got.Rows() {
			if !hasCond {
				decoded = append(decoded, tp.Key())
				continue
			}
			if condSatisfied(t, tp[len(tp)-1].AsStr(), ix, digits) {
				decoded = append(decoded, tp[:len(tp)-1].Key())
			}
		}
		var naive []string
		for _, tp := range want.Rows() {
			naive = append(naive, tp.Key())
		}
		if fmt.Sprintf("%q", decoded) != fmt.Sprintf("%q", naive) {
			t.Errorf("%s world %d: conditional decode %q, per-world %q", label, wi, decoded, naive)
			return
		}
	}
}

// TestConditionalShapesEquivalenceFuzz drives the conditional-
// decomposition statement forms against the naive chain: repair/choice
// over filtered+projected sources (transient materialization via
// splitQuery), a durable ASSERT inside CREATE TABLE
// AS (filter + renormalize, then materialize), and plain per-world
// SELECTs answered as conditional relations. After every statement the
// world multisets match via Expand, the closures are byte-identical to
// the naive chain, the transient sources leave no trace in the catalog,
// and the conditional relation decodes to every expansion world's naive
// answer tuple for tuple. Run under -race in CI.
func TestConditionalShapesEquivalenceFuzz(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(54))
	for trial := 0; trial < 8; trial++ {
		s, d := fuzzPair(t, r)
		rels := []string{"I", "P"}
		ok := true
		for step := 0; ok && step < 2+r.Intn(2); step++ {
			src := rels[r.Intn(len(rels))]
			dst := fmt.Sprintf("Q%d", step)
			weight := ""
			if r.Intn(2) == 0 {
				weight = "W"
			}
			// One projection in three drops W from the select list, so a
			// weight W (or choice attr W) resolves against the source rows
			// beyond the projection — the naive engine's split-then-project
			// semantics, carried through the transient materialization.
			proj := []string{"K, V, W", "K, V, W", "K, V"}[r.Intn(3)]
			srcSQL := fmt.Sprintf("select %s from %s where V <= %d", proj, src, r.Intn(2))
			var stmtSQL string
			if r.Intn(2) == 0 {
				keys := [][]string{{"K"}, {"K", "V"}, {"V"}}[r.Intn(3)]
				stmtSQL = fmt.Sprintf("create table %s as %s repair by key %s", dst, srcSQL, strings.Join(keys, ", "))
				if weight != "" {
					stmtSQL += " weight " + weight
				}
			} else {
				attrs := [][]string{{"K"}, {"V", "W"}}[r.Intn(2)]
				stmtSQL = fmt.Sprintf("create table %s as %s choice of %s", dst, srcSQL, strings.Join(attrs, ", "))
				if weight != "" {
					stmtSQL += " weight " + weight
				}
			}
			_, nerr := s.Exec(stmtSQL)
			_, cerr := d.Exec(stmtSQL)
			if (nerr == nil) != (cerr == nil) {
				t.Fatalf("trial %d step %d %q: naive err %v, compact err %v", trial, step, stmtSQL, nerr, cerr)
			}
			if nerr != nil {
				// Both engines refused (e.g. the filtered source is empty in
				// some world); the trial ends here.
				ok = false
				break
			}
			label := fmt.Sprintf("trial %d step %d %q", trial, step, stmtSQL)
			if err := d.CheckInvariant(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if _, leaked := d.schemas[key("__src__"+dst)]; leaked {
				t.Fatalf("%s: transient source __src__%s leaked", label, dst)
			}
			rels = append(rels, dst)
			for _, rel := range append([]string{"S"}, rels...) {
				matchViews(t, naiveViews(t, s, rel), wsdViews(t, d, rel))
			}
			crosscheckSplitClosures(t, label, s, d, dst)
			checkConditionalRelation(t, label, s, d, dst)
		}
		if !ok {
			continue
		}
		// Durable assert inside CREATE TABLE AS: the naive engine
		// materializes per world then filters + renormalizes; the compact
		// engine filters first (the world filter commutes with per-world
		// evaluation) and materializes on the survivors.
		assertSQL := fmt.Sprintf("create table XA as select K, V from I assert exists (select * from I where V = %d and K = 0)", r.Intn(2))
		parsed, err := sqlparse.Parse(assertSQL)
		if err != nil {
			t.Fatal(err)
		}
		cta := parsed.(*sqlparse.CreateTableAs)
		_, nerr := s.Exec(assertSQL)
		cerr := d.assertStmt(cta.Query.Assert)
		if cerr == nil {
			qc := *cta.Query
			qc.Assert = nil
			cerr = d.createTableAs("XA", &qc)
		}
		if (nerr == nil) != (cerr == nil) {
			t.Fatalf("trial %d %q: naive err %v, compact err %v", trial, assertSQL, nerr, cerr)
		}
		if nerr != nil {
			continue // both engines refused (assert eliminated every world)
		}
		label := fmt.Sprintf("trial %d %q", trial, assertSQL)
		if err := d.CheckInvariant(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for _, rel := range append([]string{"S", "XA"}, rels...) {
			matchViews(t, naiveViews(t, s, rel), wsdViews(t, d, rel))
		}
		crosscheckSplitClosures(t, label, s, d, "XA")
		checkConditionalRelation(t, label, s, d, "XA")
	}
}

// TestSplitColumnsResolveByPosition: a query source's split columns resolve
// once, against its FROM/WHERE rows, and the compact engine carries each to
// the select item reading it, whatever that item is called: an item aliased
// to a split column's name is not that column, a qualified item is, and so
// is an aliased weight. Over a certain source and an uncertain one, the
// world multiset and the closures match the naive engine's.
func TestSplitColumnsResolveByPosition(t *testing.T) {
	t.Parallel()
	setup := []string{
		"create table R (A, B, W)",
		"insert into R values (0, 1, 1)",
		"insert into R values (0, 2, 3)",
		"insert into R values (1, 5, 2)",
		"insert into R values (2, 5, 1)",
		"create table U as select * from R repair by key B weight W",
	}
	for _, src := range []string{"R", "U"} {
		for _, split := range []string{
			"select B as A, A as B from %s repair by key A",
			"select B as A from %s repair by key A weight W",
			"select %[1]s.A, B from %[1]s repair by key A",
			"select A, W as X from %s repair by key A weight W",
			"select x.B as A, x.A as W from %s x repair by key A weight W",
			"select B as A, W from %s choice of A weight W",
			"select B as C, * from %s repair by key A weight W",
		} {
			stmt := "create table T as " + fmt.Sprintf(split, src)
			s, d := core.NewSession(true), New(true)
			for _, sql := range append(setup, stmt) {
				if _, err := s.Exec(sql); err != nil {
					t.Fatalf("naive %q: %v", sql, err)
				}
				if _, err := d.Exec(sql); err != nil {
					t.Fatalf("compact %q: %v", sql, err)
				}
			}
			if err := d.CheckInvariant(); err != nil {
				t.Fatalf("%q: %v", stmt, err)
			}
			if s.WorldCount() != int(d.WorldCount().Int64()) {
				t.Errorf("%q: naive %d worlds, compact %s", stmt, s.WorldCount(), d.WorldCount())
			}
			matchViews(t, naiveViews(t, s, "T"), wsdViews(t, d, "T"))
			crosscheckSplitClosures(t, stmt, s, d, "T")
		}
		// An alias that repeats another item's name is refused by both
		// engines alike: the select list is what T would store.
		stmt := fmt.Sprintf("create table T as select B as A, A from %s repair by key A", src)
		s, d := core.NewSession(true), New(true)
		for _, sql := range setup {
			if _, err := s.Exec(sql); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Exec(sql); err != nil {
				t.Fatal(err)
			}
		}
		_, nerr := s.Exec(stmt)
		_, cerr := d.Exec(stmt)
		if nerr == nil || cerr == nil || nerr.Error() != cerr.Error() {
			t.Errorf("%q: naive err %v, compact err %v, want one refusal", stmt, nerr, cerr)
		}
	}
}

// matchConfViews matches the two engines' world multisets of relation rel
// when its content carries a trailing float conf column: instances are
// compared with the conf values rounded to 9 decimals (the engines
// accumulate the sums in different orders) and world probabilities to
// 1e-9.
func matchConfViews(t *testing.T, s *core.Session, d *WSD, rel string) {
	t.Helper()
	render := func(r *relation.Relation) string { return renderSet(t, r, true) }
	want := make([]worldView, 0, s.WorldCount())
	for _, w := range s.Set().Worlds {
		r, err := w.Lookup(rel)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, worldView{key: render(r), prob: w.Prob})
	}
	set, err := d.Expand(1 << 14)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]worldView, 0, set.Len())
	for _, w := range set.Worlds {
		r, err := w.Lookup(rel)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, worldView{key: render(r), prob: w.Prob})
	}
	matchViews(t, want, got)
}
