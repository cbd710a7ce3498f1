package wsd

// equivalence_test.go checks that the compact WSD engine and the naive
// enumerating engine (internal/core) agree: same worlds, same
// probabilities, same confidences — on the paper's data and on randomized
// inputs.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"maybms/internal/core"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
	"maybms/internal/tuple"
	"maybms/internal/world"
)

type worldView struct {
	key  string
	prob float64
}

func naiveViews(t *testing.T, s *core.Session, rel string) []worldView {
	t.Helper()
	out := make([]worldView, 0, s.WorldCount())
	for _, w := range s.Set().Worlds {
		r, err := w.Lookup(rel)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, worldView{key: fmt.Sprintf("%x", r.Fingerprint()), prob: w.Prob})
	}
	return out
}

func wsdViews(t *testing.T, d *WSD, rel string) []worldView {
	t.Helper()
	set, err := d.Expand(1 << 14)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]worldView, 0, set.Len())
	for _, w := range set.Worlds {
		r, err := w.Lookup(rel)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, worldView{key: fmt.Sprintf("%x", r.Fingerprint()), prob: w.Prob})
	}
	return out
}

// matchViews verifies the two world multisets agree, including
// probabilities (matching greedily by fingerprint).
func matchViews(t *testing.T, a, b []worldView) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("world counts differ: %d vs %d", len(a), len(b))
	}
	used := make([]bool, len(b))
	for _, av := range a {
		found := false
		for j, bv := range b {
			if !used[j] && av.key == bv.key && math.Abs(av.prob-bv.prob) < 1e-9 {
				used[j] = true
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no matching world for fingerprint %s (p=%g)", av.key, av.prob)
		}
	}
}

// randomKeyedRelation builds a relation with nGroups key groups of sizes
// 1..maxPerGroup and random positive weights.
func randomKeyedRelation(r *rand.Rand, nGroups, maxPerGroup int) *relation.Relation {
	rel := relation.New(schema.New("K", "V", "W"))
	for k := 0; k < nGroups; k++ {
		size := 1 + r.Intn(maxPerGroup)
		for v := 0; v < size; v++ {
			rel.MustAppend(row(k, v, 1+r.Intn(9)))
		}
	}
	return rel
}

func TestRepairEquivalenceOnFigure2(t *testing.T) {
	t.Parallel()
	// Naive engine.
	s := core.NewSession(true)
	if err := s.Register("R", figure1R()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("create table I as select A, B, C, D from R repair by key A weight D"); err != nil {
		t.Fatal(err)
	}
	// WSD engine.
	d := newFigure2WSD(t)

	matchViews(t, naiveViews(t, s, "I"), wsdViews(t, d, "I"))
}

func TestRepairEquivalenceRandomized(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		rel := randomKeyedRelation(r, 1+r.Intn(4), 3)
		weight := ""
		if r.Intn(2) == 0 {
			weight = "W"
		}

		s := core.NewSession(true)
		if err := s.Register("R", rel); err != nil {
			t.Fatal(err)
		}
		q := "create table I as select K, V, W from R repair by key K"
		if weight != "" {
			q += " weight W"
		}
		if _, err := s.Exec(q); err != nil {
			t.Fatal(err)
		}

		d := New(true)
		if err := d.PutCertain("R", rel); err != nil {
			t.Fatal(err)
		}
		if err := d.repairByKey("R", "I", []string{"K"}, weight); err != nil {
			t.Fatal(err)
		}

		matchViews(t, naiveViews(t, s, "I"), wsdViews(t, d, "I"))

		// Tuple confidences agree with the naive conf query.
		res, err := s.Exec("select K, V, W, conf from I")
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range res.Groups[0].Rel.Rows() {
			base := tp[:3]
			want := tp[3].AsFloat()
			got, err := tupleConf(d, "I", base)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d: conf(%v) = %g (WSD) vs %g (naive)", trial, base, got, want)
			}
		}
	}
}

func TestChoiceEquivalenceRandomized(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 25; trial++ {
		rel := randomKeyedRelation(r, 2+r.Intn(3), 3)
		weight := ""
		if r.Intn(2) == 0 {
			weight = "W"
		}

		s := core.NewSession(true)
		if err := s.Register("R", rel); err != nil {
			t.Fatal(err)
		}
		q := "create table P as select K, V, W from R choice of K"
		if weight != "" {
			q += " weight W"
		}
		if _, err := s.Exec(q); err != nil {
			t.Fatal(err)
		}

		d := New(true)
		if err := d.PutCertain("R", rel); err != nil {
			t.Fatal(err)
		}
		if err := d.choiceOf("R", "P", []string{"K"}, weight); err != nil {
			t.Fatal(err)
		}

		matchViews(t, naiveViews(t, s, "P"), wsdViews(t, d, "P"))
	}
}

// keyedTables are the keyed-join fixtures: F, a certain table whose join
// keys mix ints with the floats `=` equates them to, −0 and NULL, and FR, the
// source of G — repaired by K into alternatives with NULL and float keys.
func keyedTables() (f, fr *relation.Relation) {
	f = relation.New(schema.New("V", "Z"))
	for _, t := range []tuple.Tuple{row(math.Copysign(0, -1), "z0"), row(1, "z1"), row(2.0, "z2"), row(nil, "zn"), row(1.0, "z1f")} {
		f.MustAppend(t)
	}
	fr = relation.New(schema.New("K", "V", "W"))
	for _, t := range []tuple.Tuple{row(0, 0.0, 1), row(0, nil, 2), row(1, 1, 1), row(1, 2.0, 3), row(2, nil, 1)} {
		fr.MustAppend(t)
	}
	return f, fr
}

// componentwiseQueries is the componentwise equivalence corpus.
var componentwiseQueries = []struct {
	sql           string
	componentwise bool // must run with no merge
}{
	{"select possible K, V from I", true},
	{"select certain K, V from I", true},
	{"select conf, K, V from I", true},
	{"select possible K from I where V >= 1", true},
	{"select certain distinct K from I", true},
	{"select possible V from I order by V desc", true},
	{"select possible I.K, S.Y from I, S where I.V = S.V", true},
	{"select possible S.Y, I.K from S, I where S.V = I.V", true},
	{"select conf, I.K from I, S where I.V = S.V", true},
	{"select possible K, V from I union select K, V from P", true},
	{"select conf, K from I where V >= (select min(V) from S)", true},
	{"select possible I.K, F.Z from I, F where I.V = F.V", true},
	{"select conf, F.Z from F, I where F.V = I.V and I.K >= 1", true},
	{"select certain I.K from I, S where I.V = S.V and S.Y <> 'y1'", true},
	{"select possible G.K, F.Z from G, F where G.V = F.V", true},
	{"select conf, G.K, S.Y from G, S where G.V = S.V and G.K <> 2", true},
	{"select possible a.K, b.K from P a, P b where a.V = b.V", true},
	{"select possible I.K from I, S, F where I.V = S.V and S.V = F.V", true},
	// Merge fallbacks: still must agree with the naive engine.
	{"select possible sum(V) from I", false},
	{"select possible I.K from I, P where I.V = P.V", false},
	{"select conf from I where exists (select * from I where V = 0)", false},
}

// TestComponentwiseEquivalenceFuzz builds random decompositions (repair
// and choice components over random base tables, plus a certain lookup
// table), runs the same I-SQL through the naive enumerating engine and the
// decomposition-aware executor, and asserts identical results — the same
// duplicate-free tuple set under the same schema (renderSet: a closed answer
// carries no order) for possible/certain and for the tuple part of conf
// answers; conf values themselves are compared to 1e-9, because
// the componentwise path computes 1 − Π(1 − p_c) where the naive engine
// sums world probabilities (mathematically equal, floating-point
// accumulation order differs). Queries cover both the merge-free
// componentwise path (single-source closures, joins against certain
// relations from either side — hash joins on NULL and mixed int/float keys,
// keys projected away, filters sunk onto either side, a self-join within one
// component — filters, order by, distinct, union) and the merge fallback
// (cross-component joins, aggregates, predicate subqueries); the
// componentwise-eligible ones are asserted to have executed with zero
// merges. Run under -race in CI.
func TestComponentwiseEquivalenceFuzz(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(46))
	for trial := 0; trial < 12; trial++ {
		rel := randomKeyedRelation(r, 1+r.Intn(3), 3)
		choiceRel := randomKeyedRelation(r, 2, 2)
		lookup := relation.New(schema.New("V", "Y"))
		for v := 0; v < 3; v++ {
			lookup.MustAppend(row(v, fmt.Sprintf("y%d", v)))
		}
		weight := ""
		if r.Intn(2) == 0 {
			weight = "W"
		}
		f, fr := keyedTables()
		bases := map[string]*relation.Relation{"R": rel, "C": choiceRel, "S": lookup, "F": f, "FR": fr}

		// Naive session.
		s := core.NewSession(true)
		for name, base := range bases {
			if err := s.Register(name, base); err != nil {
				t.Fatal(err)
			}
		}
		repairStmt := "create table I as select K, V, W from R repair by key K"
		if weight != "" {
			repairStmt += " weight W"
		}
		if _, err := s.Exec(repairStmt); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Exec("create table P as select K, V, W from C choice of K"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Exec("create table G as select K, V, W from FR repair by key K weight W"); err != nil {
			t.Fatal(err)
		}

		// Decomposition.
		d := New(true)
		for name, base := range bases {
			if err := d.PutCertain(name, base); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.repairByKey("R", "I", []string{"K"}, weight); err != nil {
			t.Fatal(err)
		}
		if err := d.choiceOf("C", "P", []string{"K"}, ""); err != nil {
			t.Fatal(err)
		}
		if err := d.repairByKey("FR", "G", []string{"K"}, "W"); err != nil {
			t.Fatal(err)
		}

		for _, q := range componentwiseQueries {
			want, err := s.Exec(q.sql)
			if err != nil {
				t.Fatalf("trial %d naive %q: %v", trial, q.sql, err)
			}
			stmt, err := sqlparse.Parse(q.sql)
			if err != nil {
				t.Fatal(err)
			}
			qcore, cl, err := takeApart(stmt.(*sqlparse.SelectStmt))
			if err != nil {
				t.Fatal(err)
			}
			mergesBefore := d.MergeCount()
			got, err := selectExplained(t, d, qcore, cl)
			if err != nil {
				t.Fatalf("trial %d compact %q: %v", trial, q.sql, err)
			}
			if q.componentwise && d.MergeCount() != mergesBefore {
				t.Errorf("trial %d %q merged on the componentwise path", trial, q.sql)
			}
			if g, w := renderSet(t, got, cl.IsConf()), renderSet(t, want.Groups[0].Rel, cl.IsConf()); g != w {
				t.Errorf("trial %d %q diverged from naive:\n%s\nwant:\n%s", trial, q.sql, g, w)
			}
		}
	}
}

// fuzzPair builds a naive session and a decomposition over identical
// content: a repaired table I (components from R's key groups), a choice
// table P (one component from C) and a certain lookup table S.
func fuzzPair(t *testing.T, r *rand.Rand) (*core.Session, *WSD) {
	t.Helper()
	rel := randomKeyedRelation(r, 1+r.Intn(3), 3)
	choiceRel := randomKeyedRelation(r, 2, 2)
	lookup := relation.New(schema.New("V", "Y"))
	for v := 0; v < 3; v++ {
		lookup.MustAppend(row(v, fmt.Sprintf("y%d", v)))
	}
	weight := ""
	if r.Intn(2) == 0 {
		weight = "W"
	}

	s := core.NewSession(true)
	for name, base := range map[string]*relation.Relation{"R": rel, "C": choiceRel, "S": lookup} {
		if err := s.Register(name, base); err != nil {
			t.Fatal(err)
		}
	}
	repairStmt := "create table I as select K, V, W from R repair by key K"
	if weight != "" {
		repairStmt += " weight W"
	}
	if _, err := s.Exec(repairStmt); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("create table P as select K, V, W from C choice of K"); err != nil {
		t.Fatal(err)
	}

	d := New(true)
	for name, base := range map[string]*relation.Relation{"R": rel, "C": choiceRel, "S": lookup} {
		if err := d.PutCertain(name, base); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.repairByKey("R", "I", []string{"K"}, weight); err != nil {
		t.Fatal(err)
	}
	if err := d.choiceOf("C", "P", []string{"K"}, ""); err != nil {
		t.Fatal(err)
	}
	return s, d
}

// crosscheckClosures asserts the two engines agree on the standard
// closure queries over I — byte-identical possible/certain (order
// included), conf to 1e-9.
func crosscheckClosures(t *testing.T, trial int, label string, s *core.Session, d *WSD) {
	t.Helper()
	for _, sql := range []string{
		"select possible K, V, W from I",
		"select certain K, V from I",
		"select conf, K, V from I",
	} {
		want, err := s.Exec(sql)
		if err != nil {
			t.Fatalf("trial %d %s naive %q: %v", trial, label, sql, err)
		}
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		qcore, cl, err := takeApart(stmt.(*sqlparse.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		checkTaggedParts(t, fmt.Sprintf("trial %d %s", trial, label), d, qcore)
		got, err := d.selectClosure(qcore, cl)
		if err != nil {
			t.Fatalf("trial %d %s compact %q: %v", trial, label, sql, err)
		}
		if g, w := renderSet(t, got, cl.IsConf()), renderSet(t, want.Groups[0].Rel, cl.IsConf()); g != w {
			t.Errorf("trial %d %s %q diverged from naive:\n%s\nwant:\n%s", trial, label, sql, g, w)
		}
	}
}

// dmlStatements is the DML equivalence corpus.
var dmlStatements = []struct {
	sql           string
	componentwise bool // must run with no merge on the compact engine
}{
	{"update I set V = V + 10 where K = 0", true},
	{"update I set W = W * 2", true},
	{"update S set Y = 'zz' where V = 1", true},
	{"update I set V = V + (select min(V) from S) where K >= 1", true},
	{"delete from I where V >= 2 and K = 0", true},
	{"delete from S where V = 0", true},
	{"update P set V = V + 100 where W >= 1", true},
	// Expressions over uncertain relations couple rows to component
	// choices: the involved components merge (bounded), and the engines
	// must still agree.
	{"delete from I where exists (select * from P where W >= 2)", false},
	{"update I set V = 0 where V <= (select max(V) from P)", false},
	// J is IMPORTed, so its certain part and its contributions are
	// columnar on both engines: these rewrite batches, not tuples.
	{"update J set V = V + 10 where K < 10", true},
	{"update J set V = 0, W = W * 2 where V is null or K >= 25", true},
	{"delete from J where V >= 3 and K > 20", true},
	{"delete from J where K = (select min(V) from S) + 3", true},
	{"update J set V = V - 1 where V <= (select max(V) from P)", false},
}

// TestDMLEquivalenceFuzz runs randomized UPDATE/DELETE statements through
// the naive enumerating engine and the compact executor over identical
// content, asserting the represented world-sets stay identical (world
// multiset of fingerprints and probabilities via Expand) and the closure
// queries keep agreeing byte for byte after every statement. Statements
// whose SET/WHERE expressions read no uncertain data must execute with
// zero component merges — the per-alternative piece rewrite — even when
// the target relation is uncertain; only WHERE clauses with subqueries
// over uncertain relations may merge. Run under -race in CI.
func TestDMLEquivalenceFuzz(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(47))
	nestedDrops := 0
	for trial := 0; trial < 10; trial++ {
		s, d := fuzzPair(t, r)
		importTarget(t, rand.New(rand.NewSource(int64(trial))), s, d)
		for i := 0; i < 6; i++ {
			st := dmlStatements[r.Intn(len(dmlStatements))]
			if _, err := s.Exec(st.sql); err != nil {
				t.Fatalf("trial %d naive %q: %v", trial, st.sql, err)
			}
			mergesBefore := d.MergeCount()
			if _, err := d.Exec(st.sql); err != nil {
				t.Fatalf("trial %d compact %q: %v", trial, st.sql, err)
			}
			if st.componentwise && d.MergeCount() != mergesBefore {
				t.Errorf("trial %d %q merged on the componentwise DML path", trial, st.sql)
			}
			for _, rel := range []string{"I", "P", "S", "J"} {
				matchViews(t, naiveViews(t, s, rel), wsdViews(t, d, rel))
			}
			crosscheckClosures(t, trial, st.sql, s, d)
		}
		// DROP keeps every world on both engines: of a nested relation (a
		// repair of I, its components hung under I's alternatives), then of
		// the flat I itself.
		for _, sql := range []string{
			"create table N as select * from I repair by key V",
			"drop table N",
			"drop table I",
		} {
			if _, err := s.Exec(sql); err != nil {
				t.Fatalf("trial %d naive %q: %v", trial, sql, err)
			}
			if _, err := d.Exec(sql); err != nil {
				t.Fatalf("trial %d compact %q: %v", trial, sql, err)
			}
			if err := d.CheckInvariant(); err != nil {
				t.Fatalf("trial %d %q: %v", trial, sql, err)
			}
			if sql == "drop table N" && nestedCount(d) > 0 {
				nestedDrops++
			}
			expanded, err := d.Expand(1 << 14)
			if err != nil {
				t.Fatal(err)
			}
			matchViews(t, wholeWorlds(s.Set().Worlds), wholeWorlds(expanded.Worlds))
		}
	}
	if nestedDrops == 0 {
		t.Error("no trial dropped a nested relation")
	}
}

// importTarget IMPORTs a table J(K, V, W) into both engines: 30 keys, some
// V cells NULL, and one or two keys given a conflicting second row, which
// become repair alternatives. It checks that J is stored columnar on both.
func importTarget(t *testing.T, r *rand.Rand, s *core.Session, d *WSD) {
	t.Helper()
	var b strings.Builder
	b.WriteString("K,V,W\n")
	conflicts := map[int]bool{r.Intn(30): true, r.Intn(30): true}
	for k := 0; k < 30; k++ {
		for n := 0; n < 1 || (n < 2 && conflicts[k]); n++ {
			v := fmt.Sprint(r.Intn(6))
			if r.Intn(5) == 0 {
				v = ""
			}
			fmt.Fprintf(&b, "%d,%s,%d\n", k, v, 1+r.Intn(4))
		}
	}
	path := filepath.Join(t.TempDir(), "j.csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	stmt := fmt.Sprintf("import into J from '%s' repair key (K) weight W", strings.ReplaceAll(path, "'", "''"))
	if _, err := s.Exec(stmt); err != nil {
		t.Fatalf("naive %q: %v", stmt, err)
	}
	if _, err := d.Exec(stmt); err != nil {
		t.Fatalf("compact %q: %v", stmt, err)
	}
	naive, err := s.Set().Worlds[0].Lookup("J")
	if err != nil {
		t.Fatal(err)
	}
	if naive.Batch().RowBacked() || d.certain[key("J")].Batch().RowBacked() {
		t.Fatal("setup: an imported J is row-backed")
	}
}

// wholeWorlds views each world whole: every relation's name and instance,
// with the world's probability.
func wholeWorlds(worlds []*world.World) []worldView {
	out := make([]worldView, 0, len(worlds))
	for _, w := range worlds {
		var b strings.Builder
		for _, name := range w.Names() {
			rel, _ := w.Lookup(name)
			fmt.Fprintf(&b, "%s=%x ", strings.ToLower(name), rel.Fingerprint())
		}
		out = append(out, worldView{key: b.String(), prob: w.Prob})
	}
	return out
}

// groupWorldsQueries is the GROUP WORLDS BY equivalence corpus.
var groupWorldsQueries = []struct {
	sql           string
	componentwise bool // must run with no merge
}{
	{"select possible K, V from I group worlds by (select V from P)", true},
	{"select certain K, V from I group worlds by (select V from P)", true},
	{"select conf, K, V from I group worlds by (select V from P)", true},
	// Multi-component grouping plan: the frontier fold combines the
	// per-component answer fingerprints of every repair component.
	{"select conf, V from P group worlds by (select K, V from I)", true},
	{"select possible V, W from P group worlds by (select K from I where V >= 1)", true},
	// World-independent grouping query: one group, the plain closure.
	{"select possible K from I group worlds by (select Y from S)", true},
	// Certain-data subquery in the main query stays componentwise.
	{"select conf, K from I where V >= (select min(V) from S) group worlds by (select V from P)", true},
	// The grouping and main plans share components: bounded residual
	// merge, still equivalent.
	{"select possible K, V from I group worlds by (select K from I where V = 0)", false},
	{"select conf, K from I group worlds by (select V from I)", false},
	// Non-decomposable grouping plan (aggregate over uncertain data):
	// its components merge, the main query stays componentwise.
	{"select possible V from P group worlds by (select sum(V) from I)", false},
}

// TestGroupWorldsEquivalenceFuzz runs randomized GROUP WORLDS BY
// statements through both engines: same group count and order, group
// probabilities to 1e-9, the same possible/certain group answers as sets
// (renderSet) and conf answers to 1e-9. Statements whose grouping
// plan decomposes and touches no component of the main query must group
// via the per-component fingerprint fold with zero merges; only grouped
// queries genuinely spanning components (shared components between the
// grouping and main plans, or a non-decomposable grouping plan) may fall
// back to the bounded residual merge. Run under -race in CI.
func TestGroupWorldsEquivalenceFuzz(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(48))
	for trial := 0; trial < 10; trial++ {
		for _, q := range groupWorldsQueries {
			// Fresh pair per query: merges restructure the decomposition.
			s, d := fuzzPair(t, r)
			want, err := s.Exec(q.sql)
			if err != nil {
				t.Fatalf("trial %d naive %q: %v", trial, q.sql, err)
			}
			stmt, err := sqlparse.Parse(q.sql)
			if err != nil {
				t.Fatal(err)
			}
			sel := stmt.(*sqlparse.SelectStmt)
			gw := sel.GroupWorlds
			qcore, cl, err := takeApart(sel)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("trial %d %q", trial, q.sql)
			checkTaggedParts(t, label+" grouping", d, gw)
			checkTaggedParts(t, label+" main", d, qcore)
			mergesBefore := d.MergeCount()
			got, err := d.groupWorldsClosure(gw, qcore, cl)
			if err != nil {
				t.Fatalf("trial %d compact %q: %v", trial, q.sql, err)
			}
			if q.componentwise && d.MergeCount() != mergesBefore {
				t.Errorf("trial %d %q merged on the componentwise grouping path", trial, q.sql)
			}
			if len(got) != len(want.Groups) {
				t.Errorf("trial %d %q: %d groups, want %d", trial, q.sql, len(got), len(want.Groups))
				continue
			}
			for gi := range got {
				if math.Abs(got[gi].Prob-want.Groups[gi].Prob) > 1e-9 {
					t.Errorf("trial %d %q group %d: prob %g, want %g", trial, q.sql, gi, got[gi].Prob, want.Groups[gi].Prob)
				}
				if g, w := renderSet(t, got[gi].Rel, cl.IsConf()), renderSet(t, want.Groups[gi].Rel, cl.IsConf()); g != w {
					t.Errorf("trial %d %q group %d diverged:\n%s\nwant:\n%s", trial, q.sql, gi, g, w)
				}
			}
		}
	}
}

// TestGroupWorldsBeyondMergeLimit: GROUP WORLDS BY over a decomposition
// of 2^17 worlds — more than the merge limit can multiply out, so any
// merge-based route fails with ErrMergeTooBig — returns the correct
// groups via the per-component fingerprint fold, with zero merges and the
// decomposition untouched.
func TestGroupWorldsBeyondMergeLimit(t *testing.T) {
	const k = 17
	d := New(true)
	rel := relation.New(schema.New("K", "V", "W"))
	for i := 0; i < k; i++ {
		rel.MustAppend(row(i, 0, 1))
		rel.MustAppend(row(i, 1, 1))
	}
	if err := d.PutCertain("R", rel); err != nil {
		t.Fatal(err)
	}
	if err := d.repairByKey("R", "I", []string{"K"}, ""); err != nil {
		t.Fatal(err)
	}
	ch := relation.New(schema.New("A", "B"))
	ch.MustAppend(row(10, 0))
	ch.MustAppend(row(20, 1))
	if err := d.PutCertain("C", ch); err != nil {
		t.Fatal(err)
	}
	if err := d.choiceOf("C", "P", []string{"A"}, ""); err != nil {
		t.Fatal(err)
	}

	gwStmt, err := sqlparse.Parse("select B from P")
	if err != nil {
		t.Fatal(err)
	}
	coreStmt, err := sqlparse.Parse("select conf, K, V from I")
	if err != nil {
		t.Fatal(err)
	}
	qcore, cl, err := takeApart(coreStmt.(*sqlparse.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	gw := gwStmt.(*sqlparse.SelectStmt)

	// The merge-based route cannot answer this: the spanning fallback
	// would multiply 2^17 alternatives.
	g, err := d.prepareGrouped(gw, qcore)
	if err != nil {
		t.Fatal(err)
	}
	g.spanning = true
	if _, _, _, err := d.groupMerged(g, cl, decision{}); !errors.Is(err, ErrMergeTooBig) {
		t.Fatalf("spanning route: err = %v, want ErrMergeTooBig", err)
	}

	groups, err := d.groupWorldsClosure(gw, qcore, cl)
	if err != nil {
		t.Fatal(err)
	}
	if d.MergeCount() != 0 {
		t.Errorf("componentwise grouping merged %d times", d.MergeCount())
	}
	if d.ComponentCount() != k+1 {
		t.Errorf("components = %d, want %d untouched", d.ComponentCount(), k+1)
	}
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	for gi, g := range groups {
		if math.Abs(g.Prob-0.5) > 1e-9 {
			t.Errorf("group %d prob = %g, want 0.5", gi, g.Prob)
		}
		if g.Rel.Len() != 2*k {
			t.Fatalf("group %d rows = %d, want %d", gi, g.Rel.Len(), 2*k)
		}
		for _, tp := range g.Rel.Rows() {
			// Global conf 1/2 per tuple, scaled by the group's 1/2.
			if c := tp[len(tp)-1].AsFloat(); math.Abs(c-0.25) > 1e-9 {
				t.Fatalf("group %d conf = %v, want 0.25", gi, c)
			}
		}
	}
}

func TestAssertEquivalenceRandomized(t *testing.T) {
	t.Parallel()
	// Assert "no tuple with V = 0 and K = 0 in I" on both engines.
	r := rand.New(rand.NewSource(44))
	for trial := 0; trial < 15; trial++ {
		rel := randomKeyedRelation(r, 2+r.Intn(2), 3)

		s := core.NewSession(true)
		if err := s.Register("R", rel); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Exec("create table I as select K, V, W from R repair by key K"); err != nil {
			t.Fatal(err)
		}
		_, naiveErr := s.Exec(`create table J as select * from I
			assert not exists (select * from I where K = 0 and V = 0)`)

		d := New(true)
		if err := d.PutCertain("R", rel); err != nil {
			t.Fatal(err)
		}
		if err := d.repairByKey("R", "I", []string{"K"}, ""); err != nil {
			t.Fatal(err)
		}
		wsdErr := d.assert(d.componentsFor("I"), func(cat plan.Catalog) (bool, error) {
			i, err := cat.Lookup("I")
			if err != nil {
				return false, err
			}
			for _, tp := range i.Rows() {
				if tp[0].AsInt() == 0 && tp[1].AsInt() == 0 {
					return false, nil
				}
			}
			return true, nil
		})

		if (naiveErr == nil) != (wsdErr == nil) {
			t.Fatalf("trial %d: engines disagree on emptiness: naive=%v wsd=%v", trial, naiveErr, wsdErr)
		}
		if naiveErr != nil {
			continue // both dropped every world
		}
		matchViews(t, naiveViews(t, s, "I"), wsdViews(t, d, "I"))
	}
}

// TestDMLKeepsColumnarPieces checks the compact engine's UPDATE/DELETE
// copy-on-write over an IMPORTed relation: a statement matching no row
// keeps every piece itself, a matching one stores columnar pieces and
// leaves the replaced ones as they were.
func TestDMLKeepsColumnarPieces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.csv")
	if err := os.WriteFile(path, []byte("K,V,W\n1,10,1\n2,20,1\n2,21,3\n3,,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	d := New(true)
	if _, err := d.Exec("import into J from '" + path + "' repair key (K) weight W"); err != nil {
		t.Fatal(err)
	}
	k := key("J")
	pieces := func() []*relation.Relation {
		out := []*relation.Relation{d.certain[k]}
		for _, ci := range d.componentsFor("J") {
			for _, a := range d.comps[ci].Alts {
				out = append(out, a.Contrib[k])
			}
		}
		return out
	}
	before := pieces()
	if len(before) != 3 {
		t.Fatalf("setup: %d pieces, want the certain part and two alternatives", len(before))
	}
	var want []string
	for _, p := range before {
		want = append(want, p.StoredString())
	}
	if _, err := d.Exec("update J set V = 0 where K > 100"); err != nil {
		t.Fatal(err)
	}
	for i, p := range pieces() {
		if p != before[i] {
			t.Fatalf("piece %d replaced by an UPDATE matching nothing", i)
		}
	}
	if _, err := d.Exec("update J set V = V + 1 where K >= 1"); err != nil {
		t.Fatal(err)
	}
	for i, p := range pieces() {
		if p == before[i] || p.Batch().RowBacked() {
			t.Fatalf("piece %d: kept, or stored row-backed, by a matching UPDATE", i)
		}
		if got := before[i].StoredString(); got != want[i] {
			t.Fatalf("piece %d changed under the UPDATE:\n%s\nwant:\n%s", i, got, want[i])
		}
	}
}
