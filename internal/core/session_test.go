package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"maybms/internal/obs"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/tuple"
	"maybms/internal/value"
	"maybms/internal/worldset"
)

func mustExec(t *testing.T, s *Session, sql string) *Result {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

func TestCreateInsertSelectRoundTrip(t *testing.T) {
	s := NewSession(true)
	mustExec(t, s, "create table P (A, B)")
	mustExec(t, s, "insert into P values (1, 'x'), (2, 'y')")
	res := mustExec(t, s, "select * from P order by A")
	if res.PerWorld[0].Rel.Len() != 2 {
		t.Errorf("rows = %d", res.PerWorld[0].Rel.Len())
	}
}

func TestInsertColumnListAndDefaults(t *testing.T) {
	s := NewSession(true)
	mustExec(t, s, "create table P (A, B, C)")
	mustExec(t, s, "insert into P (C, A) values (3, 1)")
	res := mustExec(t, s, "select * from P")
	row := res.PerWorld[0].Rel.Rows()[0]
	if row[0].AsInt() != 1 || !row[1].IsNull() || row[2].AsInt() != 3 {
		t.Errorf("row = %v", row)
	}
}

func TestInsertArityAndUnknownColumn(t *testing.T) {
	s := NewSession(true)
	mustExec(t, s, "create table P (A, B)")
	if _, err := s.Exec("insert into P values (1)"); err == nil {
		t.Error("arity mismatch must fail")
	}
	if _, err := s.Exec("insert into P (Z) values (1)"); err == nil {
		t.Error("unknown column must fail")
	}
	if _, err := s.Exec("insert into P (A) values (1, 2)"); err == nil {
		t.Error("row wider than column list must fail")
	}
	if _, err := s.Exec("insert into Nope values (1)"); err == nil {
		t.Error("unknown table must fail")
	}
}

func TestInsertConstantExpressions(t *testing.T) {
	s := NewSession(true)
	mustExec(t, s, "create table P (A)")
	mustExec(t, s, "insert into P values (2 + 3 * 4), (-7)")
	res := mustExec(t, s, "select * from P order by A")
	if res.PerWorld[0].Rel.Rows()[0][0].AsInt() != -7 ||
		res.PerWorld[0].Rel.Rows()[1][0].AsInt() != 14 {
		t.Errorf("rows = %v", res.PerWorld[0].Rel.Rows())
	}
	if _, err := s.Exec("insert into P values ((select 1 from P))"); err == nil {
		t.Error("non-constant insert value must fail")
	}
}

func TestPrimaryKeyRejectsDuplicateInsert(t *testing.T) {
	s := NewSession(true)
	mustExec(t, s, "create table P (A, B, primary key (A))")
	mustExec(t, s, "insert into P values (1, 'x')")
	if _, err := s.Exec("insert into P values (1, 'y')"); !errors.Is(err, ErrKeyViolation) {
		t.Fatalf("expected key violation, got %v", err)
	}
	// Nothing changed.
	res := mustExec(t, s, "select * from P")
	if res.PerWorld[0].Rel.Len() != 1 {
		t.Error("failed insert must not change the table")
	}
	if got := s.PrimaryKey("P"); len(got) != 1 || got[0] != "A" {
		t.Errorf("PrimaryKey = %v", got)
	}
}

func TestInsertViolationInOneWorldAbortsAll(t *testing.T) {
	// Paper §2: "In case the tuple insertion violates a constraint in some
	// worlds, then the update is discarded in all worlds."
	s := NewSession(true)
	mustExec(t, s, "create table Src (G, V)")
	mustExec(t, s, "insert into Src values ('g1', 1), ('g2', 2)")
	mustExec(t, s, "create table V (X, primary key (X))")
	mustExec(t, s, "insert into V values (1)")
	// Split into two worlds; make V world-dependent via an update guarded
	// by a world-dependent condition.
	mustExec(t, s, "create table Pick as select * from Src choice of G")
	if s.WorldCount() != 2 {
		t.Fatal("setup: want 2 worlds")
	}
	mustExec(t, s, "update V set X = 2 where exists (select * from Pick where G = 'g1')")
	// Now V = {2} in the g1-world and {1} in the g2-world. Inserting 2
	// violates the key only in the g1-world — and must abort everywhere.
	if _, err := s.Exec("insert into V values (2)"); !errors.Is(err, ErrKeyViolation) {
		t.Fatalf("expected cross-world key violation, got %v", err)
	}
	res := mustExec(t, s, "select * from V")
	for _, wr := range res.PerWorld {
		if wr.Rel.Len() != 1 {
			t.Errorf("world %s V = %v (insert leaked)", wr.World, wr.Rel.Rows())
		}
	}
	// A non-violating insert succeeds in both worlds.
	mustExec(t, s, "insert into V values (3)")
	res = mustExec(t, s, "select * from V")
	for _, wr := range res.PerWorld {
		if wr.Rel.Len() != 2 {
			t.Errorf("world %s V = %v", wr.World, wr.Rel.Rows())
		}
	}
}

func TestUpdatePerWorldSemantics(t *testing.T) {
	s := NewSession(true)
	mustExec(t, s, "create table Src (G)")
	mustExec(t, s, "insert into Src values ('g1'), ('g2')")
	mustExec(t, s, "create table K (N)")
	mustExec(t, s, "insert into K values (10)")
	mustExec(t, s, "create table Pick as select * from Src choice of G")
	mustExec(t, s, "update K set N = N + 1 where exists (select * from Pick where G = 'g1')")
	res := mustExec(t, s, "select * from K")
	vals := map[int64]bool{}
	for _, wr := range res.PerWorld {
		vals[wr.Rel.Rows()[0][0].AsInt()] = true
	}
	if !vals[10] || !vals[11] {
		t.Errorf("per-world update values = %v, want {10, 11}", vals)
	}
}

// TestWritesKeepSharedInstances: a write computes a world's new relation
// once for each set of instances the statement reads, so worlds that shared
// what it read share what it wrote. On Figure 1's four worlds, a DELETE
// from the certain S and a table created after the split each leave one
// instance, and a join over it hashes that instance once for every world
// (shared_builds=1). An UPDATE whose WHERE reads the per-world I still
// rewrites world by world, and its message counts rows in every world.
func TestWritesKeepSharedInstances(t *testing.T) {
	instances := func(s *Session, name string) int {
		seen := map[*relation.Relation]bool{}
		for _, w := range s.Set().Worlds {
			r, err := w.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			seen[r] = true
		}
		return len(seen)
	}
	for _, tc := range []struct {
		table  string
		writes []string
	}{
		{"S", []string{"delete from S where C = 'c4' and E = 'e2'"}},
		{"T", []string{"create table T (C, E)", "insert into T values ('c2', 'e1'), ('c4', 'e1')"}},
	} {
		s := NewSession(true)
		loadFigure1(t, s)
		repairFigure2(t, s)
		for _, sql := range tc.writes {
			mustExec(t, s, sql)
		}
		if n := instances(s, tc.table); s.WorldCount() != 4 || n != 1 {
			t.Errorf("%v: %d instances of %s over %d worlds, want 1 over 4", tc.writes, n, tc.table, s.WorldCount())
		}
		sql := "select possible A, E from I, " + tc.table + " where I.C = " + tc.table + ".C"
		tr := obs.NewTrace(sql)
		res, err := ExecTraced(s, sql, nil, tr)
		if err != nil {
			t.Fatal(err)
		}
		attrs := map[string]string{}
		for _, a := range tr.JSON().Attrs {
			attrs[a.Key] = a.Value
		}
		if attrs["shared_builds"] != "1" {
			t.Errorf("%v: %q traces shared_builds=%q, want 1", tc.writes, sql, attrs["shared_builds"])
		}
		if got := res.Groups[0].Rel.Len(); got != 2 {
			t.Errorf("%v: %q answers %d rows, want 2:\n%s", tc.writes, sql, got, res.Groups[0].Rel)
		}
	}

	s := NewSession(true)
	loadFigure1(t, s)
	repairFigure2(t, s)
	res := mustExec(t, s, "update S set E = 'x' where C in (select C from I where A = 'a1')")
	if res.Msg != "updated 2 row(s) across 4 world(s)" {
		t.Errorf("update message %q", res.Msg)
	}
	for _, w := range s.Set().Worlds {
		i, _ := w.Lookup("I")
		sRel, _ := w.Lookup("S")
		a1 := ""
		for _, row := range i.Rows() {
			if row[0].AsStr() == "a1" {
				a1 = row[2].AsStr()
			}
		}
		want := "[(c2, e1) (c4, e1) (c4, e2)]"
		if a1 == "c2" {
			want = "[(c2, x) (c4, e1) (c4, e2)]"
		}
		if fmt.Sprint(sRel.Rows()) != want {
			t.Errorf("world %s (a1 at %s): S = %v, want %s", w.Name, a1, sRel.Rows(), want)
		}
	}
	if n := instances(s, "S"); n != 3 {
		t.Errorf("%d instances of S after the per-world update, want 3 (the original and one per rewriting world)", n)
	}
}

func TestUpdateKeyViolationAborts(t *testing.T) {
	s := NewSession(true)
	mustExec(t, s, "create table P (A, B, primary key (A))")
	mustExec(t, s, "insert into P values (1, 'x'), (2, 'y')")
	if _, err := s.Exec("update P set A = 1 where A = 2"); !errors.Is(err, ErrKeyViolation) {
		t.Fatalf("expected key violation, got %v", err)
	}
	res := mustExec(t, s, "select * from P where A = 2")
	if res.PerWorld[0].Rel.Len() != 1 {
		t.Error("failed update must not apply")
	}
}

func TestDelete(t *testing.T) {
	s := NewSession(true)
	mustExec(t, s, "create table P (A)")
	mustExec(t, s, "insert into P values (1), (2), (3)")
	mustExec(t, s, "delete from P where A > 1")
	res := mustExec(t, s, "select * from P")
	if res.PerWorld[0].Rel.Len() != 1 {
		t.Errorf("rows after delete = %d", res.PerWorld[0].Rel.Len())
	}
	mustExec(t, s, "delete from P")
	res = mustExec(t, s, "select * from P")
	if !res.PerWorld[0].Rel.Empty() {
		t.Error("unconditional delete must empty the table")
	}
}

// TestDMLCompilesThroughPlanCache: UPDATE and DELETE compile once, through
// the process-wide plan cache like every other template — the same text
// again is a hit and compiles nothing. The texts and the table are this
// test's own, so no other test has compiled them before.
func TestDMLCompilesThroughPlanCache(t *testing.T) {
	s := NewSession(true)
	mustExec(t, s, "create table DmlCacheP (A)")
	mustExec(t, s, "insert into DmlCacheP values (1), (2), (3)")
	for _, sql := range []string{"update DmlCacheP set A = A + 7 where A > 1", "delete from DmlCacheP where A > 8"} {
		for run, compiles := range []uint64{1, 0} {
			prepares := plan.PrepareCount()
			hits, _ := s.PlanCacheCounts()
			mustExec(t, s, sql)
			if got := plan.PrepareCount() - prepares; got != compiles {
				t.Errorf("%s, run %d: %d compilations, want %d", sql, run+1, got, compiles)
			}
			if got, _ := s.PlanCacheCounts(); got-hits != 1-compiles {
				t.Errorf("%s, run %d: %d cache hits, want %d", sql, run+1, got-hits, 1-compiles)
			}
		}
	}
}

func TestDropSemantics(t *testing.T) {
	s := NewSession(true)
	mustExec(t, s, "create table P (A)")
	mustExec(t, s, "drop table P")
	if _, err := s.Exec("select * from P"); err == nil {
		t.Error("dropped table must be gone")
	}
	if _, err := s.Exec("drop table P"); err == nil {
		t.Error("dropping a missing table must fail")
	}
	mustExec(t, s, "drop table if exists P")
}

func TestCreateDuplicateNameFails(t *testing.T) {
	s := NewSession(true)
	mustExec(t, s, "create table P (A)")
	if _, err := s.Exec("create table P (B)"); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate create = %v", err)
	}
	if _, err := s.Exec("create table P as select 1 as x"); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate create-as = %v", err)
	}
}

func TestRegister(t *testing.T) {
	s := NewSession(true)
	rel := relation.New(schema.New("X"))
	rel.MustAppend(tuple.New(value.Int(7)))
	if err := s.Register("Ext", rel); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, s, "select * from Ext")
	if res.PerWorld[0].Rel.Len() != 1 {
		t.Error("registered relation invisible")
	}
	if err := s.Register("Ext", rel); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate register = %v", err)
	}
}

func TestExecScriptStopsAtError(t *testing.T) {
	s := NewSession(true)
	results, err := ExecScript(s, `
		create table P (A);
		insert into P values (1);
		select * from Nope;
		insert into P values (2);
	`)
	if err == nil {
		t.Fatal("script must fail at the bad statement")
	}
	if len(results) != 2 {
		t.Errorf("results before failure = %d, want 2", len(results))
	}
	res := mustExec(t, s, "select * from P")
	if res.PerWorld[0].Rel.Len() != 1 {
		t.Error("statement after the failure must not run")
	}
}

func TestWeightRequiresWeightedSession(t *testing.T) {
	s := NewSession(false)
	mustExec(t, s, "create table R (A, D)")
	mustExec(t, s, "insert into R values ('a', 1), ('a', 2)")
	if _, err := s.Exec("select A from R repair by key A weight D"); !errors.Is(err, worldset.ErrNotWeighted) {
		t.Errorf("weight on unweighted session = %v", err)
	}
	if _, err := s.Exec("select A from R choice of A weight D"); !errors.Is(err, worldset.ErrNotWeighted) {
		t.Errorf("choice weight on unweighted session = %v", err)
	}
	if _, err := s.Exec("select conf from R"); !errors.Is(err, worldset.ErrNotWeighted) {
		t.Errorf("conf on unweighted session = %v", err)
	}
}

func TestAssertAllWorldsGone(t *testing.T) {
	s := NewSession(true)
	mustExec(t, s, "create table P (A)")
	mustExec(t, s, "insert into P values (1)")
	if _, err := s.Exec("select * from P assert 1 = 2"); !errors.Is(err, ErrAssertAllGone) {
		t.Errorf("assert false = %v", err)
	}
	// Session unharmed.
	if s.WorldCount() != 1 {
		t.Error("failed assert must not change the session")
	}
}

func TestAssertOnPlainSelectDoesNotRenormalizeSession(t *testing.T) {
	s := NewSession(true)
	loadFigure1(t, s)
	repairFigure2(t, s)
	before := make([]float64, 4)
	for i, w := range s.Set().Worlds {
		before[i] = w.Prob
	}
	mustExec(t, s, "select * from I assert not exists(select * from I where C = 'c1')")
	for i, w := range s.Set().Worlds {
		if math.Abs(w.Prob-before[i]) > 1e-15 {
			t.Fatal("plain select with assert leaked probability changes")
		}
	}
}

func TestMaxWorldsGuard(t *testing.T) {
	s := NewSession(true)
	s.MaxWorlds = 8
	mustExec(t, s, "create table R (K, V)")
	mustExec(t, s, `insert into R values
		(1, 'a'), (1, 'b'), (2, 'a'), (2, 'b'), (3, 'a'), (3, 'b'), (4, 'a'), (4, 'b')`)
	// 2^4 = 16 repairs > 8.
	if _, err := s.Exec("select K, V from R repair by key K"); !errors.Is(err, ErrTooManyWorlds) {
		t.Errorf("expected ErrTooManyWorlds, got %v", err)
	}
}

func TestInvalidISQLCombinations(t *testing.T) {
	s := NewSession(true)
	mustExec(t, s, "create table P (A, B)")
	mustExec(t, s, "insert into P values (1, 2)")
	bad := []string{
		"select conf, possible A from P",                                      // parser takes possible only after select; conf+alias → still parse error or eval error
		"select possible conf from P",                                         // conf under quantifier
		"select A from P repair by key A choice of B",                         // both splits
		"select conf, conf from P",                                            // two confs
		"select A from P union select possible B from P",                      // I-SQL in arm
		"select A from P repair by key A union select B from P",               // split + union
		"select possible A from P group worlds by (select possible B from P)", // I-SQL grouping query
		"select A from P group worlds by (select B from P)",                   // grouping without closure
	}
	for _, q := range bad {
		if _, err := s.Exec(q); err == nil {
			t.Errorf("%q must be rejected", q)
		}
	}
}

func TestRepairOnEmptyRelation(t *testing.T) {
	s := NewSession(true)
	mustExec(t, s, "create table P (A, B)")
	res := mustExec(t, s, "select A, B from P repair by key A")
	if len(res.PerWorld) != 1 || !res.PerWorld[0].Rel.Empty() {
		t.Errorf("empty repair = %+v", res.PerWorld)
	}
}

func TestChoiceOnEmptyRelationFails(t *testing.T) {
	s := NewSession(true)
	mustExec(t, s, "create table P (A)")
	if _, err := s.Exec("select A from P choice of A"); err == nil {
		t.Error("choice over empty relation must fail (it would produce zero worlds)")
	}
}

func TestRepairAlreadyConsistentIsIdentity(t *testing.T) {
	s := NewSession(true)
	mustExec(t, s, "create table P (A, B)")
	mustExec(t, s, "insert into P values (1, 'x'), (2, 'y')")
	mustExec(t, s, "create table Q as select A, B from P repair by key A")
	if s.WorldCount() != 1 {
		t.Errorf("consistent repair split into %d worlds", s.WorldCount())
	}
	q, _ := s.Set().Worlds[0].Lookup("Q")
	if q.Len() != 2 {
		t.Errorf("Q = %v", q.Rows())
	}
}

func TestRepairWeightValidation(t *testing.T) {
	s := NewSession(true)
	mustExec(t, s, "create table P (A, D)")
	mustExec(t, s, "insert into P values (1, 0), (1, 2)")
	if _, err := s.Exec("select A from P repair by key A weight D"); err == nil {
		t.Error("zero weight must be rejected")
	}
	mustExec(t, s, "create table P2 (A, D)")
	mustExec(t, s, "insert into P2 values (1, 'w'), (1, 'v')")
	if _, err := s.Exec("select A from P2 repair by key A weight D"); err == nil {
		t.Error("non-numeric weight must be rejected")
	}
	// A key group of one row is weighed too, as IMPORT ... REPAIR KEY
	// weighs it.
	mustExec(t, s, "create table P3 (K, V, W)")
	mustExec(t, s, "insert into P3 values ('a', 1, 1), ('a', 2, 2), ('b', 3, -5), ('c', 4, 'oops')")
	if _, err := s.Exec("select * from P3 repair by key K weight W"); err == nil || err.Error() != "weight value -5 must be positive" {
		t.Errorf("negative weight of a lone key = %v", err)
	}
	mustExec(t, s, "delete from P3 where K = 'b'")
	if _, err := s.Exec("select * from P3 repair by key K weight W"); err == nil || err.Error() != "weight value oops is not numeric" {
		t.Errorf("non-numeric weight of a lone key = %v", err)
	}
}

func TestUnweightedRepairUniformInWeightedSession(t *testing.T) {
	s := NewSession(true)
	mustExec(t, s, "create table P (A, B)")
	mustExec(t, s, "insert into P values (1, 'x'), (1, 'y'), (1, 'z')")
	res := mustExec(t, s, "select A, B from P repair by key A")
	if len(res.PerWorld) != 3 {
		t.Fatalf("worlds = %d", len(res.PerWorld))
	}
	for _, wr := range res.PerWorld {
		if math.Abs(wr.Prob-1.0/3) > eps {
			t.Errorf("uniform prob = %g, want 1/3", wr.Prob)
		}
	}
}

func TestMaterializeDuplicateColumnsRejected(t *testing.T) {
	s := NewSession(true)
	mustExec(t, s, "create table P (A)")
	mustExec(t, s, "insert into P values (1)")
	if _, err := s.Exec("create table Q as select p1.A, p2.A from P p1, P p2"); err == nil {
		t.Error("duplicate output columns must be rejected at materialization")
	}
	if _, err := s.Exec("select p1.A, p2.A from P p1, P p2"); err != nil {
		t.Errorf("plain query with duplicate names is fine: %v", err)
	}
}

func TestResultRendering(t *testing.T) {
	s := NewSession(true)
	mustExec(t, s, "create table P (A)")
	mustExec(t, s, "insert into P values (1)")
	res := mustExec(t, s, "select * from P")
	if !strings.Contains(res.String(), "world w1") {
		t.Errorf("per-world rendering = %q", res.String())
	}
	res = mustExec(t, s, "select possible A from P")
	if strings.Contains(res.String(), "group {") {
		t.Error("single group must not render a group header")
	}
	ok := mustExec(t, s, "create table Q as select A from P")
	if !strings.Contains(ok.String(), "created table Q") {
		t.Errorf("ok rendering = %q", ok.String())
	}
	if res := ok.First(); res != nil {
		t.Error("First of OK result should be nil")
	}
}

func TestViewAndTableInterchangeable(t *testing.T) {
	s := NewSession(true)
	mustExec(t, s, "create table P (A)")
	mustExec(t, s, "insert into P values (1)")
	mustExec(t, s, "create view V as select A from P")
	if !s.IsView("v") {
		t.Error("IsView should be case-insensitive")
	}
	// Snapshot semantics: later inserts into P do not show in V.
	mustExec(t, s, "insert into P values (2)")
	res := mustExec(t, s, "select * from V")
	if res.PerWorld[0].Rel.Len() != 1 {
		t.Error("views are materialized snapshots by design (see DESIGN.md)")
	}
	mustExec(t, s, "drop view V")
	if s.IsView("v") {
		t.Error("dropped view still recorded")
	}
}

func TestGroupWorldsByWithConf(t *testing.T) {
	s := NewSession(true)
	loadFigure1(t, s)
	repairFigure2(t, s)
	// Conf of each B-value of a1, within groups of worlds agreeing on a2's
	// B-value. Raw (unnormalized) probabilities are summed per group.
	res := mustExec(t, s, `select B, conf from I where A = 'a1'
		group worlds by (select B from I where A = 'a2')`)
	if len(res.Groups) != 2 {
		t.Fatalf("groups = %d", len(res.Groups))
	}
	// Group a2→14 holds worlds A (1/9) and B (1/3); group a2→20 holds C
	// (5/36) and D (5/12).
	for _, g := range res.Groups {
		var want float64
		switch len(g.Worlds) {
		case 2:
			want = g.Prob
		default:
			t.Fatalf("group sizes = %v", g.Worlds)
		}
		sum := 0.0
		for _, tp := range g.Rel.Rows() {
			sum += tp[1].AsFloat()
		}
		if math.Abs(sum-want) > eps {
			t.Errorf("group conf sum = %g, want %g", sum, want)
		}
	}
}

// TestKeyViolationOnColumnarTable checks that checkKey, reading keys from
// the batch, words a violation byte for byte as it does on a table built
// row by row: the same UPDATE over the same rows, once IMPORTed (columnar)
// and once INSERTed (row-backed), fails with the same message.
func TestKeyViolationOnColumnarTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.csv")
	if err := os.WriteFile(path, []byte("A,B\n1,x\n2,y\n3,\n4,w\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	imported := NewSession(true)
	mustExec(t, imported, "import into P from '"+path+"'")
	if rel, _ := imported.set.Worlds[0].Lookup("P"); rel.Batch().RowBacked() {
		t.Fatal("setup: the imported table is row-backed")
	}
	// IMPORT creates its table, so the key is declared behind its back.
	imported.keys["p"] = []string{"A", "B"}

	inserted := NewSession(true)
	mustExec(t, inserted, "create table P (A, B, primary key (A, B))")
	mustExec(t, inserted, "insert into P values (1, 'x'), (2, 'y'), (3, null), (4, 'w')")

	const update = "update P set A = 1, B = 'x' where A >= 3"
	_, colErr := imported.Exec(update)
	_, rowErr := inserted.Exec(update)
	if !errors.Is(colErr, ErrKeyViolation) || !errors.Is(rowErr, ErrKeyViolation) {
		t.Fatalf("want key violations, got %v and %v", colErr, rowErr)
	}
	const want = "primary key violation: duplicate key (A, B) value (1, x) in world w1 (statement discarded in all worlds)"
	if colErr.Error() != want || rowErr.Error() != want {
		t.Fatalf("columnar: %q\nrow-backed: %q\nwant: %q", colErr, rowErr, want)
	}
	if rel, _ := imported.set.Worlds[0].Lookup("P"); rel.Len() != 4 || rel.Batch().RowBacked() {
		t.Fatalf("a failed update changed the table: %v", rel.Rows())
	}
}

// TestDMLKeepsColumnarRelations checks the naive engine's UPDATE/DELETE
// copy-on-write: an UPDATE matching nothing keeps the world's relation
// itself, a matching one stores a new columnar relation and leaves the old
// one as it was, and an INSERT into the new one does not reach the old.
func TestDMLKeepsColumnarRelations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.csv")
	if err := os.WriteFile(path, []byte("A,B\n1,x\n2,y\n3,\n4,w\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewSession(true)
	mustExec(t, s, "import into P from '"+path+"'")
	lookup := func() *relation.Relation {
		rel, err := s.set.Worlds[0].Lookup("P")
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	before := lookup()
	want := before.StoredString()

	mustExec(t, s, "update P set B = 'z' where A > 100")
	if lookup() != before {
		t.Fatal("an UPDATE matching nothing replaced the relation")
	}
	mustExec(t, s, "update P set B = 'z' where A >= 3")
	after := lookup()
	if after == before || after.Batch().RowBacked() {
		t.Fatalf("a matching UPDATE stored the same or a row-backed relation")
	}
	mustExec(t, s, "insert into P values (5, 'v')")
	if got := before.StoredString(); got != want {
		t.Fatalf("the pre-UPDATE relation changed:\n%s\nwant:\n%s", got, want)
	}
	if got := after.StoredString(); got != "A  B\n-  -\n1  x\n2  y\n3  z\n4  z\n" {
		t.Fatalf("the UPDATE's result changed under the INSERT:\n%s", got)
	}
}
