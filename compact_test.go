package maybms

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"slices"
	"sort"
	"strings"
	"testing"

	"maybms/internal/core"
	"maybms/internal/plan"
	"maybms/internal/schema"
	"maybms/internal/world"
	"maybms/internal/worldset"
)

// confOf runs a `select conf … where` statement and returns its one
// confidence: 0 for an empty answer, which no world holds.
func confOf(db interface{ Exec(string) (*Result, error) }, sql string) (float64, error) {
	res, err := db.Exec(sql)
	if err != nil || res.First().Len() == 0 {
		return 0, err
	}
	return res.First().Rows()[0][0].AsFloat(), nil
}

// TestUnknownRelationKeepsCause: a statement over a relation the catalog
// does not hold fails, on both engines, as a plan error that still carries
// the catalog's own cause, in the words it always had.
func TestUnknownRelationKeepsCause(t *testing.T) {
	for _, c := range []struct {
		engine string
		db     interface{ Exec(string) (*Result, error) }
		cause  error
		msg    string
	}{
		{"naive", Open(), world.ErrUnknown, `plan error: relation "U" does not exist in world w1`},
		{"compact", OpenCompact(), world.ErrUnknown, "plan error: relation does not exist: U"},
	} {
		_, err := c.db.Exec("select possible * from U")
		if !errors.Is(err, plan.ErrPlan) || !errors.Is(err, c.cause) {
			t.Errorf("%s: %v: want errors.Is for plan.ErrPlan and %v", c.engine, err, c.cause)
		}
		if err == nil || err.Error() != c.msg {
			t.Errorf("%s: error %v, want %q", c.engine, err, c.msg)
		}
	}
}

// TestNotWeightedSameOnBothEngines: a malformed statement gets the I-SQL
// front end's error from both engines, in weighted and incomplete sessions
// alike — byte for byte, with the one sentinel where there is one (a WEIGHT
// or a CONF outside a probabilistic session wraps worldset.ErrNotWeighted).
// A split column the FROM/WHERE rows lack fails with the same clause-named
// error on both, and an unknown or taken name wraps the one sentinel on both.
func TestNotWeightedSameOnBothEngines(t *testing.T) {
	const (
		exact    = iota // the same error text
		sentinel        // the same sentinel, the text aside
	)
	const (
		weighted = 1 << iota
		incomplete
		both = weighted | incomplete
	)
	for _, c := range []struct {
		sql string
		on  int
		cmp int
		is  error
	}{
		{"select conf, A, conf from R", both, exact, nil},
		{"select possible A, conf from R", both, exact, nil},
		{"select A, conf from R", incomplete, exact, worldset.ErrNotWeighted},
		{"create view V as select A, conf from R", incomplete, exact, worldset.ErrNotWeighted},
		{"create table T as select A, conf from R repair by key A", incomplete, exact, worldset.ErrNotWeighted},
		{"create table T as select * from R repair by key A weight W", incomplete, exact, worldset.ErrNotWeighted},
		{"create table T as select * from R choice of A weight W", incomplete, exact, worldset.ErrNotWeighted},
		{"create table T as select * from R repair by key A choice of B", both, exact, nil},
		{"create table T as select A from R union select A from R repair by key A", both, exact, nil},
		{"select possible A from R group worlds by (select possible B from R)", both, exact, nil},
		{"select A from R group worlds by (select B from R)", both, exact, nil},
		{"create table R (A, B)", both, exact, core.ErrExists},
		{"create table R as select * from R", both, exact, core.ErrExists},
		{"explain create table R as select * from R", both, exact, core.ErrExists},
		{"create table T as select * from R repair by key Zz", both, exact, schema.ErrUnknownColumn},
		{"create table T as select * from R repair by key A weight Zz", weighted, exact, schema.ErrUnknownColumn},
		{"create table T as select * from R choice of Zz", both, exact, schema.ErrUnknownColumn},
		{"create table T as select * from R choice of A weight Zz", weighted, exact, schema.ErrUnknownColumn},
		{"create table T as select A from R repair by key Zz", both, exact, schema.ErrUnknownColumn},
		{"create table T as select A from R choice of A weight Zz", weighted, exact, schema.ErrUnknownColumn},
		{"create table T as select R.A from R, R S repair by key A", both, exact, schema.ErrAmbiguousColumn},
		{"explain create table T as select A from R choice of Zz", both, exact, schema.ErrUnknownColumn},
		{"drop table Nope", both, exact, world.ErrUnknown},
		{"select possible A from Nope", both, sentinel, world.ErrUnknown},
	} {
		for _, mode := range []int{weighted, incomplete} {
			if c.on&mode == 0 {
				continue
			}
			rows := [][]any{{0, 1, 1}, {0, 2, 3}, {1, 5, 1}}
			db, cdb := Open(), OpenCompact()
			if mode == incomplete {
				db, cdb = OpenIncomplete(), OpenCompactIncomplete()
			}
			if err := db.Register("R", []string{"A", "B", "W"}, rows); err != nil {
				t.Fatal(err)
			}
			if err := cdb.Register("R", []string{"A", "B", "W"}, rows); err != nil {
				t.Fatal(err)
			}
			_, naive := db.Exec(c.sql)
			_, compact := cdb.Exec(c.sql)
			if naive == nil || compact == nil {
				t.Errorf("%s (weighted %t): naive says %v, compact says %v; want an error from both", c.sql, mode == weighted, naive, compact)
				continue
			}
			for _, err := range []error{naive, compact} {
				if c.is != nil && !errors.Is(err, c.is) {
					t.Errorf("%s (weighted %t): %v, want errors.Is %v", c.sql, mode == weighted, err, c.is)
				}
			}
			if c.cmp == exact && naive.Error() != compact.Error() {
				t.Errorf("%s (weighted %t): naive says %q, compact says %q", c.sql, mode == weighted, naive, compact)
			}
		}
	}
}

// TestStoredDuplicateNamesSameOnBothEngines: a CREATE TABLE AS whose answer
// has two columns of one name is refused by both engines with one error,
// whichever way the compact engine would store it — a single world, a
// closure, a componentwise store, a CONF column, a grouped store, an
// asserted store — and stores nothing.
func TestStoredDuplicateNamesSameOnBothEngines(t *testing.T) {
	for _, sql := range []string{
		"create table T2 as select B as A, A from R",
		"create table T3 as select possible B as A, A from R",
		"create table T4 as select B as A, A from U",
		"create table T5 as select conf, A as conf from U",
		"create table T6 as select possible B as A, A from U group worlds by (select A from U where B = 1)",
		"create table T7 as select B as A, A from U assert exists (select * from U where B = 1)",
		// The names are checked before evaluating, so a WHERE that fails
		// does not decide the error.
		"create table T8 as select B as A, A from R where 1/0 = 1",
		"create table T9 as select B as A, A from R where 1/0 = 1 repair by key A",
	} {
		db, cdb := Open(), OpenCompact()
		for _, setup := range []string{
			"create table R (A, B)",
			"insert into R values (0, 1), (0, 2), (1, 5)",
			"create table U as select * from R repair by key A",
		} {
			db.MustExec(setup)
			cdb.MustExec(setup)
		}
		_, naive := db.Exec(sql)
		_, compact := cdb.Exec(sql)
		if naive == nil || compact == nil {
			t.Errorf("%s: naive says %v, compact says %v; want an error from both", sql, naive, compact)
			continue
		}
		if naive.Error() != compact.Error() || !strings.Contains(naive.Error(), "duplicate column name") {
			t.Errorf("%s: naive says %q, compact says %q", sql, naive, compact)
		}
		name := strings.Fields(sql)[2]
		for _, e := range []interface{ Exec(string) (*Result, error) }{db, cdb} {
			if _, err := e.Exec("drop table " + name); !errors.Is(err, world.ErrUnknown) {
				t.Errorf("%s: dropping %s after the refusal: %v, want %v", sql, name, err, world.ErrUnknown)
			}
		}
		if db.WorldCount() != 2 || cdb.WorldCount().Cmp(big.NewInt(2)) != 0 {
			t.Errorf("%s: %d and %s worlds after the refusal, want 2", sql, db.WorldCount(), cdb.WorldCount())
		}
	}
}

func TestCompactChoiceOf(t *testing.T) {
	cdb := OpenCompact()
	if err := cdb.Register("R", []string{"A", "D"}, [][]any{
		{"a1", 2}, {"a1", 6}, {"a2", 4}, {"a2", 5}, {"a3", 6},
	}); err != nil {
		t.Fatal(err)
	}
	cdb.MustExec("create table P as select * from R choice of A weight D")
	if cdb.WorldCount().Cmp(big.NewInt(3)) != 0 {
		t.Fatalf("choice worlds = %s", cdb.WorldCount())
	}
	// Example 2.7 weights on the compact engine: 8/23, 9/23, 6/23.
	c, err := confOf(cdb, "select conf from P where A = 'a1' and D = 2")
	if err != nil || math.Abs(c-8.0/23) > 1e-9 {
		t.Errorf("conf = %v, %v", c, err)
	}
}

// TestCompactUpdateDeleteAndGroups exercises the public DML and
// group-worlds-by surface of CompactDB: piece-by-piece rewrites leave the
// decomposition unmerged, GROUP WORLDS BY groups via per-component answer
// fingerprints, and the answers match an expanded naive database.
func TestCompactUpdateDeleteAndGroups(t *testing.T) {
	cdb := OpenCompact()
	if err := cdb.Register("R", []string{"K", "V", "W"}, [][]any{
		{0, 1, 1}, {0, 2, 3}, {1, 5, 1}, {1, 6, 1},
	}); err != nil {
		t.Fatal(err)
	}
	cdb.MustExec("create table I as select * from R repair by key K weight W")
	if err := cdb.Register("C", []string{"A", "B"}, [][]any{{10, 0}, {20, 1}}); err != nil {
		t.Fatal(err)
	}
	cdb.MustExec("create table P as select * from C choice of A")

	for stmt, want := range map[string]string{
		"update I set V = V + 100 where K = 0": "updated 2 representation row(s) in I across 8 world(s)",
		"delete from I where V = 5":            "deleted 1 representation row(s) from I across 8 world(s)",
	} {
		if res, err := cdb.Exec(stmt); err != nil || res.Msg != want {
			t.Fatalf("%s: %v, %v; want %q", stmt, res, err, want)
		}
	}
	if cdb.MergeCount() != 0 {
		t.Errorf("componentwise DML merged %d times", cdb.MergeCount())
	}
	// The world count is unchanged: DML rewrites worlds, never drops them.
	if cdb.WorldCount().Cmp(big.NewInt(8)) != 0 {
		t.Fatalf("worlds = %s, want 8", cdb.WorldCount())
	}

	groups := cdb.MustExec("select conf, K, V from I group worlds by (select B from P)").Groups
	if cdb.MergeCount() != 0 {
		t.Errorf("group worlds by merged %d times", cdb.MergeCount())
	}
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	for gi, g := range groups {
		if math.Abs(g.Prob-0.5) > 1e-9 {
			t.Errorf("group %d prob = %g, want 0.5", gi, g.Prob)
		}
	}

	// Cross-check the grouped answer against the expanded naive engine.
	ndb, err := cdb.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ndb.Exec("select conf, K, V from I group worlds by (select B from P)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != len(groups) {
		t.Fatalf("naive groups = %d, compact %d", len(res.Groups), len(groups))
	}
	for gi := range groups {
		// Closed answers are sets; each backend lists its own order.
		got, want := groups[gi].Rel.Sort(), res.Groups[gi].Rel.Sort()
		if got.Len() != want.Len() {
			t.Fatalf("group %d rows: %d vs %d", gi, got.Len(), want.Len())
		}
		for i := range got.Rows() {
			g, w := got.Rows()[i], want.Rows()[i]
			if g[:len(g)-1].Key() != w[:len(w)-1].Key() {
				t.Errorf("group %d row %d: %v vs %v", gi, i, g, w)
			}
			if math.Abs(g[len(g)-1].AsFloat()-w[len(w)-1].AsFloat()) > 1e-9 {
				t.Errorf("group %d row %d conf: %v vs %v", gi, i, g[len(g)-1], w[len(w)-1])
			}
		}
	}

	// A WHERE subquery over an uncertain relation merges the involved
	// components — still correct, observable via MergeCount.
	if _, err := cdb.Exec("update I set V = 0 where V <= (select max(V) from P)"); err != nil {
		t.Fatal(err)
	}
	if cdb.MergeCount() != 1 {
		t.Errorf("spanning DML merges = %d, want 1", cdb.MergeCount())
	}
	if _, err := cdb.Exec("select possible K from I group worlds by (select possible B from P)"); err == nil {
		t.Error("GROUP WORLDS BY must reject an I-SQL grouping subquery")
	}
}

func TestCompactRegisterAndString(t *testing.T) {
	rows := [][]any{{1}, {2}}
	cdb := OpenCompact()
	if err := cdb.Register("R", []string{"K"}, rows); err != nil {
		t.Fatal(err)
	}
	if err := cdb.Register("R", []string{"K"}, rows); err == nil {
		t.Error("duplicate register must fail")
	}
	if !strings.Contains(cdb.String(), "components: 0") {
		t.Errorf("summary = %q", cdb.String())
	}
}

func TestCompactSetMergeLimit(t *testing.T) {
	cdb := OpenCompact()
	rows := [][]any{}
	for k := 0; k < 6; k++ {
		rows = append(rows, []any{k, 0}, []any{k, 1})
	}
	if err := cdb.Register("R", []string{"K", "V"}, rows); err != nil {
		t.Fatal(err)
	}
	cdb.MustExec("create table I as select * from R repair by key K")
	cdb.SetMergeLimit(4)
	// 2^6 = 64 > 4: the assert's merge must be rejected.
	if _, err := cdb.Exec("assert exists (select * from I)"); err == nil {
		t.Error("merge beyond limit must fail")
	}
	cdb.SetMergeLimit(1 << 10)
	if _, err := cdb.Exec("assert exists (select * from I)"); err != nil {
		t.Errorf("merge within limit failed: %v", err)
	}
	// The merge collapsed six components into one with 64 alternatives.
	if cdb.ComponentCount() != 1 || cdb.WorldCount().Cmp(big.NewInt(64)) != 0 {
		t.Errorf("post-merge structure: %s", cdb)
	}
}

// TestCompactCreateAsAssertUnderMergeLimit: CREATE TABLE AS … ASSERT
// decides its store on the world-set the assert leaves. Before the assert
// the store's merge (I's 4 alternatives times J's 8) exceeds the limit;
// after it, one that keeps 2 of J's 8 worlds lets the store merge fit (4 × 2
// ≤ 16) — the statement runs, notes one merge and stores what the naive
// engine stores — while one that keeps 4 still does not (4 × 4 > 8): the
// statement fails for size and leaves the world-set as it was.
func TestCompactCreateAsAssertUnderMergeLimit(t *testing.T) {
	open := func(dbs ...interface{ MustExec(string) *Result }) {
		for _, q := range []string{
			"create table R (K, V)",
			"insert into R values (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)",
			"create table S (K, V)",
			"insert into S values (0, 0), (0, 1), (1, 0), (1, 1)",
			"create table I as select * from S repair by key K",
			"create table J as select * from R repair by key K",
		} {
			for _, db := range dbs {
				db.MustExec(q)
			}
		}
	}
	closed := func(db interface{ MustExec(string) *Result }, sql string) []string {
		var out []string
		for _, tp := range db.MustExec(sql).First().Rows() {
			out = append(out, fmt.Sprintf("%v", tp))
		}
		sort.Strings(out)
		return out
	}
	cdb, db := OpenCompact(), Open()
	open(cdb, db)
	cdb.SetMergeLimit(16)
	const fits = "create table X as select count(*) as N, sum(J.V) as M from I, J where I.V <= J.V assert not exists (select * from J where V = 1 and K < 2)"
	before := cdb.RouteCounts()
	cdb.MustExec(fits)
	db.MustExec(fits)
	if after := cdb.RouteCounts(); after["merge"] != before["merge"]+1 {
		t.Errorf("routes %v -> %v, want one more merge", before, after)
	}
	if got, want := closed(cdb, "select conf, N, M from X"), closed(db, "select conf, N, M from X"); !slices.Equal(got, want) {
		t.Errorf("compact stored %v, naive %v", got, want)
	}

	cdb = OpenCompact()
	open(cdb)
	worlds := cdb.WorldCount().String()
	cdb.SetMergeLimit(8)
	const tooBig = "create table Y as select count(*) as N from I, J assert not exists (select * from J where V = 1 and K = 2)"
	if _, err := cdb.Exec(tooBig); err == nil || !strings.Contains(err.Error(), "exceeds 8 alternatives") {
		t.Errorf("Exec(%q) = %v, want a merge past the limit", tooBig, err)
	}
	if got := cdb.WorldCount().String(); got != worlds {
		t.Errorf("a failed statement left %s worlds, want %s", got, worlds)
	}
}

func TestCompactExpandGuard(t *testing.T) {
	cdb := OpenCompact()
	rows := [][]any{}
	for k := 0; k < 20; k++ {
		rows = append(rows, []any{k, 0}, []any{k, 1})
	}
	if err := cdb.Register("R", []string{"K", "V"}, rows); err != nil {
		t.Fatal(err)
	}
	cdb.MustExec("create table I as select * from R repair by key K")
	if _, err := cdb.Expand(16); err == nil {
		t.Error("expansion beyond limit must fail")
	}
}

func TestCompactRegisterErrors(t *testing.T) {
	cdb := OpenCompact()
	if err := cdb.Register("R", []string{"K"}, [][]any{{struct{}{}}}); err == nil {
		t.Error("bad cell type must fail")
	}
}

func TestDBCompactRoundTrip(t *testing.T) {
	// Naive world-set → factorized compact DB → expand → same worlds.
	db := Open()
	db.MustExec(`create table R (A, B, D)`)
	db.MustExec(`insert into R values
		('a1', 10, 2), ('a1', 15, 6), ('a2', 14, 4), ('a2', 20, 5), ('a3', 20, 6)`)
	db.MustExec(`create table I as select A, B from R repair by key A weight D`)

	cdb, err := db.Compact("I")
	if err != nil {
		t.Fatal(err)
	}
	// Three key groups; a3's is a singleton (certain) → 2 components.
	if cdb.ComponentCount() != 2 {
		t.Errorf("components = %d, want 2", cdb.ComponentCount())
	}
	if cdb.WorldCount().Cmp(big.NewInt(4)) != 0 {
		t.Errorf("worlds = %s", cdb.WorldCount())
	}
	c, err := confOf(cdb, "select conf from I where A = 'a1' and B = 10")
	if err != nil || math.Abs(c-0.25) > 1e-9 {
		t.Errorf("conf after round trip = %v, %v", c, err)
	}
	// And back again to a naive DB.
	back, err := cdb.Expand(0)
	if err != nil || back.WorldCount() != 4 {
		t.Errorf("expand after compact = %v, %v", back, err)
	}
}

func TestDBCompactMissingRelation(t *testing.T) {
	db := Open()
	db.MustExec("create table P (A)")
	if _, err := db.Compact("Missing"); err == nil {
		t.Error("missing relation must fail")
	}
}

// TestCompactSelectComponentwise: Exec answers SELECT closures through the
// decomposition-aware executor — no component merge for
// decomposable queries, and the decomposition left untouched.
func TestCompactSelectComponentwise(t *testing.T) {
	cdb := OpenCompact()
	if err := cdb.Register("R", []string{"K", "V"}, [][]any{
		{"k1", 1}, {"k1", 2}, {"k2", 1}, {"k2", 3}, {"k3", 5},
	}); err != nil {
		t.Fatal(err)
	}
	cdb.MustExec("create table I as select * from R repair by key K")
	res, err := cdb.Exec("select possible K, V from I")
	if err != nil {
		t.Fatal(err)
	}
	rel := res.First()
	if rel.Len() != 5 {
		t.Errorf("possible rows = %d, want 5", rel.Len())
	}
	res, err = cdb.Exec("select conf, K, V from I")
	if err != nil {
		t.Fatal(err)
	}
	rel = res.First()
	for _, tp := range rel.Rows() {
		want := 0.5
		if tp[0].String() == "k3" {
			want = 1
		}
		if got := tp[len(tp)-1].AsFloat(); math.Abs(got-want) > 1e-9 {
			t.Errorf("conf(%v) = %v, want %v", tp, got, want)
		}
	}
	if got := cdb.MergeCount(); got != 0 {
		t.Errorf("Select merged %d times, want 0", got)
	}
	if got := cdb.RouteCounts()["componentwise"]; got == 0 {
		t.Error("Select did not use the componentwise path")
	}
	if got := cdb.ComponentCount(); got != 3 {
		t.Errorf("components = %d, want 3 untouched", got)
	}
	// A world-dependent plain SELECT answers as a conditional relation —
	// one row per alternative, annotated with its condition — while a
	// non-decomposable one (an aggregate) stays refused.
	res, err = cdb.Exec("select K from I")
	if err != nil {
		t.Fatalf("plain select over uncertain data = %v, want conditional relation", err)
	}
	rel = res.First()
	if rel.Schema.Names()[rel.Schema.Len()-1] != "cond" {
		t.Errorf("conditional relation schema = %s, want trailing cond", rel.Schema)
	}
	if _, err := cdb.Exec("select sum(V) from I"); err == nil {
		t.Error("plain aggregate over uncertain data must fail")
	}
	// A grouped core correlates the components, so the same possible set
	// comes back from the merge path, restructured.
	res, err = cdb.Exec("select possible K, V from I group by K, V")
	if err != nil || res.First().Len() != 5 {
		t.Fatalf("merge-path possible = %v, %v", res, err)
	}
	if cdb.MergeCount() == 0 || cdb.ComponentCount() != 1 {
		t.Error("a query correlating the components must merge them")
	}
}

// TestCompactCreateTableAsAnalyzed: CREATE TABLE AS needs no touching
// list — the analysis finds the components — and stores decomposable
// projections componentwise.
func TestCompactCreateTableAsAnalyzed(t *testing.T) {
	cdb := OpenCompact()
	if err := cdb.Register("R", []string{"K", "V"}, [][]any{
		{"k1", 1}, {"k1", 2}, {"k2", 3}, {"k2", 4},
	}); err != nil {
		t.Fatal(err)
	}
	cdb.MustExec("create table I as select * from R repair by key K")
	// No touching list: the analysis discovers I's components itself.
	if _, err := cdb.Exec("create table Big as select K, V from I where V >= 2"); err != nil {
		t.Fatal(err)
	}
	if got := cdb.MergeCount(); got != 0 {
		t.Errorf("materialize merged %d times, want 0", got)
	}
	res, err := cdb.Exec("select certain K from Big")
	if err != nil {
		t.Fatal(err)
	}
	rel := res.First()
	if rel.Len() != 1 || rel.Rows()[0][0].String() != "k2" {
		t.Errorf("certain Big = %v", rel.Rows())
	}
}

// TestCompactAssertDerivesTouching: ASSERT finds the uncertain relations
// its condition reads by itself — omitting the touching list no longer
// silently evaluates the condition against certain parts only.
func TestCompactAssertDerivesTouching(t *testing.T) {
	cdb := OpenCompact()
	if err := cdb.Register("R", []string{"K", "V"}, [][]any{
		{"k1", 1}, {"k1", 2},
	}); err != nil {
		t.Fatal(err)
	}
	cdb.MustExec("create table I as select * from R repair by key K")
	// No touching list: the condition's subquery still sees I's
	// alternatives, so the assert keeps exactly the V=1 world.
	if _, err := cdb.Exec("assert exists (select * from I where V = 1)"); err != nil {
		t.Fatal(err)
	}
	if got := cdb.WorldCount().Int64(); got != 1 {
		t.Fatalf("worlds after assert = %d, want 1", got)
	}
	c, err := confOf(cdb, "select conf from I where K = 'k1' and V = 1")
	if err != nil || math.Abs(c-1) > 1e-9 {
		t.Fatalf("conf after assert = %v, %v", c, err)
	}
}

// TestCompactApproxConf: APPROX CONF on the public compact surface. While
// the exact routing fits it is byte-identical to CONF; when the merge a
// component-correlating query needs exceeds the merge limit (where CONF
// errors), the seeded Monte-Carlo estimator answers instead,
// deterministically: 1000 samples from a fixed seed.
func TestCompactApproxConf(t *testing.T) {
	cdb := OpenCompact()
	if err := cdb.Register("R", []string{"K", "V"}, [][]any{
		{"k1", 1}, {"k1", 2}, {"k2", 1}, {"k2", 3}, {"k3", 5},
	}); err != nil {
		t.Fatal(err)
	}
	cdb.MustExec("create table I as select * from R repair by key K")
	exact := cdb.MustExec("select conf, K, V from I").First()
	approx := cdb.MustExec("select approx conf, K, V from I").First()
	if exact.Len() != approx.Len() {
		t.Fatalf("rows: exact %d, approx %d", exact.Len(), approx.Len())
	}
	for i := range exact.Rows() {
		if exact.Rows()[i].Key() != approx.Rows()[i].Key() {
			t.Errorf("row %d: approx %v, exact %v", i, approx.Rows()[i], exact.Rows()[i])
		}
	}

	// A grouped core needs the merge path; past its limit plain CONF
	// refuses and APPROX CONF estimates.
	cdb.SetMergeLimit(2)
	if _, err := cdb.Exec("select conf, K, V from I group by K, V"); err == nil {
		t.Fatal("conf over the merge limit must fail")
	}
	est := cdb.MustExec("select approx conf, K, V from I group by K, V").First()
	if est.Len() != exact.Len() {
		t.Fatalf("estimated rows = %d, want %d", est.Len(), exact.Len())
	}
	// The Monte-Carlo route appends the conf estimate plus the cerr
	// standard-error bound (±1/(2√samples)).
	n := est.Schema.Len()
	if got, got2 := est.Schema.At(n-2).Name, est.Schema.At(n-1).Name; got != "conf" || got2 != "cerr" {
		t.Fatalf("trailing columns = %q, %q, want conf, cerr", got, got2)
	}
	for _, tp := range est.Rows() {
		want := 0.5
		if tp[0].String() == "k3" {
			want = 1
		}
		if got := tp[len(tp)-2].AsFloat(); math.Abs(got-want) > 0.06 {
			t.Errorf("approx conf(%v) = %v, want %v ± 0.06", tp, got, want)
		}
		if got := tp[len(tp)-1].AsFloat(); got != 1/(2*math.Sqrt(1000)) {
			t.Errorf("cerr(%v) = %v, want %v", tp, got, 1/(2*math.Sqrt(1000)))
		}
	}
	// A fixed seed: the same estimates again.
	again := cdb.MustExec("select approx conf, K, V from I group by K, V").First()
	for i := range est.Rows() {
		if est.Rows()[i].Key() != again.Rows()[i].Key() {
			t.Errorf("row %d not deterministic: %v vs %v", i, est.Rows()[i], again.Rows()[i])
		}
	}
}

// TestCompactTypedMethodsAreExec: SELECT, GROUP WORLDS BY, ASSERT and CREATE
// TABLE AS reach CompactDB through Exec alone. Each statement here either
// refuses on the compact engine (ErrCompactUnsupported) or does what the
// naive engine does with it: the same closed groups, the same failure, the
// same surviving world count and the same materialized relation. The naive
// engine runs an ASSERT as CREATE TABLE AS SELECT … ASSERT. A CREATE TABLE AS
// over a taken name fails as "already exists" on both, before the split
// reads a weight.
func TestCompactTypedMethodsAreExec(t *testing.T) {
	setup := []string{
		"create table R (K, V, W)",
		"insert into R values (0, 1, 1), (0, 2, 3), (1, 5, 1), (1, 6, 1), (2, 7, 1)",
		"create table I as select * from R repair by key K weight W",
	}
	// groups renders a result's closed groups: probability and sorted rows.
	groups := func(res *Result) string {
		var b strings.Builder
		for _, g := range res.Groups {
			fmt.Fprintf(&b, "P=%.9f %v\n", g.Prob, g.Rel.Sort().Rows())
		}
		return b.String()
	}
	// possibleD renders D, the relation the materializing cases create ("-"
	// when absent).
	possibleD := func(db statements) string {
		res, err := db.Exec("select possible * from D")
		if err != nil {
			return "-"
		}
		return groups(res)
	}
	for _, c := range []struct {
		name, text string
		naive      string   // the naive engine's statement; "" for text itself
		refused    bool     // the compact engine refuses with ErrCompactUnsupported
		pre        []string // statements run first, on both engines
		err        string   // both engines fail with an error containing err
	}{
		{name: "select closure", text: "select possible K, V from I where V > 1"},
		{name: "select per-world aggregate", text: "select sum(V) from I", refused: true},
		{name: "select with repair", text: "select * from R repair by key K", refused: true},
		{name: "select groups", text: "select possible V from I group worlds by (select V from I where K = 0)"},
		{name: "select groups, I-SQL grouping", text: "select possible V from I group worlds by (select possible V from I)"},
		{name: "assert", text: "assert not exists (select * from I where V = 2)",
			naive: "create table A as select * from I assert not exists (select * from I where V = 2)"},
		{name: "assert with I-SQL", text: "assert exists (select possible * from I where V = 2)", refused: true},
		{name: "assert dropping every world", text: "assert exists (select * from I where V = 99)",
			naive: "create table A as select * from I assert exists (select * from I where V = 99)"},
		{name: "materialize", text: "create table D as select K, V from I where V > 1"},
		{name: "materialize over an existing name", text: "create table I as select K from I", err: "already exists"},
		{name: "repair into an existing name", text: "create table J as select * from Raw repair by key A weight W",
			pre: []string{
				"create table Raw (A, B, W)",
				"insert into Raw values (1, 2, 1), (1, 3, -1), (2, 5, 1)",
				"create table J (X)",
			}, err: "already exists"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cdb, db := OpenCompact(), Open()
			for _, q := range append(setup, c.pre...) {
				cdb.MustExec(q)
				db.MustExec(q)
			}
			cres, cerr := cdb.Exec(c.text)
			if c.refused {
				if !errors.Is(cerr, ErrCompactUnsupported) {
					t.Fatalf("Exec(%q) = %v, want a refusal wrapping ErrCompactUnsupported", c.text, cerr)
				}
				return
			}
			naive := c.naive
			if naive == "" {
				naive = c.text
			}
			nres, nerr := db.Exec(naive)
			if (cerr == nil) != (nerr == nil) {
				t.Fatalf("compact Exec(%q): %v; naive Exec(%q): %v", c.text, cerr, naive, nerr)
			}
			if c.err != "" && (cerr == nil || !strings.Contains(cerr.Error(), c.err) || !strings.Contains(nerr.Error(), c.err)) {
				t.Fatalf("compact: %v; naive: %v; want both to fail with %q", cerr, nerr, c.err)
			}
			if cerr != nil {
				return
			}
			if got, want := groups(cres), groups(nres); got != want {
				t.Errorf("compact answered\n%snaive answered\n%s", got, want)
			}
			if got, want := cdb.WorldCount().String(), fmt.Sprint(db.WorldCount()); got != want {
				t.Errorf("compact left %s worlds, naive %s", got, want)
			}
			if got, want := possibleD(cdb.statements), possibleD(db.statements); got != want {
				t.Errorf("compact D: %s; naive D: %s", got, want)
			}
		})
	}
}

// TestCompactAssertIsParsed: the standalone ASSERT is a statement of the
// grammar, routed like every other — so the spellings a sniff of the first
// seven bytes missed work, the statement gets a parse span, EXPLAIN accepts
// it, and the naive engine refuses it by name.
func TestCompactAssertIsParsed(t *testing.T) {
	fresh := func() *CompactDB {
		t.Helper()
		cdb := OpenCompact()
		if err := cdb.Register("R", []string{"K", "V"}, [][]any{{0, 0}, {0, 1}, {1, 0}, {1, 1}}); err != nil {
			t.Fatal(err)
		}
		cdb.MustExec("create table I as select * from R repair by key K")
		return cdb
	}
	for _, sql := range []string{
		"ASSERT\n exists (select * from I where K = 0 and V = 1)",
		"-- note\nassert exists (select * from I where K = 0 and V = 1);",
		"explain analyze assert exists (select * from I where K = 0 and V = 1)",
	} {
		cdb := fresh()
		res, tr, err := cdb.ExecTraced(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if cdb.WorldCount().Cmp(big.NewInt(2)) != 0 {
			t.Errorf("%q left %s worlds, want 2", sql, cdb.WorldCount())
		}
		if !strings.Contains(tr.Render(), "parse") {
			t.Errorf("%q ran without a parse span:\n%s", sql, tr.Render())
		}
		if !strings.Contains(res.String(), "assert") && !strings.Contains(res.String(), "ASSERT") {
			t.Errorf("%q answered %q", sql, res)
		}
	}
	cdb := fresh()
	res, err := cdb.Exec("explain assert exists (select * from I where V = 1)")
	if err != nil || !strings.Contains(res.String(), "ASSERT EXISTS") {
		t.Errorf("EXPLAIN ASSERT = %v, %v", res, err)
	}
	if cdb.WorldCount().Cmp(big.NewInt(4)) != 0 {
		t.Errorf("EXPLAIN ASSERT executed: %s worlds left", cdb.WorldCount())
	}

	db := Open()
	if _, err := db.Exec("assert exists (select * from R)"); err == nil || !strings.Contains(err.Error(), "standalone ASSERT") {
		t.Errorf("naive engine on a standalone ASSERT: %v, want a refusal naming the statement", err)
	}
}
