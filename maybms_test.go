package maybms

import (
	"math"
	"math/big"
	"strings"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	db := Open()
	db.MustExec(`create table R (A, B, C, D)`)
	db.MustExec(`insert into R values
		('a1', 10, 'c1', 2), ('a1', 15, 'c2', 6),
		('a2', 14, 'c3', 4), ('a2', 20, 'c4', 5),
		('a3', 20, 'c5', 6)`)
	db.MustExec(`create table I as select A, B, C from R repair by key A weight D`)
	if db.WorldCount() != 4 {
		t.Fatalf("worlds = %d", db.WorldCount())
	}
	res, err := db.Exec(`select possible sum(B) from I`)
	if err != nil {
		t.Fatal(err)
	}
	if res.First().Len() != 4 {
		t.Errorf("possible sums = %v", res.First().Rows())
	}
}

func TestRegisterAndWorlds(t *testing.T) {
	db := Open()
	err := db.Register("R", []string{"A", "N"}, [][]any{
		{"x", 1}, {"y", int64(2)}, {"z", 2.5}, {nil, true},
	})
	if err != nil {
		t.Fatal(err)
	}
	worlds := db.Worlds()
	if len(worlds) != 1 || worlds[0].Prob != 1 {
		t.Fatalf("worlds = %+v", worlds)
	}
	if worlds[0].Relations["R"].Len() != 4 {
		t.Errorf("registered rows = %d", worlds[0].Relations["R"].Len())
	}
	if err := db.Register("Bad", []string{"X"}, [][]any{{struct{}{}}}); err == nil {
		t.Error("unsupported cell type must fail")
	}
	if err := db.Register("Ragged", []string{"X"}, [][]any{{1, 2}}); err == nil {
		t.Error("ragged rows must fail")
	}
}

func TestMustExecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustExec should panic on bad SQL")
		}
	}()
	Open().MustExec("select * from missing")
}

func TestParse(t *testing.T) {
	db := Open()
	out, err := db.Parse("select possible a from r")
	if err != nil || !strings.Contains(out, "POSSIBLE") {
		t.Errorf("Parse = %q, %v", out, err)
	}
	if _, err := db.Parse("select from from"); err == nil {
		t.Error("bad SQL must fail to parse")
	}
}

// TestPlanCacheKeepsQuotedIdentifiers: the shared plan cache keys a
// statement by its rendering, so a rendering that drops the quotes of a
// column named "R.A" handed that column's template to R.A (and back) across
// databases. Each order runs in a fresh database after the other has
// warmed the cache.
func TestPlanCacheKeepsQuotedIdentifiers(t *testing.T) {
	quoted, qualified := `select "R.A" from R`, `select R.A from R`
	want := map[string]string{quoted: "2", qualified: "1"}
	for _, open := range []func() statements{
		func() statements { return Open().statements },
		func() statements { return OpenCompact().statements },
	} {
		for _, order := range [][]string{{quoted, qualified}, {qualified, quoted}} {
			db := open()
			db.MustExec(`create table R (A int, "R.A" int)`)
			db.MustExec(`insert into R values (1, 2)`)
			for _, q := range order {
				if got := db.MustExec(q).First().Rows()[0][0].String(); got != want[q] {
					t.Errorf("%T, order %q: %s = %s, want %s", db.engine, order, q, got, want[q])
				}
			}
		}
	}
}

func TestOpenIncomplete(t *testing.T) {
	db := OpenIncomplete()
	if db.Weighted() {
		t.Error("OpenIncomplete must be unweighted")
	}
	db.MustExec("create table P (A)")
	db.MustExec("insert into P values (1), (2)")
	if _, err := db.Exec("select conf from P"); err == nil {
		t.Error("conf must fail on incomplete (unweighted) DB")
	}
}

func TestSetMaxWorlds(t *testing.T) {
	db := Open()
	db.SetMaxWorlds(2)
	db.MustExec("create table P (K, V)")
	db.MustExec("insert into P values (1, 'a'), (1, 'b'), (2, 'a'), (2, 'b')")
	if _, err := db.Exec("select K, V from P repair by key K"); err == nil {
		t.Error("split beyond MaxWorlds must fail")
	}
}

func TestCompactParity(t *testing.T) {
	rows := [][]any{
		{"a1", 10, "c1", 2}, {"a1", 15, "c2", 6},
		{"a2", 14, "c3", 4}, {"a2", 20, "c4", 5},
		{"a3", 20, "c5", 6},
	}
	cols := []string{"A", "B", "C", "D"}

	cdb := OpenCompact()
	if err := cdb.Register("R", cols, rows); err != nil {
		t.Fatal(err)
	}
	cdb.MustExec("create table I as select * from R repair by key A weight D")
	if cdb.WorldCount().Cmp(big.NewInt(4)) != 0 {
		t.Fatalf("compact worlds = %s", cdb.WorldCount())
	}
	if cdb.ComponentCount() != 3 || cdb.AlternativeCount() != 5 {
		t.Errorf("structure = %s", cdb)
	}

	// conf(a1 row with B=10) = 1/4.
	c, err := confOf(cdb, "select conf from I where A = 'a1' and B = 10 and C = 'c1' and D = 2")
	if err != nil || math.Abs(c-0.25) > 1e-9 {
		t.Errorf("conf = %v, %v", c, err)
	}

	// Expand to a naive DB and re-check with full I-SQL.
	ndb, err := cdb.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if ndb.WorldCount() != 4 {
		t.Fatalf("expanded worlds = %d", ndb.WorldCount())
	}
	res, err := ndb.Exec("select conf from I where exists (select * from I where B = 10)")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.First().Rows()[0][0].AsFloat(); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("expanded conf = %g", got)
	}
}

func TestCompactAssertAndMaterialize(t *testing.T) {
	cdb := OpenCompact()
	if err := cdb.Register("R", []string{"A", "B", "C", "D"}, [][]any{
		{"a1", 10, "c1", 2}, {"a1", 15, "c2", 6},
		{"a2", 14, "c3", 4}, {"a2", 20, "c4", 5},
		{"a3", 20, "c5", 6},
	}); err != nil {
		t.Fatal(err)
	}
	cdb.MustExec("create table I as select * from R repair by key A weight D")
	// Example 2.5 on the compact backend.
	if _, err := cdb.Exec("assert not exists (select * from I where C = 'c1')"); err != nil {
		t.Fatal(err)
	}
	if cdb.WorldCount().Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("worlds after assert = %s", cdb.WorldCount())
	}
	// Materialize a selection per world (Example 2.2 shape).
	if _, err := cdb.Exec("create table D2 as select * from I where A = 'a3'"); err != nil {
		t.Fatal(err)
	}
	if cert := cdb.MustExec("select certain * from D2").First(); cert.Len() != 1 {
		t.Errorf("certain D2 = %v", cert)
	}
	if poss := cdb.MustExec("select possible * from I").First(); poss.Len() != 4 {
		t.Errorf("possible I after assert = %v", poss)
	}
	// conf is renormalized: the surviving a1 choice (B=15) is certain.
	c, err := confOf(cdb, "select conf from I where A = 'a1' and B = 15 and C = 'c2' and D = 6")
	if err != nil || math.Abs(c-1) > 1e-9 {
		t.Errorf("conf after assert = %v, %v", c, err)
	}
	if rel := cdb.MustExec("select *, conf from I").First(); rel.Len() != 4 {
		t.Errorf("conf relation = %v", rel)
	}
}

func TestCompactErrors(t *testing.T) {
	cdb := OpenCompact()
	if _, err := cdb.Exec("assert not valid sql (("); err == nil {
		t.Error("bad condition must be rejected")
	}
	if err := cdb.Register("X", []string{"A"}, [][]any{{struct{}{}}}); err == nil {
		t.Error("bad cell type must be rejected")
	}
	incomplete := OpenCompactIncomplete()
	if err := incomplete.Register("R", []string{"K"}, [][]any{{1}, {1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := incomplete.Exec("create table I as select * from R repair by key K weight K"); err == nil {
		t.Error("weight on incomplete compact DB must fail")
	}
}

func TestCoalesceAfterCollapsingUpdate(t *testing.T) {
	db := Open()
	db.MustExec("create table P (K, V)")
	db.MustExec("insert into P values (1, 'a'), (1, 'b'), (2, 'a'), (2, 'b')")
	db.MustExec("create table Q as select K, V from P repair by key K")
	if db.WorldCount() != 4 {
		t.Fatal("setup: want 4 worlds")
	}
	// Collapse the distinguishing column: all repairs become identical.
	db.MustExec("update Q set V = 'x'")
	removed := db.Coalesce()
	if removed != 3 || db.WorldCount() != 1 {
		t.Fatalf("removed %d worlds, %d remain; want 3 removed, 1 left", removed, db.WorldCount())
	}
	// The surviving world carries the whole probability mass.
	if got := db.Worlds()[0].Prob; math.Abs(got-1) > 1e-9 {
		t.Errorf("coalesced prob = %g", got)
	}
	// Queries still work.
	res, err := db.Exec("select conf from Q where exists (select * from Q)")
	if err != nil || res.First().Rows()[0][0].AsFloat() != 1 {
		t.Errorf("post-coalesce query = %v, %v", res, err)
	}
}
