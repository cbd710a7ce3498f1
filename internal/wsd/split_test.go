package wsd

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"maybms/internal/core"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
	"maybms/internal/world"
)

// mustSelect parses a plain SQL SELECT.
func mustSelect(t *testing.T, sql string) *sqlparse.SelectStmt {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return stmt.(*sqlparse.SelectStmt)
}

// TestRepairOfChoiceSplitsComponent: a choice component contributes
// several tuples per alternative, so repairing it by key spawns real
// conditional key-group choices nested under the choice's alternatives —
// with no merge and the world multiset identical to the naive engine's.
func TestRepairOfChoiceSplitsComponent(t *testing.T) {
	base := relation.New(schema.New("K", "V", "W"))
	// Partition attribute K: k=0 → {(0,0),(0,1)}, k=1 → {(1,0),(1,1),(1,2)}.
	base.MustAppend(row(0, 0, 1))
	base.MustAppend(row(0, 1, 2))
	base.MustAppend(row(1, 0, 1))
	base.MustAppend(row(1, 1, 1))
	base.MustAppend(row(1, 2, 2))

	s := core.NewSession(true)
	if err := s.Register("C", base); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("create table P as select K, V, W from C choice of K"); err != nil {
		t.Fatal(err)
	}
	// Repair P by V: in the k=0 world groups V=0,V=1 are singletons; in
	// the k=1 world too — so key by W instead to get a real choice:
	// k=0 world: W groups {1},{2}; k=1 world: W=1 has two candidates.
	if _, err := s.Exec("create table Q as select K, V, W from P repair by key W"); err != nil {
		t.Fatal(err)
	}

	d := New(true)
	if err := d.PutCertain("C", base); err != nil {
		t.Fatal(err)
	}
	if err := d.choiceOf("C", "P", []string{"K"}, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec("create table Q as select * from P repair by key W"); err != nil {
		t.Fatal(err)
	}
	if d.MergeCount() != 0 {
		t.Errorf("repair of a single choice component merged %d times", d.MergeCount())
	}
	// The choice component plus one child per (alternative, key group):
	// k=0 world has W groups {1},{2}; k=1 world has {1,1},{2} — 4 children.
	if d.ComponentCount() != 5 {
		t.Errorf("components = %d, want 5 (choice + 4 conditional children)", d.ComponentCount())
	}
	if d.RouteCounts()["conditional"] != 1 {
		t.Error("nested repair did not route conditional")
	}
	// Worlds: k=0 world repairs 1 way, k=1 world 2 ways.
	if got := d.WorldCount().String(); got != "3" {
		t.Errorf("world count = %s, want 3", got)
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"P", "Q"} {
		matchViews(t, naiveViews(t, s, rel), wsdViews(t, d, rel))
	}
}

// TestChainedRepairRefinesInPlace: repairing a repaired relation by a
// refining key nests one child per (feeder alternative, key group) —
// zero merges, equivalence via expansion.
func TestChainedRepairRefinesInPlace(t *testing.T) {
	base := relation.New(schema.New("K", "V", "W"))
	for k := 0; k < 3; k++ {
		base.MustAppend(row(k, 0, 1))
		base.MustAppend(row(k, 1, 3))
	}

	s := core.NewSession(true)
	if err := s.Register("R", base); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("create table I as select K, V, W from R repair by key K weight W"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("create table J as select K, V, W from I repair by key K"); err != nil {
		t.Fatal(err)
	}

	d := New(true)
	if err := d.PutCertain("R", base); err != nil {
		t.Fatal(err)
	}
	if err := d.repairByKey("R", "I", []string{"K"}, "W"); err != nil {
		t.Fatal(err)
	}
	if err := d.repairByKey("I", "J", []string{"K"}, ""); err != nil {
		t.Fatal(err)
	}
	if d.MergeCount() != 0 {
		t.Errorf("chained repair merged %d times", d.MergeCount())
	}
	// 3 repair components, each with one child per alternative (the K
	// groups are singletons inside each alternative).
	if d.ComponentCount() != 9 {
		t.Errorf("components = %d, want 9 (3 repairs + 6 conditional children)", d.ComponentCount())
	}
	if got := d.WorldCount().String(); got != "8" {
		t.Errorf("world count = %s, want 8", got)
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"I", "J"} {
		matchViews(t, naiveViews(t, s, rel), wsdViews(t, d, rel))
	}
}

// TestRepairUncertainCrossKeyMerges: two components contributing
// candidates under a common key must merge — and only those; a third
// independent component stays untouched.
func TestRepairUncertainCrossKeyMerges(t *testing.T) {
	base := relation.New(schema.New("K", "V", "W"))
	// Groups K=0 and K=1 produce components whose V values collide (both
	// contribute V=7 tuples); group K=2 uses disjoint V values.
	base.MustAppend(row(0, 7, 1))
	base.MustAppend(row(0, 8, 1))
	base.MustAppend(row(1, 7, 1))
	base.MustAppend(row(1, 9, 1))
	base.MustAppend(row(2, 4, 1))
	base.MustAppend(row(2, 5, 1))

	s := core.NewSession(true)
	if err := s.Register("R", base); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("create table I as select K, V, W from R repair by key K"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("create table J as select K, V, W from I repair by key V"); err != nil {
		t.Fatal(err)
	}

	d := New(true)
	if err := d.PutCertain("R", base); err != nil {
		t.Fatal(err)
	}
	if err := d.repairByKey("R", "I", []string{"K"}, ""); err != nil {
		t.Fatal(err)
	}
	if err := d.repairByKey("I", "J", []string{"V"}, ""); err != nil {
		t.Fatal(err)
	}
	if d.MergeCount() != 1 {
		t.Errorf("cross-key repair merged %d times, want exactly 1", d.MergeCount())
	}
	// The merged pair (4 alternatives) nests 7 children — alternative
	// (7,7) has one two-candidate V group, the other three have two
	// singleton groups each — and the untouched K=2 component nests one
	// child per alternative.
	if d.ComponentCount() != 11 {
		t.Errorf("components = %d, want 11 (merged pair + singleton + 9 children)", d.ComponentCount())
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"I", "J"} {
		matchViews(t, naiveViews(t, s, rel), wsdViews(t, d, rel))
	}
}

// TestRepairUncertainWithCertainPart: the source mixes a certain part
// with component contributions; certain-only singleton groups land in the
// result's certain part, multi-candidate certain-only groups become fresh
// components, and keys shared between the certain part and a component
// stay conditional choices of that component.
func TestRepairUncertainWithCertainPart(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for trial := 0; trial < 10; trial++ {
		base := randomKeyedRelation(r, 1+r.Intn(2), 2)

		s := core.NewSession(true)
		d := New(true)
		if err := s.Register("R", base); err != nil {
			t.Fatal(err)
		}
		if err := d.PutCertain("R", base); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Exec("create table I as select K, V, W from R repair by key K"); err != nil {
			t.Fatal(err)
		}
		if err := d.repairByKey("R", "I", []string{"K"}, ""); err != nil {
			t.Fatal(err)
		}
		// Mix certain tuples into I's uncertain world: INSERT cannot target
		// an uncertain relation, so build the mix as a CTAS union instead.
		mix := "create table M as select K, V, W from I union select K, V, W from R where V >= 1"
		if _, err := s.Exec(mix); err != nil {
			t.Fatal(err)
		}
		if err := d.createTableAs("M", mustSelect(t, "select K, V, W from I union select K, V, W from R where V >= 1")); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Exec("create table J as select K, V, W from M repair by key V"); err != nil {
			t.Fatal(err)
		}
		if err := d.repairByKey("M", "J", []string{"V"}, ""); err != nil {
			t.Fatal(err)
		}
		if err := d.CheckInvariant(); err != nil {
			t.Fatal(err)
		}
		for _, rel := range []string{"I", "M", "J"} {
			matchViews(t, naiveViews(t, s, rel), wsdViews(t, d, rel))
		}
	}
}

// TestChoiceOfUncertainSource: choice over a repaired relation merges the
// feeding components into one (a single global partition choice) and then
// splits per alternative; a single-component source needs no merge.
func TestChoiceOfUncertainSource(t *testing.T) {
	base := relation.New(schema.New("K", "V", "W"))
	base.MustAppend(row(0, 0, 1))
	base.MustAppend(row(0, 1, 2))
	base.MustAppend(row(1, 0, 1))
	base.MustAppend(row(1, 1, 1))

	s := core.NewSession(true)
	if err := s.Register("R", base); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("create table I as select K, V, W from R repair by key K weight W"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("create table P as select K, V, W from I choice of V"); err != nil {
		t.Fatal(err)
	}

	d := New(true)
	if err := d.PutCertain("R", base); err != nil {
		t.Fatal(err)
	}
	if err := d.repairByKey("R", "I", []string{"K"}, "W"); err != nil {
		t.Fatal(err)
	}
	if err := d.choiceOf("I", "P", []string{"V"}, ""); err != nil {
		t.Fatal(err)
	}
	if d.MergeCount() != 1 {
		t.Errorf("choice over two components merged %d times, want 1", d.MergeCount())
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"I", "P"} {
		matchViews(t, naiveViews(t, s, rel), wsdViews(t, d, rel))
	}

	// Single-component source: no merge at all.
	d2 := New(true)
	s2 := core.NewSession(true)
	if err := d2.PutCertain("C", base); err != nil {
		t.Fatal(err)
	}
	if err := s2.Register("C", base); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Exec("create table P as select K, V, W from C choice of K"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Exec("create table Q as select K, V, W from P choice of V"); err != nil {
		t.Fatal(err)
	}
	if err := d2.choiceOf("C", "P", []string{"K"}, ""); err != nil {
		t.Fatal(err)
	}
	if err := d2.choiceOf("P", "Q", []string{"V"}, ""); err != nil {
		t.Fatal(err)
	}
	if d2.MergeCount() != 0 {
		t.Errorf("chained choice merged %d times", d2.MergeCount())
	}
	for _, rel := range []string{"P", "Q"} {
		matchViews(t, naiveViews(t, s2, rel), wsdViews(t, d2, rel))
	}
}

// TestRepairUncertainBeyondExpansion: a chained repair over 2^18 worlds —
// far beyond what any enumeration or merge could hold — splits in place
// with zero merges and answers closure queries componentwise.
func TestRepairUncertainBeyondExpansion(t *testing.T) {
	const k = 18
	d := New(true)
	base := relation.New(schema.New("K", "V", "W"))
	for i := 0; i < k; i++ {
		base.MustAppend(row(i, 0, 1))
		base.MustAppend(row(i, 1, 1))
	}
	if err := d.PutCertain("R", base); err != nil {
		t.Fatal(err)
	}
	if err := d.repairByKey("R", "I", []string{"K"}, ""); err != nil {
		t.Fatal(err)
	}
	// Refining chained repair: key (K, V) keeps every group inside its
	// component.
	if err := d.repairByKey("I", "J", []string{"K", "V"}, ""); err != nil {
		t.Fatal(err)
	}
	if d.MergeCount() != 0 {
		t.Errorf("chained repair over 2^%d worlds merged %d times", k, d.MergeCount())
	}
	if want, got := "262144", d.WorldCount().String(); got != want {
		t.Errorf("world count = %s, want %s", got, want)
	}
	rel, err := d.selectClosure(mustSelect(t, "select K, V from J"), core.ClosureConf)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2*k {
		t.Fatalf("conf rows = %d, want %d", rel.Len(), 2*k)
	}
	for _, tp := range rel.Rows() {
		if c := tp[len(tp)-1].AsFloat(); math.Abs(c-0.5) > 1e-9 {
			t.Fatalf("conf = %v, want 0.5", c)
		}
	}
	if d.MergeCount() != 0 {
		t.Errorf("closure over the chained repair merged %d times", d.MergeCount())
	}
}

// TestRepairUncertainMergeLimit: a conditional split whose key groups
// multiply far beyond MergeLimit still succeeds — the children are a
// linear representation, so no expansion bounds the split — and closures
// answer by the conditional tree fold without merging.
func TestRepairUncertainMergeLimit(t *testing.T) {
	d := New(true)
	d.MergeLimit = 8
	base := relation.New(schema.New("K", "V", "W"))
	// One choice alternative contributes 4 key groups of 2 candidates:
	// 2^4 = 16 repairs > MergeLimit, held as 4 nested children.
	for v := 0; v < 4; v++ {
		base.MustAppend(row(0, v, 1))
		base.MustAppend(row(0, v, 2))
	}
	base.MustAppend(row(1, 9, 1))
	if err := d.PutCertain("C", base); err != nil {
		t.Fatal(err)
	}
	if err := d.choiceOf("C", "P", []string{"K"}, ""); err != nil {
		t.Fatal(err)
	}
	if err := d.repairByKey("P", "Q", []string{"V"}, ""); err != nil {
		t.Fatalf("conditional split beyond MergeLimit = %v, want success", err)
	}
	if d.MergeCount() != 0 {
		t.Errorf("conditional split merged %d times", d.MergeCount())
	}
	if got := d.WorldCount().String(); got != "17" {
		t.Errorf("world count = %s, want 17 (16 + 1)", got)
	}
	rel, err := d.selectClosure(mustSelect(t, "select K, V, W from Q"), core.ClosureConf)
	if err != nil {
		t.Fatal(err)
	}
	if d.MergeCount() != 0 {
		t.Errorf("conf over the conditional split merged %d times", d.MergeCount())
	}
	for _, tp := range rel.Rows() {
		want := 0.25 // P(K=0)=1/2 times the group's 1/2
		if tp[0].AsFloat() == 1 {
			want = 0.5 // the K=1 world's single candidate
		}
		if c := tp[len(tp)-1].AsFloat(); math.Abs(c-want) > 1e-9 {
			t.Fatalf("conf(%s) = %v, want %v", tp[:len(tp)-1].Key(), c, want)
		}
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestRepairBadWeightLeavesNoOrphans: a weight error in a later key
// group must leave the decomposition untouched — no orphan components
// from earlier groups — so a corrected retry gives the exact world-set.
// The split adds components as it builds them; the statement runner's
// snapshot undoes the failed statement.
func TestRepairBadWeightLeavesNoOrphans(t *testing.T) {
	d := New(true)
	rel := relation.New(schema.New("K", "V", "W"))
	rel.MustAppend(row("a1", 1, 1))
	rel.MustAppend(row("a1", 2, 2))
	rel.MustAppend(row("a2", 1, -5)) // bad weight in the second group
	rel.MustAppend(row("a2", 2, 1))
	if err := d.PutCertain("R", rel); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Exec(d, "create table I as select * from R repair by key K weight W"); err == nil {
		t.Fatal("negative weight must fail")
	}
	if d.ComponentCount() != 0 {
		t.Fatalf("failed repair left %d orphan component(s)", d.ComponentCount())
	}
	if _, err := d.Schema("I"); !errors.Is(err, world.ErrUnknown) {
		t.Fatalf("failed repair left I registered: %v", err)
	}
	// Retry without weights: exactly 2x2 worlds.
	if _, err := core.Exec(d, "create table I as select * from R repair by key K"); err != nil {
		t.Fatal(err)
	}
	if got := d.WorldCount().String(); got != "4" {
		t.Errorf("world count after retry = %s, want 4", got)
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}
