package core

// atomicity_test.go checks that failing statements never leave the session
// half-applied — the cross-world counterpart of transactional atomicity
// that the paper's constraint semantics (§2) requires. No statement stages
// its writes for this: the runner restores the snapshot it took before a
// failed statement (fault_test.go fails every statement at every poll).

import (
	"testing"
)

func TestCreateAsFailureLeavesNoPartialState(t *testing.T) {
	s := NewSession(true)
	mustExec(t, s, "create table P (A)")
	mustExec(t, s, "insert into P values (1), (2)")
	// Split so several worlds would be touched.
	mustExec(t, s, "create table Q as select A from P choice of A")
	if s.WorldCount() != 2 {
		t.Fatal("setup: want 2 worlds")
	}
	// Duplicate output column names fail at materialization; the failure
	// must leave every world without the new relation.
	if _, err := s.Exec("create table Bad as select p1.A, p2.A from P p1, P p2"); err == nil {
		t.Fatal("expected materialization failure")
	}
	for _, w := range s.Set().Worlds {
		if w.Has("Bad") {
			t.Errorf("world %s has partial Bad relation", w.Name)
		}
	}
	// The world-set itself is untouched.
	if s.WorldCount() != 2 {
		t.Errorf("world count changed to %d", s.WorldCount())
	}
	if err := s.Set().CheckInvariant(); err != nil {
		t.Error(err)
	}
}

func TestFailedSplitLeavesSessionUntouched(t *testing.T) {
	s := NewSession(true)
	s.MaxWorlds = 4
	mustExec(t, s, "create table P (K, V)")
	mustExec(t, s, "insert into P values (1, 'a'), (1, 'b'), (2, 'a'), (2, 'b'), (3, 'a'), (3, 'b')")
	before := snapshot(s)
	if _, err := s.Exec("create table Q as select K, V from P repair by key K"); err == nil {
		t.Fatal("expected MaxWorlds failure")
	}
	if snapshot(s) != before {
		t.Error("failed split mutated the session")
	}
}

func TestFailedAssertLeavesSessionUntouched(t *testing.T) {
	s := NewSession(true)
	loadFigure1(t, s)
	repairFigure2(t, s)
	before := snapshot(s)
	if _, err := s.Exec("create table Q as select * from I assert 1 = 2"); err == nil {
		t.Fatal("expected assert-all-gone failure")
	}
	if snapshot(s) != before {
		t.Error("failed assert mutated the session")
	}
}

// TestSnapshotKeepsKeysAndViews: Snapshot copies neither the key map nor the
// view map, so every statement that writes one writes a copy. A restore
// after CREATE TABLE with a key, CREATE VIEW and DROP of each therefore
// gives back the declarations as they were before the statement.
func TestSnapshotKeepsKeysAndViews(t *testing.T) {
	s := NewSession(true)
	mustExec(t, s, "create table P (A, primary key (A))")
	mustExec(t, s, "create view V as select * from P")
	for _, sql := range []string{
		"create table Q (A, primary key (A))",
		"create view W as select * from P",
		"drop table P",
		"drop table V",
	} {
		restore := s.Snapshot()
		mustExec(t, s, sql)
		restore()
		if got := s.PrimaryKey("P"); len(got) != 1 || got[0] != "A" {
			t.Errorf("%q then restore: key of P = %v, want [A]", sql, got)
		}
		if s.PrimaryKey("Q") != nil {
			t.Errorf("%q then restore: Q keeps a key", sql)
		}
		if !s.IsView("V") || s.IsView("W") {
			t.Errorf("%q then restore: V is a view %t, W is a view %t; want true, false", sql, s.IsView("V"), s.IsView("W"))
		}
	}
}
