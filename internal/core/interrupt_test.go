package core

// interrupt_test.go: cooperative cancellation *inside* a single world's
// plain-SQL evaluation. The per-world passes have always polled the
// interrupt hook between units of work; these tests pin down the finer
// grain — the algebra operators (Scan/CrossJoin/HashJoin) poll once per
// batch, so one huge cross join in one world no longer runs to completion
// after its request is cancelled.

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

func bigRelation(n int) *relation.Relation {
	rel := relation.New(schema.New("X"))
	for i := 0; i < n; i++ {
		rel.MustAppend(tuple.Tuple{value.Int(int64(i))})
	}
	return rel
}

// TestInterruptAbortsSingleWorldEval: a session with ONE world evaluating
// a three-way cross join (8e6 intermediate rows) aborts early once the
// interrupt hook starts failing, instead of draining the whole product.
func TestInterruptAbortsSingleWorldEval(t *testing.T) {
	s := NewSession(true)
	if err := s.Register("B", bigRelation(200)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	var polls atomic.Int64
	hook := func() error {
		if polls.Add(1) > 4 {
			return boom
		}
		return nil
	}
	_, err := ExecTraced(s, "select count(*) from B b1, B b2, B b3", hook, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("interrupted single-world eval = %v, want boom", err)
	}
	// The iterators polled a bounded number of times before aborting: far
	// fewer polls than rows produced.
	if got := polls.Load(); got > 64 {
		t.Errorf("interrupt polled %d times before aborting, want a handful", got)
	}
	// The hook lived for that statement only.
	res, err := s.Exec("select count(*) from B b1 where X < 3")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PerWorld[0].Rel.Rows()[0][0].AsInt(); got != 3 {
		t.Errorf("post-interrupt count = %d", got)
	}
}

// TestInterruptAbortsSubqueryEval: the hook is discovered through the
// context chain, so scans inside subqueries poll it too — in a SELECT and in
// the row rewrite of an UPDATE or DELETE, which then leave the table as it
// was. The correlated subqueries (matching no row) run once per row of B;
// the uncorrelated self cross join runs once for the statement, and that
// one evaluation is interrupted from inside.
func TestInterruptAbortsSubqueryEval(t *testing.T) {
	for _, sql := range []string{
		"select count(*) from B b1 where exists (select * from B b2 where b2.X = b1.X + 3000)",
		"update B set X = 1 where exists (select * from B b2 where b2.X = B.X - 100000)",
		"delete from B where exists (select * from B b2 where b2.X = B.X - 100000)",
		"update B set X = 1 where exists (select * from B b2, B b3 where b2.X + b3.X < 0)",
		"delete from B where exists (select * from B b2, B b3 where b2.X + b3.X < 0)",
	} {
		s := NewSession(true)
		if err := s.Register("B", bigRelation(2000)); err != nil {
			t.Fatal(err)
		}
		before, _ := s.Set().Worlds[0].Lookup("B")
		boom := errors.New("boom")
		var polls atomic.Int64
		hook := func() error {
			if polls.Add(1) > 4 {
				return boom
			}
			return nil
		}
		if _, err := ExecTraced(s, sql, hook, nil); !errors.Is(err, boom) {
			t.Fatalf("%s: interrupted subquery eval = %v, want boom", sql, err)
		}
		if after, _ := s.Set().Worlds[0].Lookup("B"); after != before {
			t.Errorf("%s: an interrupted statement changed B", sql)
		}
	}
}

// TestInterruptAbortsAssertPredicate: ASSERT conditions evaluate their
// subqueries with the interrupt hook on the context chain, so a huge
// cross join inside an assert aborts early too.
func TestInterruptAbortsAssertPredicate(t *testing.T) {
	s := NewSession(true)
	if err := s.Register("B", bigRelation(200)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	var polls atomic.Int64
	hook := func() error {
		if polls.Add(1) > 4 {
			return boom
		}
		return nil
	}
	_, err := ExecTraced(s, "select * from B assert exists (select * from B b1, B b2, B b3 where b1.X = -1)", hook, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("interrupted assert = %v, want boom", err)
	}
}

// TestInterruptAbortsCompactEval mirrors the check on the WSD engine: a
// componentwise evaluation over a huge certain join aborts from inside the
// iterators.
func TestInterruptAbortsCompactEval(t *testing.T) {
	// Uses the naive session only to confirm the error surfaces through
	// Exec; the WSD-side wiring is exercised in internal/wsd and the
	// server's deadline tests.
	s := NewSession(true)
	var stmts []string
	stmts = append(stmts, "create table K (A)")
	var rows []string
	for i := 0; i < 500; i++ {
		rows = append(rows, fmt.Sprintf("(%d)", i))
	}
	stmts = append(stmts, "insert into K values "+strings.Join(rows, ", "))
	for _, stmt := range stmts {
		if _, err := s.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("boom")
	var polls atomic.Int64
	hook := func() error {
		if polls.Add(1) > 2 {
			return boom
		}
		return nil
	}
	if _, err := ExecTraced(s, "select count(*) from K k1, K k2, K k3", hook, nil); !errors.Is(err, boom) {
		t.Fatalf("interrupt = %v, want boom", err)
	}
}

// failingFrom returns a hook that fails from its k-th call on, and the
// count of its calls.
func failingFrom(k int64, boom error) (func() error, *atomic.Int64) {
	polls := &atomic.Int64{}
	return func() error {
		if polls.Add(1) >= k {
			return boom
		}
		return nil
	}, polls
}

// TestInterruptPolledBeforeEachWorld: every per-world loop polls the hook
// before each world, so a hook failing from its k-th poll stops the
// statement after at most k+1 polls and leaves the world-set as it was — a
// SELECT and an UPDATE over 2^10 one-row worlds, and a repair split under
// an ASSERT (FROM/WHERE and split per parent, the rest of the query per
// child, the condition per child). k runs over each loop.
func TestInterruptPolledBeforeEachWorld(t *testing.T) {
	open := func() *Session {
		s := NewSession(true)
		mustExec(t, s, "create table D (K, V)")
		mustExec(t, s, "insert into D values (1, 'a'), (1, 'b')")
		mustExec(t, s, "create table P (A)")
		vals := make([]string, 1<<10)
		for i := range vals {
			vals[i] = fmt.Sprintf("(%d)", i)
		}
		mustExec(t, s, "insert into P values "+strings.Join(vals, ", "))
		mustExec(t, s, "create table W as select A from P choice of A")
		mustExec(t, s, "drop table P")
		if s.WorldCount() != 1<<10 {
			t.Fatalf("fixture has %d worlds", s.WorldCount())
		}
		return s
	}
	boom := errors.New("boom")
	for _, sql := range []string{
		"select A from W",
		"update W set A = A + 1",
		"create table Q as select K, V from D repair by key K assert exists (select * from W where A >= 0)",
	} {
		// An uninterrupted run counts the polls.
		hook, polls := failingFrom(math.MaxInt64, boom)
		if _, err := ExecTraced(open(), sql, hook, nil); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		n := polls.Load()
		s := open()
		before := snapshot(s)
		for _, k := range []int64{1, n / 5, n / 2, n - 1, n} {
			hook, polls := failingFrom(k, boom)
			if _, err := ExecTraced(s, sql, hook, nil); !errors.Is(err, boom) {
				t.Fatalf("%s, failing from poll %d of %d: err = %v, want boom", sql, k, n, err)
			}
			if got := polls.Load(); got > k+1 {
				t.Errorf("%s: a hook failing from poll %d was polled %d times", sql, k, got)
			}
			if snapshot(s) != before {
				t.Fatalf("%s, failing from poll %d: the world-set changed", sql, k)
			}
		}
	}
}
