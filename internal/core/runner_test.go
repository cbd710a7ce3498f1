package core_test

// runner_test.go: the statement runner's contract, once for both engines —
// one parse span per Exec, the interrupt hook and trace cleared on every
// exit path, the snapshot restored exactly once after a failed statement
// and never after a successful one, EXPLAIN ANALYZE's trace swap,
// ExecScript's first-error stop — and a panic failing one statement instead
// of the process.

import (
	"errors"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"maybms/internal/core"
	"maybms/internal/obs"
	"maybms/internal/sqlparse"
	"maybms/internal/wsd"
)

// recorder wraps an engine and records every SetStatement the runner makes
// and every snapshot it takes and restores.
type recorder struct {
	core.Engine
	interrupt func() error
	trace     *obs.Trace
	installs  []*obs.Trace

	snapshots, restores int
}

func (r *recorder) Snapshot() func() {
	r.snapshots++
	restore := r.Engine.Snapshot()
	return func() {
		r.restores++
		restore()
	}
}

func (r *recorder) SetStatement(interrupt func() error, tr *obs.Trace) {
	r.interrupt, r.trace = interrupt, tr
	r.installs = append(r.installs, tr)
	r.Engine.SetStatement(interrupt, tr)
}

func engines() map[string]func() core.Engine {
	return map[string]func() core.Engine{
		"naive/weighted":     func() core.Engine { return core.NewSession(true) },
		"naive/incomplete":   func() core.Engine { return core.NewSession(false) },
		"compact/weighted":   func() core.Engine { return wsd.New(true) },
		"compact/incomplete": func() core.Engine { return wsd.New(false) },
	}
}

// TestRunnerContract: whatever a statement does — succeeds, fails, is
// refused by one engine, does not parse, or is interrupted — it takes one
// snapshot, restores it exactly once if and only if it failed, opens exactly
// one parse span and leaves no interrupt hook or trace installed.
func TestRunnerContract(t *testing.T) {
	boom := errors.New("boom")
	for name, open := range engines() {
		rec := &recorder{Engine: open()}
		for _, st := range []struct {
			sql         string
			interrupted bool
		}{
			{sql: "create table R (K, V)"},
			{sql: "insert into R values (1, 2), (1, 3)"},
			{sql: "create table I as select * from R repair by key K"},
			{sql: "select possible V from I"},
			{sql: "select * from Missing"},            // statement error
			{sql: "create view W as select * from R"}, // compact refusal
			{sql: "assert true"},                      // naive refusal
			{sql: "selec 1"},                          // parse error
			{sql: "explain update R set V = 0"},
			{sql: "explain analyze select certain V from I"},
			{sql: "explain analyze update I set V = 0"},
			{sql: "select possible V from I", interrupted: true},
		} {
			sql, hook := st.sql, func() error { return nil }
			if st.interrupted {
				hook = func() error { return boom }
			}
			snapshots, restores := rec.snapshots, rec.restores
			tr := obs.NewTrace(sql)
			_, err := core.ExecTraced(rec, sql, hook, tr)
			if st.interrupted && !errors.Is(err, boom) {
				t.Errorf("%s %q: err = %v, want the interrupt's", name, sql, err)
			}
			want := 0
			if err != nil {
				want = 1
			}
			if rec.snapshots-snapshots != 1 || rec.restores-restores != want {
				t.Errorf("%s %q (err %v): %d snapshot(s), %d restore(s), want 1 and %d",
					name, sql, err, rec.snapshots-snapshots, rec.restores-restores, want)
			}
			if rec.interrupt != nil || rec.trace != nil {
				t.Errorf("%s %q: interrupt or trace left installed", name, sql)
			}
			parses := 0
			for _, sp := range tr.JSON().Spans {
				if sp.Name == "parse" {
					parses++
				}
			}
			if parses != 1 {
				t.Errorf("%s %q: %d parse spans, want 1", name, sql, parses)
			}
		}
	}
}

// TestRunnerExplainAnalyzeRestoresTrace: ANALYZE runs the statement under a
// trace of its own, then puts the outer one back before the runner clears it.
func TestRunnerExplainAnalyzeRestoresTrace(t *testing.T) {
	for name, open := range engines() {
		rec := &recorder{Engine: open()}
		if _, err := core.Exec(rec, "create table R (K)"); err != nil {
			t.Fatal(err)
		}
		rec.installs = nil
		outer := obs.NewTrace("explain")
		if _, err := core.ExecTraced(rec, "explain analyze select K from R", nil, outer); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		in := rec.installs
		if len(in) != 4 || in[0] != outer || in[1] == nil || in[1] == outer || in[2] != outer || in[3] != nil {
			t.Errorf("%s: traces installed %v, want outer, inner, outer, nil", name, in)
		}
	}
}

// TestRunnerExecScriptStops: a script stops at its first failing statement,
// which the error names and alone restores; the statements before it ran and
// stay committed, the ones after did not run.
func TestRunnerExecScriptStops(t *testing.T) {
	for name, open := range engines() {
		e := &recorder{Engine: open()}
		results, err := core.ExecScript(e, "create table R (K); insert into R values (1); select * from Missing; create table S (K)")
		if len(results) != 2 || err == nil || !strings.HasPrefix(err.Error(), `executing "SELECT * FROM Missing": `) {
			t.Errorf("%s: %d results, %v", name, len(results), err)
		}
		if e.snapshots != 3 || e.restores != 1 {
			t.Errorf("%s: %d snapshot(s), %d restore(s), want 3 and 1", name, e.snapshots, e.restores)
		}
		if res, err := core.Exec(e, "select possible K from R"); err != nil || res.Groups[0].Rel.Len() != 1 {
			t.Errorf("%s: the statements before the failure did not stay committed: %v", name, err)
		}
		if _, err := core.Exec(e, "select * from S"); err == nil {
			t.Errorf("%s: a statement after the failure ran", name)
		}
	}
}

// panicEngine is a fake engine whose Run returns run's error.
type panicEngine struct {
	recorder
	run func() error
}

func (p *panicEngine) Run(sqlparse.Statement) (*core.Result, error) { return nil, p.run() }

func panicsTotal(t *testing.T) int {
	t.Helper()
	var b strings.Builder
	obs.Default().WritePrometheus(&b)
	m := regexp.MustCompile(`(?m)^maybms_panics_total (\d+)$`).FindStringSubmatch(b.String())
	if m == nil {
		return 0
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// TestRunnerRecoversPanic: a panic in Run fails the statement with
// "internal error: boom", restores the snapshot once, ticks
// maybms_panics_total and leaves no interrupt hook or trace installed.
func TestRunnerRecoversPanic(t *testing.T) {
	e := &panicEngine{recorder: recorder{Engine: core.NewSession(true)}, run: func() error { panic("boom") }}
	before := panicsTotal(t)
	_, err := core.ExecTraced(e, "select 1", func() error { return nil }, obs.NewTrace("select 1"))
	if err == nil || err.Error() != "internal error: boom" {
		t.Errorf("err = %v, want internal error: boom", err)
	}
	if e.snapshots != 1 || e.restores != 1 {
		t.Errorf("%d snapshot(s), %d restore(s) around a panic, want 1 and 1", e.snapshots, e.restores)
	}
	if e.interrupt != nil || e.trace != nil {
		t.Error("interrupt or trace left installed after a panic")
	}
	if after := panicsTotal(t); after != before+1 {
		t.Errorf("maybms_panics_total %d -> %d, want one tick", before, after)
	}
}
