package core_test

// runner_test.go: the statement runner's contract, once for both engines —
// one parse span per Exec, the interrupt hook and trace cleared on every
// exit path, EXPLAIN ANALYZE's trace swap, ExecScript's first-error stop —
// and a panic failing one statement instead of the process.

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"maybms/internal/core"
	"maybms/internal/obs"
	"maybms/internal/sqlparse"
	"maybms/internal/wsd"
)

// recorder wraps an engine and records every SetStatement the runner makes.
type recorder struct {
	core.Engine
	interrupt func() error
	trace     *obs.Trace
	installs  []*obs.Trace
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
// refused by one engine, or does not parse — it opens exactly one parse span
// and leaves no interrupt hook or trace installed.
func TestRunnerContract(t *testing.T) {
	for name, open := range engines() {
		rec := &recorder{Engine: open()}
		for _, sql := range []string{
			"create table R (K, V)",
			"insert into R values (1, 2), (1, 3)",
			"create table I as select * from R repair by key K",
			"select possible V from I",
			"select * from Missing",            // statement error
			"create view W as select * from R", // compact refusal
			"assert true",                      // naive refusal
			"selec 1",                          // parse error
			"explain update R set V = 0",
			"explain analyze select certain V from I",
		} {
			tr := obs.NewTrace(sql)
			_, _ = core.ExecTraced(rec, sql, func() error { return nil }, tr)
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
// which the error names; the statements before it ran, the ones after did
// not.
func TestRunnerExecScriptStops(t *testing.T) {
	for name, open := range engines() {
		e := open()
		results, err := core.ExecScript(e, "create table R (K); select * from Missing; create table S (K)")
		if len(results) != 1 || err == nil || !strings.HasPrefix(err.Error(), `executing "SELECT * FROM Missing": `) {
			t.Errorf("%s: %d results, %v", name, len(results), err)
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
// "internal error: boom", ticks maybms_panics_total and leaves no interrupt
// hook or trace installed.
func TestRunnerRecoversPanic(t *testing.T) {
	e := &panicEngine{recorder: recorder{Engine: core.NewSession(true)}, run: func() error { panic("boom") }}
	before := panicsTotal(t)
	_, err := core.ExecTraced(e, "select 1", func() error { return nil }, obs.NewTrace("select 1"))
	if err == nil || err.Error() != "internal error: boom" {
		t.Errorf("err = %v, want internal error: boom", err)
	}
	if e.interrupt != nil || e.trace != nil {
		t.Error("interrupt or trace left installed after a panic")
	}
	if after := panicsTotal(t); after != before+1 {
		t.Errorf("maybms_panics_total %d -> %d, want one tick", before, after)
	}
}
