package core

// The statement runner: the one loop around both engines, which DB,
// CompactDB, the shell and the server all call. It parses, frames EXPLAIN
// [ANALYZE], installs the statement's interrupt hook and trace and clears
// them on every exit path, turns a panic into the statement's error, and
// hands everything else to the engine's Run. A statement runs on the
// caller's goroutine from start to finish, so that one recover covers all of
// it.
//
// Atomicity is the runner's too: it takes the engine's Snapshot before a
// statement and restores it when the statement ends in an error, an
// interrupt or a panic, so a failed statement leaves the engine exactly as
// it was (the paper's §2: an update that fails in some world "is discarded
// in all worlds"). No engine stages its writes for this.

import (
	"fmt"
	"strings"

	"maybms/internal/expr"
	"maybms/internal/obs"
	"maybms/internal/sqlparse"
)

var panics = obs.Default().Counter("maybms_panics_total",
	"Panics recovered into a failed statement.")

// Engine is one representation of a world-set running I-SQL: *Session over
// explicit worlds, *wsd.WSD over a decomposition. Each keeps its statement
// switch inside Run and Predict. Statements on one engine run serially.
type Engine interface {
	// Snapshot saves the engine's state before a statement; restore puts it
	// back after a failed one. State published before a statement starts is
	// never written in place during it — a statement writes into copies and
	// swaps them in — so a snapshot copies headers only, and the compact
	// engine none: its statement's first write copies them. Cached plans
	// are not part of the state: after a restore, a template compiled
	// against schemas the restore undid no longer checks valid and compiles
	// once more.
	Snapshot() (restore func())
	// Kind names the engine ("naive" or "compact") and the representation
	// EXPLAIN prints beside the name.
	Kind() (name, representation string)
	// Worlds renders the current world count.
	Worlds() string
	// Predict writes EXPLAIN's prediction for stmt. It runs the checks Run
	// runs before touching data and fails with Run's error where they fail.
	Predict(b *strings.Builder, stmt sqlparse.Statement) error
	// Run executes one statement other than EXPLAIN.
	Run(stmt sqlparse.Statement) (*Result, error)
	// SetStatement installs (nils clear) the hook polled during execution —
	// a non-nil return aborts the statement — and the trace receiving stage
	// spans.
	SetStatement(interrupt func() error, tr *obs.Trace)
	// PlanCacheCounts attributes plan-cache lookups to the engine: templates
	// found valid vs. compiled on its behalf. Safe while a statement runs.
	PlanCacheCounts() (hits, misses uint64)
}

// StatementCtx is the outer evaluation context an engine drains a
// statement's plans under: nil without an interrupt hook or trace, else one
// carrying the hook (polled by the long-running iterators) and the trace's
// stats accumulator; it sits beyond every resolvable correlation depth.
func StatementCtx(interrupt func() error, tr *obs.Trace) *expr.Context {
	if interrupt == nil && tr == nil {
		return nil
	}
	return &expr.Context{Interrupt: interrupt, Stats: tr.Stats()}
}

// Exec parses and runs one statement on e.
func Exec(e Engine, sql string) (*Result, error) { return ExecTraced(e, sql, nil, nil) }

// ExecTraced is Exec with interrupt and tr (either may be nil) installed for
// the statement; tr receives the parse span too.
func ExecTraced(e Engine, sql string, interrupt func() error, tr *obs.Trace) (*Result, error) {
	return statement(e, interrupt, tr, func() (*Result, error) {
		sp := tr.Begin("parse")
		stmt, err := sqlparse.Parse(sql)
		sp.End(tr)
		if err != nil {
			return nil, err
		}
		return run(e, stmt, interrupt, tr)
	})
}

// ExecStmt runs one parsed statement on e.
func ExecStmt(e Engine, stmt sqlparse.Statement) (*Result, error) {
	return statement(e, nil, nil, func() (*Result, error) { return run(e, stmt, nil, nil) })
}

// ExecScript runs a semicolon-separated script, stopping at the first error,
// and returns the results of the statements that succeeded.
func ExecScript(e Engine, sql string) ([]*Result, error) {
	stmts, err := sqlparse.ParseScript(sql)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, 0, len(stmts))
	for _, stmt := range stmts {
		res, err := ExecStmt(e, stmt)
		if err != nil {
			return out, fmt.Errorf("executing %q: %w", stmt, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// statement runs fn with interrupt and tr installed on e and clears both
// after; a panic fails the statement with "internal error: …" and counts in
// maybms_panics_total. A statement that fails — by error, interrupt or panic
// — is undone by restoring the snapshot taken before it.
func statement(e Engine, interrupt func() error, tr *obs.Trace, fn func() (*Result, error)) (res *Result, err error) {
	restore := e.Snapshot()
	e.SetStatement(interrupt, tr)
	defer func() {
		if v := recover(); v != nil {
			panics.Inc()
			res, err = nil, fmt.Errorf("internal error: %v", v)
		}
		if err != nil {
			restore()
		}
		e.SetStatement(nil, nil)
	}()
	return fn()
}

// run hands stmt to e, answering EXPLAIN itself: the engine and world-count
// header, then e's prediction. ANALYZE then runs the statement for real (DML
// side effects included, as in PostgreSQL) under a fresh trace swapped in
// for tr, and appends that trace under "actual:" with the result's row
// count.
func run(e Engine, stmt sqlparse.Statement, interrupt func() error, tr *obs.Trace) (*Result, error) {
	st, ok := stmt.(*sqlparse.Explain)
	if !ok {
		return e.Run(stmt)
	}
	name, representation := e.Kind()
	var b strings.Builder
	fmt.Fprintf(&b, "engine: %s (%s)\nworlds: %s\n", name, representation, e.Worlds())
	if err := e.Predict(&b, st.Stmt); err != nil {
		return nil, err
	}
	if st.Analyze {
		actual := obs.NewTrace(st.Stmt.String())
		e.SetStatement(interrupt, actual)
		res, err := e.Run(st.Stmt)
		e.SetStatement(interrupt, tr)
		if err != nil {
			return nil, err
		}
		b.WriteString("\nactual:\n")
		writeIndented(&b, actual.Render())
		if n := countRows(res); n >= 0 {
			fmt.Fprintf(&b, "  result rows: %d\n", n)
		}
	}
	return &Result{Kind: ResultOK, Msg: strings.TrimRight(b.String(), "\n")}, nil
}

// countRows sums result cardinalities, or -1 for DDL/DML acknowledgements.
func countRows(res *Result) int {
	switch res.Kind {
	case ResultPerWorld:
		n := 0
		for _, w := range res.PerWorld {
			n += w.Rel.Len()
		}
		return n
	case ResultClosed:
		n := 0
		for _, g := range res.Groups {
			n += g.Rel.Len()
		}
		return n
	default:
		return -1
	}
}
