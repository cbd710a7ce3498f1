package core

// EXPLAIN [ANALYZE]: the framing both engines share (Explain) and the naive
// engine's prediction; the compact backend's is internal/wsd's. The naive
// engine has one routing class — evaluate in every explicit world — so the
// prediction names the world count and the I-SQL stages the statement
// activates; the plan tree is the compiled template for the plain-SQL core.
// ANALYZE executes the statement for real (including DML side effects, as
// in PostgreSQL) with a statement trace installed and appends the actual
// spans and cardinalities.

import (
	"fmt"
	"strconv"
	"strings"

	"maybms/internal/obs"
	"maybms/internal/sqlparse"
)

func (s *Session) execExplain(st *sqlparse.Explain) (*Result, error) {
	return Explain(st, "naive (per-world evaluation)", strconv.Itoa(len(s.set.Worlds)), s.set.Weighted,
		&s.trace, s.explainPlan, s.ExecStmt)
}

// Explain is EXPLAIN [ANALYZE] over either engine: the engine and world-count
// header, then the prediction predict writes for the inner statement. Under
// ANALYZE exec then runs the statement for real with a fresh trace swapped
// into *trace, and the trace follows indented under "actual:", with the
// result's row count.
func Explain(st *sqlparse.Explain, engine, worlds string, weighted bool, trace **obs.Trace,
	predict func(*strings.Builder, sqlparse.Statement) error,
	exec func(sqlparse.Statement) (*Result, error)) (*Result, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "engine: %s\nworlds: %s\n", engine, worlds)
	if err := predict(&b, st.Stmt); err != nil {
		return nil, err
	}

	if st.Analyze {
		tr := obs.NewTrace(st.Stmt.String())
		prev := *trace
		*trace = tr
		res, err := exec(st.Stmt)
		*trace = prev
		if err != nil {
			return nil, err
		}
		b.WriteString("\nactual:\n")
		writeIndented(&b, tr.Render())
		if n := countRows(res); n >= 0 {
			fmt.Fprintf(&b, "  result rows: %d\n", n)
		}
	}

	return &Result{Kind: ResultOK, Msg: strings.TrimRight(b.String(), "\n"), Weighted: weighted}, nil
}

// explainPlan writes the statement's stage list and, for SELECT-family
// statements, the compiled plan tree of the plain-SQL core.
func (s *Session) explainPlan(b *strings.Builder, stmt sqlparse.Statement) error {
	var sel *sqlparse.SelectStmt
	switch st := stmt.(type) {
	case *sqlparse.SelectStmt:
		sel = st
	case *sqlparse.CreateTableAs:
		fmt.Fprintf(b, "materialize: table %s\n", st.Name)
		sel = st.Query
	case *sqlparse.CreateView:
		fmt.Fprintf(b, "materialize: view %s\n", st.Name)
		sel = st.Query
	case *sqlparse.Insert:
		fmt.Fprintf(b, "plan:\n  Insert %s (%d rows, every world)\n", st.Table, len(st.Rows))
		return nil
	case *sqlparse.Update:
		fmt.Fprintf(b, "plan:\n  Update %s (every world)\n", st.Table)
		return nil
	case *sqlparse.Delete:
		fmt.Fprintf(b, "plan:\n  Delete %s (every world)\n", st.Table)
		return nil
	default:
		fmt.Fprintf(b, "plan:\n  %s\n", stmt)
		return nil
	}

	// Execution's checks and strip, before anything prints; the leftover
	// core is what compiles to the per-world plan.
	core, _, err := isqlCore(sel, s.set.Weighted)
	if err != nil {
		return err
	}
	switch {
	case sel.Repair != nil:
		fmt.Fprintf(b, "split: repair key (%s)\n", strings.Join(sel.Repair.Key, ", "))
	case sel.Choice != nil:
		fmt.Fprintf(b, "split: choice of (%s)\n", strings.Join(sel.Choice.Attrs, ", "))
	}
	if sel.Assert != nil {
		fmt.Fprintf(b, "assert: %s\n", sel.Assert)
	}
	if sel.GroupWorlds != nil {
		b.WriteString("group worlds by: yes\n")
	}
	fmt.Fprintf(b, "closure: %s\n", naiveClosure(sel))

	prep, err := s.preparedFull(core, s.set.Worlds[0])
	if err != nil {
		return err
	}
	b.WriteString("plan:\n")
	writeIndented(b, prep.ExplainTree(nil))
	return nil
}

func naiveClosure(sel *sqlparse.SelectStmt) string {
	for _, it := range sel.Items {
		if ce, ok := it.Expr.(sqlparse.ConfExpr); ok {
			if ce.Approx {
				return "approx conf"
			}
			return "conf"
		}
	}
	switch sel.Quantifier {
	case sqlparse.QuantPossible:
		return "possible"
	case sqlparse.QuantCertain:
		return "certain"
	default:
		return "none (per-world answers)"
	}
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

func writeIndented(b *strings.Builder, text string) {
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		b.WriteString("  " + line + "\n")
	}
}
