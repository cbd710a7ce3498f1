package core

// EXPLAIN's prediction on the naive engine (the runner frames it; the
// compact engine's is internal/wsd's). The naive engine has one routing
// class — evaluate in every explicit world — so the prediction names the
// I-SQL stages the statement activates; the plan tree is the compiled
// template for the plain-SQL core.

import (
	"fmt"
	"strings"

	"maybms/internal/sqlparse"
)

// Predict writes the statement's stage list and, for SELECT-family
// statements, the compiled plan tree of the plain-SQL core. It first runs
// the checks Run runs: the I-SQL strip, the INSERT rows, the DML template
// and the standalone-ASSERT refusal.
func (s *Session) Predict(b *strings.Builder, stmt sqlparse.Statement) error {
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
		if _, err := s.insertRows(st); err != nil {
			return err
		}
		fmt.Fprintf(b, "plan:\n  Insert %s (%d rows, every world)\n", st.Table, len(st.Rows))
		return nil
	case *sqlparse.Update:
		if _, err := s.dmlTemplate(st, st.Table); err != nil {
			return err
		}
		fmt.Fprintf(b, "plan:\n  Update %s (every world)\n", st.Table)
		return nil
	case *sqlparse.Delete:
		if _, err := s.dmlTemplate(st, st.Table); err != nil {
			return err
		}
		fmt.Fprintf(b, "plan:\n  Delete %s (every world)\n", st.Table)
		return nil
	case *sqlparse.Assert:
		return errAssertStatement
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

func writeIndented(b *strings.Builder, text string) {
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		b.WriteString("  " + line + "\n")
	}
}
