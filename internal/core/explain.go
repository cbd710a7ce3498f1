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
// the checks Run runs: the I-SQL front end (TakeApart), a CREATE … AS's
// name and a split's columns, the INSERT rows, the DML template and the
// standalone-ASSERT refusal.
func (s *Session) Predict(b *strings.Builder, stmt sqlparse.Statement) error {
	var sel *sqlparse.SelectStmt
	var name string // the relation a CREATE … AS stores
	switch st := stmt.(type) {
	case *sqlparse.SelectStmt:
		sel = st
	case *sqlparse.CreateTableAs:
		fmt.Fprintf(b, "materialize: table %s\n", st.Name)
		sel, name = st.Query, st.Name
	case *sqlparse.CreateView:
		fmt.Fprintf(b, "materialize: view %s\n", st.Name)
		sel, name = st.Query, st.Name
	case *sqlparse.Insert:
		if _, err := s.insertRows(st); err != nil {
			return err
		}
		fmt.Fprintf(b, "plan:\n  Insert %s (%d rows, every world)\n", st.Table, len(st.Rows))
		return nil
	case *sqlparse.Update:
		if _, err := s.dmlTemplate(st); err != nil {
			return err
		}
		fmt.Fprintf(b, "plan:\n  Update %s (every world)\n", st.Table)
		return nil
	case *sqlparse.Delete:
		if _, err := s.dmlTemplate(st); err != nil {
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

	// Execution's front end, before anything prints; the plain-SQL core is
	// what compiles to the per-world plan.
	q, err := TakeApart(sel, s.set.Weighted)
	if err != nil {
		return err
	}
	if name != "" {
		if err := s.checkFresh(name); err != nil {
			return err
		}
	}
	prep, err := s.compileCore(q)
	if err != nil {
		return err
	}
	switch {
	case q.Repair != nil:
		fmt.Fprintf(b, "split: repair key (%s)\n", strings.Join(q.Repair.Key, ", "))
	case q.Choice != nil:
		fmt.Fprintf(b, "split: choice of (%s)\n", strings.Join(q.Choice.Attrs, ", "))
	}
	if q.Assert != nil {
		fmt.Fprintf(b, "assert: %s\n", q.Assert)
	}
	if q.GroupWorlds != nil {
		b.WriteString("group worlds by: yes\n")
	}
	q.Explain(b, prep.ExplainTree(nil))
	return nil
}

// writeIndented writes text indented by two spaces, line by line.
func writeIndented(b *strings.Builder, text string) {
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		b.WriteString("  " + line + "\n")
	}
}
