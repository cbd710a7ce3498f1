package core

// The I-SQL front end both engines share. I-SQL (§2 of the paper) adds five
// clauses to SQL: POSSIBLE/CERTAIN/CONF, REPAIR BY KEY, CHOICE OF, ASSERT
// and GROUP WORLDS BY. TakeApart takes them off a SELECT's plain-SQL core
// and checks how they combine, once, for the naive engine and the compact
// one alike, so a malformed statement gets the same error from both. Each
// engine then keeps only what differs: per-world evaluation here, the
// refusal table and the routes in internal/wsd. I-SQL inside a UNION arm or
// a subquery is the planner's to refuse.

import (
	"errors"
	"fmt"
	"strings"

	"maybms/internal/schema"
	"maybms/internal/sqlparse"
	"maybms/internal/worldset"
)

// Closure is the world-closing operation a SELECT applies to its per-world
// answers.
type Closure int

// The closures.
const (
	ClosureNone Closure = iota
	ClosurePossible
	ClosureCertain
	ClosureConf
	// ClosureApproxConf is APPROX CONF: exact confidences whenever an exact
	// evaluation succeeds (always on the naive engine); the compact engine
	// estimates them from seeded Monte-Carlo samples when the component
	// merge exact CONF needs would exceed its MergeLimit.
	ClosureApproxConf
)

// String names the closure as EXPLAIN prints it.
func (c Closure) String() string {
	return [...]string{"none", "possible", "certain", "conf", "approx conf"}[c]
}

// IsConf reports whether the closure computes confidences (exactly or
// approximately), which needs a probabilistic session.
func (c Closure) IsConf() bool { return c >= ClosureConf }

// ISQL is a SELECT taken apart by TakeApart.
type ISQL struct {
	// Core is the plain-SQL core every world evaluates: the statement
	// without its quantifier, conf item, split, ASSERT and GROUP WORLDS BY.
	Core    *sqlparse.SelectStmt
	Closure Closure
	// GroupWorlds is the plain-SQL grouping subquery (nil: one group).
	GroupWorlds *sqlparse.SelectStmt
	Assert      sqlparse.Expr
	// Repair or Choice is the statement's world split; at most one is set.
	Repair *sqlparse.RepairClause
	Choice *sqlparse.ChoiceClause
}

// TakeApart takes st's I-SQL clauses off its plain-SQL core and checks how
// they combine; weighted is the session's mode (CONF and WEIGHT need a
// probabilistic one). Both engines call it first for SELECT, CREATE TABLE
// AS and CREATE VIEW, in Run and in EXPLAIN.
func TakeApart(st *sqlparse.SelectStmt, weighted bool) (ISQL, error) {
	q := ISQL{GroupWorlds: st.GroupWorlds, Assert: st.Assert, Repair: st.Repair, Choice: st.Choice}
	switch st.Quantifier {
	case sqlparse.QuantPossible:
		q.Closure = ClosurePossible
	case sqlparse.QuantCertain:
		q.Closure = ClosureCertain
	}
	core := *st
	core.Quantifier = sqlparse.QuantNone
	core.Repair, core.Choice, core.Assert, core.GroupWorlds = nil, nil, nil, nil
	confs := 0
	for i, it := range st.Items {
		ce, ok := it.Expr.(sqlparse.ConfExpr)
		if !ok {
			continue
		}
		if confs++; confs == 1 {
			core.Items = append(st.Items[:i:i], st.Items[i+1:]...)
		}
		q.Closure = ClosureConf
		if ce.Approx {
			q.Closure = ClosureApproxConf
		}
	}
	switch {
	case confs > 1:
		return ISQL{}, errors.New("at most one conf item is allowed")
	case confs == 1 && st.Quantifier != sqlparse.QuantNone:
		return ISQL{}, fmt.Errorf("conf cannot be combined with %s", st.Quantifier)
	case q.Closure.IsConf() && !weighted:
		return ISQL{}, fmt.Errorf("conf requires a probabilistic session: %w", worldset.ErrNotWeighted)
	case st.Repair != nil && st.Choice != nil:
		return ISQL{}, errors.New("repair by key and choice of cannot be combined in one statement")
	case st.Union != nil && (st.Repair != nil || st.Choice != nil || st.Assert != nil || st.GroupWorlds != nil):
		return ISQL{}, errors.New("repair/choice/assert/group-worlds-by cannot be combined with UNION")
	case !weighted && (st.Repair != nil && st.Repair.Weight != "" || st.Choice != nil && st.Choice.Weight != ""):
		return ISQL{}, fmt.Errorf("weight requires a probabilistic session: %w", worldset.ErrNotWeighted)
	case st.GroupWorlds != nil && sqlparse.HasISQLDeep(st.GroupWorlds):
		return ISQL{}, errors.New("group worlds by subquery must be plain SQL")
	case st.GroupWorlds != nil && q.Closure == ClosureNone:
		return ISQL{}, errors.New("group worlds by requires possible, certain or conf")
	}
	q.Core = &core
	return q, nil
}

// Splits reports whether the statement splits worlds (REPAIR BY KEY or
// CHOICE OF).
func (q *ISQL) Splits() bool { return q.Repair != nil || q.Choice != nil }

// SplitColumns resolves the split's key (REPAIR BY KEY) or attribute
// (CHOICE OF) columns, and its weight column (-1 when absent), against sch,
// the schema of the rows it splits; an error names the clause.
func (q *ISQL) SplitColumns(sch *schema.Schema) (cols []int, weight int, err error) {
	clause, of, names, w := "repair", "repair by key", []string(nil), ""
	if q.Repair != nil {
		names, w = q.Repair.Key, q.Repair.Weight
	} else {
		clause, of, names, w = "choice", "choice of", q.Choice.Attrs, q.Choice.Weight
	}
	if cols, err = sch.IndexesOf(names); err != nil {
		return nil, 0, fmt.Errorf("%s: %w", of, err)
	}
	weight = -1
	if w != "" {
		if weight, err = sch.Resolve("", w); err != nil {
			return nil, 0, fmt.Errorf("%s weight: %w", clause, err)
		}
	}
	return cols, weight, nil
}

// Explain writes EXPLAIN's closure line and the compiled plan tree of the
// core, indented under "plan:".
func (q *ISQL) Explain(b *strings.Builder, tree string) {
	fmt.Fprintf(b, "closure: %s\nplan:\n", q.Closure)
	writeIndented(b, tree)
}
