package sqlparse

import (
	"fmt"
	"strings"
)

// Node is what Walk visits: a *SelectStmt or an Expr.
type Node interface{ fmt.Stringer }

// Walk calls visit on n and then, when visit returns true, walks n's
// children in written order. A statement's children are its select items,
// WHERE, HAVING, ASSERT, GROUP WORLDS BY and UNION arm; an expression's are
// its operands, and the subquery of an EXISTS, an IN (subquery) or a scalar
// subquery, which Walk visits as a statement (a visitor skips it by
// returning false there). Absent clauses are not visited.
func Walk(n Node, visit func(Node) bool) {
	if s, ok := n.(*SelectStmt); n == nil || ok && s == nil || !visit(n) {
		return
	}
	switch n := n.(type) {
	case *SelectStmt:
		for _, it := range n.Items {
			Walk(it.Expr, visit)
		}
		Walk(n.Where, visit)
		Walk(n.Having, visit)
		Walk(n.Assert, visit)
		Walk(n.GroupWorlds, visit)
		Walk(n.Union, visit)
	case ColumnRef, Literal, Star, ConfExpr:
	case BinaryExpr:
		Walk(n.L, visit)
		Walk(n.R, visit)
	case UnaryExpr:
		Walk(n.E, visit)
	case IsNullExpr:
		Walk(n.E, visit)
	case ExistsExpr:
		Walk(n.Sub, visit)
	case InExpr:
		Walk(n.Left, visit)
		for _, item := range n.List {
			Walk(item, visit)
		}
		Walk(n.Sub, visit)
	case SubqueryExpr:
		Walk(n.Sub, visit)
	case FuncCall:
		for _, a := range n.Args {
			Walk(a, visit)
		}
	default:
		panic(fmt.Sprintf("sqlparse: Walk over unknown kind %T", n))
	}
}

// ReferencedTables collects every table name a statement references — FROM
// clauses of the statement and of every statement Walk reaches from it — in
// first-appearance order, deduplicated case-insensitively. Engines use it
// to find which stored relations a statement can read.
func ReferencedTables(q *SelectStmt) []string {
	seen := map[string]bool{}
	var names []string
	Walk(q, func(n Node) bool {
		if s, ok := n.(*SelectStmt); ok {
			for _, tr := range s.From {
				if k := strings.ToLower(tr.Name); !seen[k] {
					seen[k] = true
					names = append(names, tr.Name)
				}
			}
		}
		return true
	})
	return names
}

// HasISQLDeep reports whether the statement or any of its subqueries uses
// an I-SQL construct. HasISQL inspects the top level only (the one place
// the constructs are legal); engines refusing I-SQL in positions that
// must be plain SQL all the way down — assert conditions, grouping
// subqueries — use the deep variant so the refusal fires before the
// planner trips over the construct. The walk stops at the first statement
// for which HasISQL holds.
func HasISQLDeep(q *SelectStmt) bool {
	found := false
	Walk(q, func(n Node) bool {
		switch n := n.(type) {
		case *SelectStmt:
			found = found || n.HasISQL()
		case ConfExpr:
			found = true
		}
		return !found
	})
	return found
}
