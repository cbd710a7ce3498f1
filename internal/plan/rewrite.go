package plan

import (
	"maybms/internal/algebra"
	"maybms/internal/expr"
	"maybms/internal/value"
)

// joinWhere is the package doc's WHERE rewrite: it joins a FROM list's scans,
// in FROM order, into a left-deep chain under pred, the WHERE lowered against
// the chain's schema (nil without a WHERE). A single-binding FROM is left as
// written.
func joinWhere(scans []algebra.Operator, pred expr.Expr) algebra.Operator {
	if len(scans) == 1 {
		if pred == nil {
			return scans[0]
		}
		return &algebra.Filter{Child: scans[0], Pred: pred}
	}
	// offs[i] is binding i's first column in the chain's schema.
	offs := make([]int, len(scans)+1)
	for i, s := range scans {
		offs[i+1] = offs[i] + s.Schema().Len()
	}
	bindingOf := func(col int) int {
		b := 0
		for offs[b+1] <= col {
			b++
		}
		return b
	}
	sunk := make([][]expr.Expr, len(scans))
	leftKeys, rightKeys := make([][]int, len(scans)), make([][]int, len(scans))
	var residual []expr.Expr
	var cols []int
	for _, c := range andTerms(nil, pred) {
		cols = cols[:0]
		if !movable(c, &cols) || len(cols) == 0 {
			residual = append(residual, c)
			continue
		}
		lo, hi := bindingOf(cols[0]), bindingOf(cols[0])
		for _, col := range cols[1:] {
			lo, hi = min(lo, bindingOf(col)), max(hi, bindingOf(col))
		}
		if lo == hi {
			sunk[lo] = append(sunk[lo], shiftColumns(c, offs[lo]))
			continue
		}
		if l, r, ok := equiJoinKey(c); ok {
			// Bindings are contiguous in FROM order: the lower binding's column
			// is the lower index, on the left input.
			l, r = min(l, r), max(l, r)
			leftKeys[hi] = append(leftKeys[hi], l)
			rightKeys[hi] = append(rightKeys[hi], r-offs[hi])
			continue
		}
		residual = append(residual, c)
	}
	var op algebra.Operator
	for i, scan := range scans {
		if len(sunk[i]) > 0 {
			scan = &algebra.Filter{Child: scan, Pred: andAll(sunk[i])}
		}
		switch {
		case i == 0:
			op = scan
		case len(leftKeys[i]) > 0:
			op = &algebra.HashJoin{Left: op, Right: scan, LeftKeys: leftKeys[i], RightKeys: rightKeys[i]}
		default:
			op = &algebra.CrossJoin{Left: op, Right: scan}
		}
	}
	if len(residual) > 0 {
		op = &algebra.Filter{Child: op, Pred: andAll(residual)}
	}
	return op
}

// andTerms appends the top-level AND-conjuncts of e to dst, in written
// order.
func andTerms(dst []expr.Expr, e expr.Expr) []expr.Expr {
	switch n := e.(type) {
	case nil:
		return dst
	case expr.And:
		return andTerms(andTerms(dst, n.L), n.R)
	}
	return append(dst, e)
}

// andAll is the left-deep conjunction of terms, in order.
func andAll(terms []expr.Expr) expr.Expr {
	e := terms[0]
	for _, t := range terms[1:] {
		e = expr.And{L: e, R: t}
	}
	return e
}

// movable reports whether the boolean expression e can neither raise an
// evaluation error nor yield a non-boolean, so that evaluating it earlier, on
// fewer rows or apart from its siblings cannot surface an error the written
// WHERE would not: trees of Cmp, IsNull, IN-lists, And, Or and Not over
// constants and columns of this block — no arithmetic (division by zero, type
// errors), no subquery, no outer reference, no bare non-boolean operand of a
// connective. It appends the columns e reads to cols.
func movable(e expr.Expr, cols *[]int) bool {
	switch n := e.(type) {
	case expr.Cmp:
		return operand(n.L, cols) && operand(n.R, cols)
	case expr.IsNull:
		return operand(n.E, cols)
	case expr.In:
		if n.Sub != nil || !operand(n.Left, cols) {
			return false
		}
		for _, item := range n.List {
			if !operand(item, cols) {
				return false
			}
		}
		return true
	case expr.And:
		return movable(n.L, cols) && movable(n.R, cols)
	case expr.Or:
		return movable(n.L, cols) && movable(n.R, cols)
	case expr.Not:
		return movable(n.E, cols)
	case expr.Const:
		return n.Value.IsNull() || n.Value.Kind() == value.KindBool
	}
	return false
}

// operand reports whether e is a value that cannot raise an error: a
// constant, a column of this block, or a movable boolean.
func operand(e expr.Expr, cols *[]int) bool {
	switch n := e.(type) {
	case expr.Const:
		return true
	case expr.Column:
		*cols = append(*cols, n.Index)
		return n.Depth == 0
	}
	return movable(e, cols)
}

// equiJoinKey recognises `colA = colB`.
func equiJoinKey(e expr.Expr) (l, r int, ok bool) {
	c, ok := e.(expr.Cmp)
	if !ok || c.Op != expr.CmpEq {
		return 0, 0, false
	}
	lc, lok := c.L.(expr.Column)
	rc, rok := c.R.(expr.Column)
	return lc.Index, rc.Index, lok && rok
}

// shiftColumns re-resolves a movable expression against a binding's own
// schema, which starts at column off of the chain's: an expr.Map over its
// columns.
func shiftColumns(e expr.Expr, off int) expr.Expr {
	out, _, _ := expr.Map(e, func(n expr.Expr) (expr.Expr, bool, error) {
		if c, ok := n.(expr.Column); ok && off != 0 {
			c.Index -= off
			return c, true, nil
		}
		return n, false, nil
	})
	return out
}
