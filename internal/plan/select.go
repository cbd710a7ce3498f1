package plan

import (
	"fmt"
	"strings"

	"maybms/internal/algebra"
	"maybms/internal/expr"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
)

// collectAggregates finds the aggregate calls appearing in the select list
// and HAVING clause: a sqlparse.Walk that enters neither an aggregate's
// arguments nor a subquery, whose aggregates are its own. It returns the
// distinct calls in first-appearance order and a map from call rendering
// to position.
func collectAggregates(stmt *sqlparse.SelectStmt) ([]sqlparse.FuncCall, map[string]int) {
	var calls []sqlparse.FuncCall
	keys := map[string]int{}
	add := func(fc sqlparse.FuncCall) {
		k := fc.String()
		if _, ok := keys[k]; ok {
			return
		}
		keys[k] = len(calls)
		calls = append(calls, fc)
	}
	visit := func(n sqlparse.Node) bool {
		switch n := n.(type) {
		case *sqlparse.SelectStmt:
			return false // its aggregates are its own
		case sqlparse.FuncCall:
			if _, isAgg := expr.AggKindByName(n.Name); isAgg {
				add(n)
				return false
			}
		}
		return true
	}
	for _, it := range stmt.Items {
		sqlparse.Walk(it.Expr, visit)
	}
	sqlparse.Walk(stmt.Having, visit)
	return calls, keys
}

// buildAggregate compiles a SELECT block with aggregates and/or GROUP BY.
func buildAggregate(stmt *sqlparse.SelectStmt, from algebra.Operator, e *env,
	calls []sqlparse.FuncCall, keys map[string]int) (algebra.Operator, error) {

	fromSchema := e.scopes[0]

	// Group-by columns resolve against the FROM schema only.
	groupIdx := make([]int, len(stmt.GroupBy))
	for i, c := range stmt.GroupBy {
		idx, err := fromSchema.Resolve(c.Qualifier, c.Name)
		if err != nil {
			return nil, fmt.Errorf("%w: GROUP BY: %w", ErrPlan, err)
		}
		groupIdx[i] = idx
	}

	// Lower aggregate arguments against the FROM schema.
	specs := make([]expr.AggSpec, len(calls))
	for i, fc := range calls {
		kind, _ := expr.AggKindByName(fc.Name)
		if fc.Star {
			if kind != expr.AggCount {
				return nil, fmt.Errorf("%w: %s(*) is not valid", ErrPlan, fc.Name)
			}
			specs[i] = expr.AggSpec{Kind: expr.AggCountStar}
			continue
		}
		if len(fc.Args) != 1 {
			return nil, fmt.Errorf("%w: %s takes exactly one argument", ErrPlan, fc.Name)
		}
		arg, err := e.lower(fc.Args[0])
		if err != nil {
			return nil, err
		}
		specs[i] = expr.AggSpec{Kind: kind, Arg: arg, Distinct: fc.Distinct}
	}

	// Aggregate output schema: group columns keep their attributes; each
	// aggregate column is named by its rendering (referenced only through
	// the agg map).
	outAttrs := fromSchema.Project(groupIdx).Attributes()
	for _, fc := range calls {
		outAttrs = append(outAttrs, schema.Attribute{Name: fc.String()})
	}
	aggSchema := schema.FromAttributes(outAttrs)

	var op algebra.Operator = &algebra.Aggregate{
		Child:   from,
		GroupBy: groupIdx,
		Specs:   specs,
		Out:     aggSchema,
	}

	// Post-aggregate lowering environment: innermost scope is the aggregate
	// output; aggregate calls map to output columns.
	aggKeys := map[string]int{}
	for k, i := range keys {
		aggKeys[k] = len(groupIdx) + i
	}
	post := &env{cat: e.cat, scopes: append([]*schema.Schema{aggSchema}, e.scopes[1:]...), agg: aggKeys, open: e.open}

	if stmt.Having != nil {
		pred, err := post.lower(stmt.Having)
		if err != nil {
			return nil, err
		}
		op = &algebra.Filter{Child: op, Pred: pred}
	}

	proj, err := projectItems(stmt, op, post)
	if err != nil {
		return nil, err
	}
	return finishSelect(stmt, proj)
}

// buildProjection compiles the select list of a non-aggregate block.
func buildProjection(stmt *sqlparse.SelectStmt, from algebra.Operator, e *env) (algebra.Operator, error) {
	return projectItems(stmt, from, e)
}

// projectItems lowers the select list against the innermost scope of e and
// wraps child in a Project (stars expand positionally).
func projectItems(stmt *sqlparse.SelectStmt, child algebra.Operator, e *env) (algebra.Operator, error) {
	inSchema := e.scopes[0]
	var exprs []expr.Expr
	var attrs []schema.Attribute
	for _, it := range stmt.Items {
		switch n := it.Expr.(type) {
		case sqlparse.Star:
			if e.agg != nil {
				return nil, fmt.Errorf("%w: * not allowed with aggregates", ErrPlan)
			}
			matched := false
			for i := 0; i < inSchema.Len(); i++ {
				a := inSchema.At(i)
				if n.Qualifier != "" && !strings.EqualFold(a.Qualifier, n.Qualifier) {
					continue
				}
				matched = true
				exprs = append(exprs, expr.Column{Index: i, Name: a.String()})
				attrs = append(attrs, schema.Attribute{Name: a.Name})
			}
			if !matched {
				return nil, fmt.Errorf("%w: %s matched no columns in %s", ErrPlan, n, inSchema)
			}
		default:
			low, err := e.lower(it.Expr)
			if err != nil {
				return nil, err
			}
			exprs = append(exprs, low)
			attrs = append(attrs, schema.Attribute{Name: outputName(it, len(attrs))})
		}
	}
	return &algebra.Project{Child: child, Exprs: exprs, Out: schema.FromAttributes(attrs)}, nil
}

// outputName picks the display name of a select item: explicit alias, then
// the bare column name, then the function name, else a positional name.
func outputName(it sqlparse.SelectItem, pos int) string {
	if it.Alias != "" {
		return it.Alias
	}
	switch n := it.Expr.(type) {
	case sqlparse.ColumnRef:
		return n.Name
	case sqlparse.FuncCall:
		return n.Name
	default:
		return fmt.Sprintf("col%d", pos+1)
	}
}

// finishSelect applies DISTINCT, ORDER BY and LIMIT on top of the projected
// operator.
func finishSelect(stmt *sqlparse.SelectStmt, op algebra.Operator) (algebra.Operator, error) {
	if stmt.Distinct {
		op = &algebra.Distinct{Child: op}
	}
	if len(stmt.OrderBy) > 0 {
		out := op.Schema()
		keys := make([]algebra.SortKey, len(stmt.OrderBy))
		for i, oi := range stmt.OrderBy {
			switch {
			case oi.Column != nil:
				idx, err := out.Resolve(oi.Column.Qualifier, oi.Column.Name)
				if err != nil {
					return nil, fmt.Errorf("%w: ORDER BY: %w", ErrPlan, err)
				}
				keys[i] = algebra.SortKey{Index: idx, Desc: oi.Desc}
			case oi.Position >= 1 && oi.Position <= out.Len():
				keys[i] = algebra.SortKey{Index: oi.Position - 1, Desc: oi.Desc}
			default:
				return nil, fmt.Errorf("%w: ORDER BY position %d out of range 1..%d", ErrPlan, oi.Position, out.Len())
			}
		}
		op = &algebra.Sort{Child: op, Keys: keys}
	}
	if stmt.Limit >= 0 {
		op = &algebra.Limit{Child: op, N: stmt.Limit}
	}
	return op, nil
}
