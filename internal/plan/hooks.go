package plan

import (
	"fmt"

	"maybms/internal/algebra"
	"maybms/internal/expr"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

// The hooks in this file exist for the I-SQL engine (internal/core), which
// needs to interleave world-splitting between the FROM/WHERE part of a
// query and the rest of it: REPAIR BY KEY and CHOICE OF act on the
// FROM/WHERE intermediate *before* projection (the paper's
// "select A, B, C from R repair by key A" repairs R, then projects in each
// repaired world).

// BuildFromWhere compiles only the FROM and WHERE clauses of stmt into an
// operator producing the pre-projection intermediate. The statement must
// not carry UNION (the engine rejects world-splitting clauses on unions).
func BuildFromWhere(stmt *sqlparse.SelectStmt, cat Catalog) (algebra.Operator, error) {
	if stmt.Union != nil {
		return nil, fmt.Errorf("%w: FROM/WHERE part of a UNION cannot be isolated", ErrPlan)
	}
	from, _, err := buildFromWhere(stmt, cat, nil)
	return from, err
}

// BuildOnRelation compiles the post-FROM/WHERE part of stmt (aggregates,
// projection, DISTINCT, ORDER BY, LIMIT) over input, which must be the
// materialized FROM/WHERE intermediate (its schema carries the FROM
// qualifiers). Used by the engine after a repair or choice split.
func BuildOnRelation(stmt *sqlparse.SelectStmt, input *relation.Relation, cat Catalog) (algebra.Operator, error) {
	if stmt.HasISQL() {
		return nil, fmt.Errorf("%w: I-SQL construct reached the SQL planner (engine must strip it): %s", ErrPlan, stmt)
	}
	if stmt.Union != nil {
		return nil, fmt.Errorf("%w: UNION cannot be combined with world-splitting clauses", ErrPlan)
	}
	from := &inputScan{Scan: algebra.Scan{Rel: input}}
	e := &env{cat: cat, scopes: []*schema.Schema{input.Schema}}
	aggSpecs, aggKeys := collectAggregates(stmt)
	if len(aggSpecs) > 0 || len(stmt.GroupBy) > 0 {
		return buildAggregate(stmt, from, e, aggSpecs, aggKeys, nil)
	}
	op, err := projectItems(stmt, from, e)
	if err != nil {
		return nil, err
	}
	return finishSelect(stmt, op)
}

// Predicate is a compiled standalone condition (no row context), evaluated
// against a catalog captured at compile time. Used for ASSERT.
type Predicate func() (bool, error)

// BuildPredicate compiles a standalone boolean expression (the ASSERT
// condition) against cat. Subqueries inside the expression query cat's
// relations. NULL results count as false, as in WHERE.
func BuildPredicate(e sqlparse.Expr, cat Catalog) (Predicate, error) {
	return BuildPredicateInterrupt(e, cat, nil)
}

// BuildPredicateInterrupt is BuildPredicate with a cancellation hook
// threaded into the evaluation context, so scans inside the predicate's
// subqueries poll it (see internal/algebra). A nil hook is BuildPredicate.
func BuildPredicateInterrupt(e sqlparse.Expr, cat Catalog, interrupt func() error) (Predicate, error) {
	env := &env{cat: cat, scopes: []*schema.Schema{schema.New()}}
	low, err := env.lower(e)
	if err != nil {
		return nil, err
	}
	return predicateOf(low, interrupt), nil
}

// predicateOf wraps a lowered condition as a Predicate evaluated against
// an empty row, with an optional interrupt hook on the context chain.
func predicateOf(low expr.Expr, interrupt func() error) Predicate {
	return func() (bool, error) {
		ctx := &expr.Context{Schema: schema.New(), Tuple: tuple.Tuple{}, Interrupt: interrupt}
		v, err := low.Eval(ctx)
		if err != nil {
			return false, err
		}
		return v.Truth(), nil
	}
}

// BuildScalar compiles a standalone scalar expression (no row context)
// against cat, for INSERT value lists that may contain subqueries.
func BuildScalar(e sqlparse.Expr, cat Catalog) (expr.Expr, error) {
	env := &env{cat: cat, scopes: []*schema.Schema{schema.New()}}
	return env.lower(e)
}

// BuildRowExpr compiles an expression evaluated against rows of schema s
// (UPDATE right-hand sides and UPDATE/DELETE WHERE clauses).
func BuildRowExpr(e sqlparse.Expr, s *schema.Schema, cat Catalog) (expr.Expr, error) {
	env := &env{cat: cat, scopes: []*schema.Schema{s}}
	return env.lower(e)
}

// ConstInsertRows evaluates an INSERT statement's value rows against the
// target table's schema: every expression must be constant (literals,
// arithmetic on literals, unary minus — INSERT rows are
// world-independent), and an explicit column list reorders the values and
// NULL-fills the unnamed columns. Both engines share this so the
// semantics cannot drift.
func ConstInsertRows(st *sqlparse.Insert, sch *schema.Schema) ([]tuple.Tuple, error) {
	var positions []int
	if len(st.Columns) > 0 {
		var err error
		positions, err = sch.IndexesOf(st.Columns)
		if err != nil {
			return nil, err
		}
	}
	noRelations := CatalogFunc(func(name string) (*relation.Relation, error) {
		return nil, fmt.Errorf("INSERT values must be constant; relation %q referenced", name)
	})
	constValue := func(e sqlparse.Expr) (value.Value, error) {
		low, err := BuildScalar(e, noRelations)
		if err != nil {
			return value.Null(), err
		}
		return low.Eval(&expr.Context{Schema: schema.New(), Tuple: tuple.Tuple{}})
	}
	rows := make([]tuple.Tuple, len(st.Rows))
	for i, exprRow := range st.Rows {
		var t tuple.Tuple
		if positions == nil {
			if len(exprRow) != sch.Len() {
				return nil, fmt.Errorf("INSERT row has %d values, table %s has %d columns", len(exprRow), st.Table, sch.Len())
			}
			t = make(tuple.Tuple, sch.Len())
			for j, ex := range exprRow {
				v, err := constValue(ex)
				if err != nil {
					return nil, err
				}
				t[j] = v
			}
		} else {
			if len(exprRow) != len(positions) {
				return nil, fmt.Errorf("INSERT row has %d values for %d columns", len(exprRow), len(positions))
			}
			t = make(tuple.Tuple, sch.Len())
			for j := range t {
				t[j] = value.Null()
			}
			for j, ex := range exprRow {
				v, err := constValue(ex)
				if err != nil {
					return nil, err
				}
				t[positions[j]] = v
			}
		}
		rows[i] = t
	}
	return rows, nil
}
