// Package plan lowers parsed SELECT statements (their plain-SQL core) into
// executable algebra operator trees against a catalog of named relations.
//
// The planner performs name resolution (including correlated references
// into enclosing queries), star expansion, aggregate detection and
// rewriting, and subquery compilation. The I-SQL constructs (possible /
// certain / conf, repair, choice, assert, group worlds by) are *not*
// handled here — the engines strip them from a statement's head block and
// compile the plain core once; the planner rejects I-SQL anywhere else
// (UNION arms, subqueries) with one message per case.
//
// One logical rewrite runs between the FROM list and the WHERE (rewrite.go).
// A FROM list of several bindings compiles to a left-deep chain of joins in
// FROM order, the right input of each join its build side, and every
// top-level AND-conjunct of the WHERE, in written order, gets one of three
// treatments:
//
//   - a conjunct reading columns of exactly one binding becomes a Filter
//     directly above that binding's scan;
//   - a conjunct `colA = colB` between two bindings becomes a key pair of a
//     HashJoin at the lowest join covering both (a join left without keys
//     stays a CrossJoin);
//   - everything else stays in one Filter above the joins.
//
// Only conjuncts that cannot raise an evaluation error move: trees of
// comparisons, IS NULL, IN-lists, AND, OR and NOT over columns of the block
// and constants — no arithmetic, no subquery, no outer reference, no bare
// non-boolean operand. The rewritten plan therefore never surfaces an error
// the written one would not, and since a hash join meets each left row's
// matches in build order, it answers row for row, order included, what the
// cross-joins-plus-filter plan answered. There are no statistics, no
// reordering and nothing to switch it off; a single-binding FROM is left as
// written.
//
// Beyond compilation, the package provides two analyses over compiled
// templates for the engines:
//
//   - Prepare/Bind (prepare.go): compile-once templates rebound per world,
//     so planning happens once per statement instead of once per world,
//     with a process-wide shared Cache (cache.go) across sessions.
//   - The statement memo (memo.go): what runs once per statement. Every
//     Bind takes the statement's Memo, and two kinds of invariant subplan
//     evaluate once for each distinct input rather than once per outer row
//     or per world: an uncorrelated subquery (the planner marks it while it
//     resolves the subquery's columns: none reaches past its own scopes)
//     and the build side of a HashJoin outside any correlated subquery. An
//     entry is keyed by the template node plus the *relation.Relation
//     values its scans read; identity is a sound key because a published
//     relation is never written in place (a statement writes into copies
//     and swaps them in), and the memo dies with the statement, so the
//     shared Cache still holds no data.
//   - Component-touch analysis (components.go): given a catalog mapping
//     tables to world-set-decomposition components, Analyze annotates each
//     subtree with the components it touches and certifies when the whole
//     tree distributes over the certain ∪ per-component structure — the
//     condition under which internal/wsd answers closures component-wise,
//     with no partial expansion (component merge) at all.
package plan

import (
	"errors"
	"fmt"
	"strings"

	"maybms/internal/algebra"
	"maybms/internal/expr"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

// ErrPlan is wrapped by all planning errors.
var ErrPlan = errors.New("plan error")

// Catalog resolves table and view names to relations; the engine passes the
// current world's database.
type Catalog interface {
	Lookup(name string) (*relation.Relation, error)
}

// CatalogFunc adapts a function to the Catalog interface.
type CatalogFunc func(name string) (*relation.Relation, error)

// Lookup implements Catalog.
func (f CatalogFunc) Lookup(name string) (*relation.Relation, error) { return f(name) }

// build compiles the plain-SQL core of stmt against cat; outer is the
// environment enclosing stmt when it is a subquery, nil at the top level.
func build(stmt *sqlparse.SelectStmt, cat Catalog, outer *env) (algebra.Operator, error) {
	if err := checkPlain(stmt, outer); err != nil {
		return nil, err
	}
	op, err := buildCore(stmt, cat, outer)
	if err != nil {
		return nil, err
	}
	// UNION chain.
	if stmt.Union != nil {
		rest, err := build(stmt.Union, cat, outer)
		if err != nil {
			return nil, err
		}
		if op.Schema().Len() != rest.Schema().Len() {
			return nil, fmt.Errorf("%w: UNION arity mismatch: %s vs %s", ErrPlan, op.Schema(), rest.Schema())
		}
		var u algebra.Operator = &algebra.Union{Left: op, Right: rest}
		if !stmt.UnionAll {
			u = &algebra.Distinct{Child: u}
		}
		op = u
	}
	return op, nil
}

// checkPlain rejects I-SQL in a statement the planner compiles. The engines
// strip the constructs of a statement's head block, so I-SQL in a UNION arm
// or in a subquery (outer != nil) is the statement's own error; in the head
// block it means an engine did not strip it.
func checkPlain(stmt *sqlparse.SelectStmt, outer *env) error {
	switch {
	case stmt.Union != nil && stmt.Union.HasISQL():
		return fmt.Errorf("%w: I-SQL constructs are not allowed in UNION arms", ErrPlan)
	case !stmt.HasISQL():
		return nil
	case outer != nil:
		return fmt.Errorf("%w: I-SQL constructs are not allowed in subqueries", ErrPlan)
	}
	return fmt.Errorf("%w: I-SQL construct reached the SQL planner (engine must strip it): %s", ErrPlan, stmt)
}

// buildCore compiles a single SELECT block (no union chain).
func buildCore(stmt *sqlparse.SelectStmt, cat Catalog, outer *env) (algebra.Operator, error) {
	from, env, err := buildFromWhere(stmt, cat, outer)
	if err != nil {
		return nil, err
	}

	aggSpecs, aggKeys := collectAggregates(stmt)
	if len(aggSpecs) > 0 || len(stmt.GroupBy) > 0 {
		return buildAggregate(stmt, from, env, aggSpecs, aggKeys)
	}

	op, err := buildProjection(stmt, from, env)
	if err != nil {
		return nil, err
	}
	return finishSelect(stmt, op)
}

// env carries the resolution scopes (innermost first) during lowering.
type env struct {
	cat    Catalog
	scopes []*schema.Schema
	// agg is non-nil when lowering runs against an aggregate output schema:
	// aggregate calls resolve to output columns instead of being evaluated.
	agg map[string]int
	// open lists the subqueries being compiled around this scope, outermost
	// first.
	open []*openSubquery
}

// openSubquery is a subquery being compiled: base counts the scopes
// enclosing it, and correlated records that a column inside resolved into
// one of them.
type openSubquery struct {
	base       int
	correlated bool
}

// nest returns the environment of a block whose own scope is inner,
// enclosed by e (nil at a statement's top level).
func (e *env) nest(cat Catalog, inner *schema.Schema) *env {
	n := &env{cat: cat, scopes: []*schema.Schema{inner}}
	if e != nil {
		n.scopes = append(n.scopes, e.scopes...)
		n.open = e.open
	}
	return n
}

// resolve finds (depth, index) for a column reference across scopes, and
// marks correlated every open subquery the reference reaches out of.
func (e *env) resolve(qualifier, name string) (int, int, error) {
	var firstErr error
	for depth, s := range e.scopes {
		idx, err := s.Resolve(qualifier, name)
		if err == nil {
			// The resolved scope's position, counted from the outermost:
			// a subquery's enclosing scopes are the first base of them.
			at := len(e.scopes) - 1 - depth
			for _, o := range e.open {
				if at < o.base {
					o.correlated = true
				}
			}
			return depth, idx, nil
		}
		if errors.Is(err, schema.ErrAmbiguousColumn) {
			return 0, 0, fmt.Errorf("%w: %w", ErrPlan, err)
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return 0, 0, fmt.Errorf("%w: %w", ErrPlan, firstErr)
}

// buildFromWhere compiles the FROM and WHERE clauses of one SELECT block —
// the scans joined under the WHERE by joinWhere's rewrite — and returns the
// lowering environment of the rest of the block.
func buildFromWhere(stmt *sqlparse.SelectStmt, cat Catalog, outer *env) (algebra.Operator, *env, error) {
	scans, fromSchema, err := buildFrom(stmt.From, cat)
	if err != nil {
		return nil, nil, err
	}
	env := outer.nest(cat, fromSchema)
	var pred expr.Expr
	if stmt.Where != nil {
		if pred, err = env.lower(stmt.Where); err != nil {
			return nil, nil, err
		}
	}
	return joinWhere(scans, pred), env, nil
}

// buildFrom compiles the FROM list into one scan per binding, in FROM order,
// and the schema of their concatenation. An empty FROM yields the dual
// relation: one zero-width tuple.
func buildFrom(refs []sqlparse.TableRef, cat Catalog) ([]algebra.Operator, *schema.Schema, error) {
	if len(refs) == 0 {
		dual := relation.New(schema.New())
		dual.MustAppend(tuple.Tuple{})
		return []algebra.Operator{algebra.NewScan(dual)}, dual.Schema, nil
	}
	scans := make([]algebra.Operator, 0, len(refs))
	var fromSchema *schema.Schema
	seen := map[string]bool{}
	for _, ref := range refs {
		binding := strings.ToLower(ref.Binding())
		if seen[binding] {
			return nil, nil, fmt.Errorf("%w: duplicate table binding %q in FROM", ErrPlan, ref.Binding())
		}
		seen[binding] = true
		rel, err := cat.Lookup(ref.Name)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %w", ErrPlan, err)
		}
		scan := newTableScan(ref.Name, rel, ref.Binding())
		if fromSchema == nil {
			fromSchema = scan.Schema()
		} else {
			fromSchema = fromSchema.Concat(scan.Schema())
		}
		scans = append(scans, scan)
	}
	return scans, fromSchema, nil
}

// lower converts an AST expression to a runtime expression.
func (e *env) lower(x sqlparse.Expr) (expr.Expr, error) {
	switch n := x.(type) {
	case sqlparse.Literal:
		return expr.Const{Value: n.Value}, nil
	case sqlparse.ColumnRef:
		if e.agg != nil {
			// Aggregate context: bare columns must be group-by outputs in
			// the innermost scope, else outer-query references.
			depth, idx, err := e.resolve(n.Qualifier, n.Name)
			if err != nil {
				return nil, fmt.Errorf("%w (column %s must appear in GROUP BY or be aggregated)", err, n)
			}
			return expr.Column{Depth: depth, Index: idx, Name: n.String()}, nil
		}
		depth, idx, err := e.resolve(n.Qualifier, n.Name)
		if err != nil {
			return nil, err
		}
		return expr.Column{Depth: depth, Index: idx, Name: n.String()}, nil
	case sqlparse.BinaryExpr:
		l, err := e.lower(n.L)
		if err != nil {
			return nil, err
		}
		r, err := e.lower(n.R)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case "AND":
			return expr.And{L: l, R: r}, nil
		case "OR":
			return expr.Or{L: l, R: r}, nil
		case "=":
			return expr.Cmp{Op: expr.CmpEq, L: l, R: r}, nil
		case "<>":
			return expr.Cmp{Op: expr.CmpNe, L: l, R: r}, nil
		case "<":
			return expr.Cmp{Op: expr.CmpLt, L: l, R: r}, nil
		case "<=":
			return expr.Cmp{Op: expr.CmpLe, L: l, R: r}, nil
		case ">":
			return expr.Cmp{Op: expr.CmpGt, L: l, R: r}, nil
		case ">=":
			return expr.Cmp{Op: expr.CmpGe, L: l, R: r}, nil
		case "+":
			return expr.Arith{Op: value.OpAdd, L: l, R: r}, nil
		case "-":
			return expr.Arith{Op: value.OpSub, L: l, R: r}, nil
		case "*":
			return expr.Arith{Op: value.OpMul, L: l, R: r}, nil
		case "/":
			return expr.Arith{Op: value.OpDiv, L: l, R: r}, nil
		case "%":
			return expr.Arith{Op: value.OpMod, L: l, R: r}, nil
		default:
			return nil, fmt.Errorf("%w: unknown operator %q", ErrPlan, n.Op)
		}
	case sqlparse.UnaryExpr:
		inner, err := e.lower(n.E)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case "NOT":
			return expr.Not{E: inner}, nil
		case "-":
			return expr.Neg{E: inner}, nil
		default:
			return nil, fmt.Errorf("%w: unknown unary operator %q", ErrPlan, n.Op)
		}
	case sqlparse.IsNullExpr:
		inner, err := e.lower(n.E)
		if err != nil {
			return nil, err
		}
		return expr.IsNull{E: inner, Negated: n.Negated}, nil
	case sqlparse.ExistsExpr:
		sub, err := e.subquery(n.Sub)
		if err != nil {
			return nil, err
		}
		return expr.Exists{Sub: sub, Negated: n.Negated}, nil
	case sqlparse.InExpr:
		left, err := e.lower(n.Left)
		if err != nil {
			return nil, err
		}
		if n.Sub != nil {
			sub, err := e.subquery(n.Sub)
			if err != nil {
				return nil, err
			}
			return expr.In{Left: left, Sub: sub, Negated: n.Negated}, nil
		}
		list := make([]expr.Expr, len(n.List))
		for i, item := range n.List {
			li, err := e.lower(item)
			if err != nil {
				return nil, err
			}
			list[i] = li
		}
		return expr.In{Left: left, List: list, Negated: n.Negated}, nil
	case sqlparse.SubqueryExpr:
		sub, err := e.subquery(n.Sub)
		if err != nil {
			return nil, err
		}
		return expr.Scalar{Sub: sub}, nil
	case sqlparse.FuncCall:
		if e.agg != nil {
			if idx, ok := e.agg[n.String()]; ok {
				return expr.Column{Depth: 0, Index: idx, Name: n.String()}, nil
			}
		}
		if _, isAgg := expr.AggKindByName(n.Name); isAgg {
			return nil, fmt.Errorf("%w: aggregate %s not allowed here", ErrPlan, n)
		}
		return nil, fmt.Errorf("%w: unknown function %q", ErrPlan, n.Name)
	case sqlparse.Star:
		return nil, fmt.Errorf("%w: * only allowed as a select item", ErrPlan)
	case sqlparse.ConfExpr:
		return nil, fmt.Errorf("%w: conf only allowed at the top level of an I-SQL query", ErrPlan)
	default:
		return nil, fmt.Errorf("%w: unsupported expression %T", ErrPlan, x)
	}
}

// subquery compiles a nested SELECT into an expr.Subquery. The subquery's
// own scopes sit in front of the current scopes for correlation, and the
// one compilation marks it uncorrelated when no column inside resolves
// into the current scopes. The concrete compiledSubquery type (rather than
// an opaque closure) lets the rebinder reach the underlying plan when
// instantiating per world.
func (e *env) subquery(stmt *sqlparse.SelectStmt) (expr.Subquery, error) {
	mark := &openSubquery{base: len(e.scopes)}
	outer := &env{cat: e.cat, scopes: e.scopes, open: append(e.open[:len(e.open):len(e.open)], mark)}
	op, err := build(stmt, e.cat, outer)
	if err != nil {
		return nil, err
	}
	return &compiledSubquery{op: op, uncorrelated: !mark.correlated}, nil
}
