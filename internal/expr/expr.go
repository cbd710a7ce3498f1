// Package expr implements runtime expression trees evaluated against tuples:
// column references, literals, comparisons with SQL three-valued logic,
// boolean connectives, arithmetic, IS NULL, EXISTS / IN / scalar subqueries,
// and aggregate accumulators.
//
// Expressions are built by the planner with columns already resolved to
// positional indexes, so evaluation performs no name lookups. Subqueries are
// injected behind the one-method Subquery interface, which keeps this
// package independent of the planner and algebra layers.
//
// Which fields of a node are its operands is written once, in the walkers
// (walk.go): Walk visits a tree, Map rebuilds one, and every traversal
// here and in the planner is a visitor of the two. A new node kind is added
// to them once; evaluation (Eval, EvalVec) and rendering keep their
// per-kind code.
package expr

import (
	"errors"
	"fmt"
	"strings"

	"maybms/internal/obs"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

// ErrEval is wrapped by all evaluation errors.
var ErrEval = errors.New("evaluation error")

// Subquery is a compiled nested query. The planner satisfies it with a
// closure over the algebra plan; Eval receives the context of the outer
// tuple so correlated subqueries can reach enclosing columns.
type Subquery interface {
	Eval(ctx *Context) (*relation.Relation, error)
}

// SubqueryFunc adapts a function to the Subquery interface.
type SubqueryFunc func(ctx *Context) (*relation.Relation, error)

// Eval implements Subquery.
func (f SubqueryFunc) Eval(ctx *Context) (*relation.Relation, error) { return f(ctx) }

// Context carries the tuple an expression is evaluated against. Outer links
// to the context of the enclosing query for correlated subqueries.
//
// Engines pass a root context carrying only Interrupt as the outer context
// of a top-level evaluation; it sits beyond every resolvable correlation
// depth, so column resolution is unaffected, while the long-running algebra
// iterators discover the hook through FindInterrupt and poll it.
type Context struct {
	Schema *schema.Schema
	Tuple  tuple.Tuple
	Outer  *Context
	// Interrupt, when non-nil, is polled by long-running operators
	// (Scan/CrossJoin/HashJoin, once per batch); a non-nil return aborts
	// the evaluation with that error.
	Interrupt func() error
	// Stats, when non-nil, accumulates per-alternative evaluation counts
	// (batch vs. row collects, rows materialized) for a traced statement.
	// Like Interrupt it rides the root context and is found via FindStats;
	// mutations are stage-level atomic adds, never per-row work.
	Stats *obs.ExecStats
}

// FindInterrupt returns the innermost Interrupt hook on the context chain
// (nil-receiver safe; nil when no hook is installed).
func (c *Context) FindInterrupt() func() error {
	for ctx := c; ctx != nil; ctx = ctx.Outer {
		if ctx.Interrupt != nil {
			return ctx.Interrupt
		}
	}
	return nil
}

// FindStats returns the innermost ExecStats accumulator on the context
// chain (nil-receiver safe; nil when tracing is off).
func (c *Context) FindStats() *obs.ExecStats {
	for ctx := c; ctx != nil; ctx = ctx.Outer {
		if ctx.Stats != nil {
			return ctx.Stats
		}
	}
	return nil
}

// At returns the context `depth` levels up the outer chain.
func (c *Context) At(depth int) (*Context, error) {
	ctx := c
	for i := 0; i < depth; i++ {
		if ctx == nil || ctx.Outer == nil {
			return nil, fmt.Errorf("%w: correlation depth %d exceeds context", ErrEval, depth)
		}
		ctx = ctx.Outer
	}
	if ctx == nil {
		return nil, fmt.Errorf("%w: nil evaluation context", ErrEval)
	}
	return ctx, nil
}

// Expr is a runtime expression node.
type Expr interface {
	// Eval computes the expression's value for the given context.
	Eval(ctx *Context) (value.Value, error)
	// String renders the expression for diagnostics.
	String() string
}

// Const is a literal value.
type Const struct{ Value value.Value }

// Eval implements Expr.
func (e Const) Eval(*Context) (value.Value, error) { return e.Value, nil }

func (e Const) String() string { return e.Value.SQL() }

// Column is a resolved column reference: index Index of the tuple found
// Depth levels up the context chain (0 = innermost).
type Column struct {
	Depth int
	Index int
	Name  string // display name, resolution already done
}

// Eval implements Expr.
func (e Column) Eval(ctx *Context) (value.Value, error) {
	c, err := ctx.At(e.Depth)
	if err != nil {
		return value.Null(), err
	}
	if e.Index < 0 || e.Index >= len(c.Tuple) {
		return value.Null(), fmt.Errorf("%w: column index %d out of range", ErrEval, e.Index)
	}
	return c.Tuple[e.Index], nil
}

func (e Column) String() string {
	if e.Name != "" {
		return e.Name
	}
	return fmt.Sprintf("#%d@%d", e.Index, e.Depth)
}

// CmpOp is a comparison operator.
type CmpOp uint8

// The comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// String returns the SQL spelling.
func (op CmpOp) String() string {
	switch op {
	case CmpEq:
		return "="
	case CmpNe:
		return "<>"
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", uint8(op))
	}
}

// Cmp compares two sub-expressions under SQL three-valued logic: NULL
// operands yield NULL; cross-kind ordering comparisons yield NULL; = and <>
// across incomparable kinds are false and true respectively.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eval implements Expr.
func (e Cmp) Eval(ctx *Context) (value.Value, error) {
	l, err := e.L.Eval(ctx)
	if err != nil {
		return value.Null(), err
	}
	r, err := e.R.Eval(ctx)
	if err != nil {
		return value.Null(), err
	}
	return Compare(e.Op, l, r), nil
}

func (e Cmp) String() string { return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R) }

// Compare applies a comparison operator to two values with SQL semantics,
// returning a BOOLEAN or NULL.
func Compare(op CmpOp, l, r value.Value) value.Value {
	if l.IsNull() || r.IsNull() {
		return value.Null()
	}
	comparable := l.IsNumeric() && r.IsNumeric() || l.Kind() == r.Kind()
	switch op {
	case CmpEq:
		return value.Bool(value.Equal(l, r))
	case CmpNe:
		return value.Bool(!value.Equal(l, r))
	}
	if !comparable {
		return value.Null()
	}
	c := value.Compare(l, r)
	// On exact numeric ties across kinds (1 vs 1.0) the total order is
	// nonzero; use Equal to detect the tie for ordering operators.
	if c != 0 && value.Equal(l, r) {
		c = 0
	}
	switch op {
	case CmpLt:
		return value.Bool(c < 0)
	case CmpLe:
		return value.Bool(c <= 0)
	case CmpGt:
		return value.Bool(c > 0)
	case CmpGe:
		return value.Bool(c >= 0)
	default:
		return value.Null()
	}
}

// And is SQL three-valued conjunction.
type And struct{ L, R Expr }

// Eval implements Expr.
func (e And) Eval(ctx *Context) (value.Value, error) {
	l, err := e.L.Eval(ctx)
	if err != nil {
		return value.Null(), err
	}
	if l.Kind() == value.KindBool && !l.AsBool() {
		return value.Bool(false), nil
	}
	r, err := e.R.Eval(ctx)
	if err != nil {
		return value.Null(), err
	}
	return threeValuedAnd(l, r)
}

func (e And) String() string { return fmt.Sprintf("(%s AND %s)", e.L, e.R) }

func threeValuedAnd(l, r value.Value) (value.Value, error) {
	lb, lerr := boolOrNull(l)
	rb, rerr := boolOrNull(r)
	if lerr != nil {
		return value.Null(), lerr
	}
	if rerr != nil {
		return value.Null(), rerr
	}
	switch {
	case lb == tvFalse || rb == tvFalse:
		return value.Bool(false), nil
	case lb == tvTrue && rb == tvTrue:
		return value.Bool(true), nil
	default:
		return value.Null(), nil
	}
}

// Or is SQL three-valued disjunction.
type Or struct{ L, R Expr }

// Eval implements Expr.
func (e Or) Eval(ctx *Context) (value.Value, error) {
	l, err := e.L.Eval(ctx)
	if err != nil {
		return value.Null(), err
	}
	if l.Kind() == value.KindBool && l.AsBool() {
		return value.Bool(true), nil
	}
	r, err := e.R.Eval(ctx)
	if err != nil {
		return value.Null(), err
	}
	lb, lerr := boolOrNull(l)
	rb, rerr := boolOrNull(r)
	if lerr != nil {
		return value.Null(), lerr
	}
	if rerr != nil {
		return value.Null(), rerr
	}
	switch {
	case lb == tvTrue || rb == tvTrue:
		return value.Bool(true), nil
	case lb == tvFalse && rb == tvFalse:
		return value.Bool(false), nil
	default:
		return value.Null(), nil
	}
}

func (e Or) String() string { return fmt.Sprintf("(%s OR %s)", e.L, e.R) }

// Not is SQL three-valued negation.
type Not struct{ E Expr }

// Eval implements Expr.
func (e Not) Eval(ctx *Context) (value.Value, error) {
	v, err := e.E.Eval(ctx)
	if err != nil {
		return value.Null(), err
	}
	b, berr := boolOrNull(v)
	if berr != nil {
		return value.Null(), berr
	}
	switch b {
	case tvTrue:
		return value.Bool(false), nil
	case tvFalse:
		return value.Bool(true), nil
	default:
		return value.Null(), nil
	}
}

func (e Not) String() string { return fmt.Sprintf("(NOT %s)", e.E) }

type tv uint8

const (
	tvNull tv = iota
	tvFalse
	tvTrue
)

func boolOrNull(v value.Value) (tv, error) {
	switch {
	case v.IsNull():
		return tvNull, nil
	case v.Kind() == value.KindBool:
		if v.AsBool() {
			return tvTrue, nil
		}
		return tvFalse, nil
	default:
		return tvNull, fmt.Errorf("%w: expected boolean, got %s %v", ErrEval, v.Kind(), v)
	}
}

// Arith applies a binary arithmetic operator.
type Arith struct {
	Op   value.BinaryOp
	L, R Expr
}

// Eval implements Expr.
func (e Arith) Eval(ctx *Context) (value.Value, error) {
	l, err := e.L.Eval(ctx)
	if err != nil {
		return value.Null(), err
	}
	r, err := e.R.Eval(ctx)
	if err != nil {
		return value.Null(), err
	}
	v, err := value.Arith(e.Op, l, r)
	if err != nil {
		return value.Null(), fmt.Errorf("%w: %v", ErrEval, err)
	}
	return v, nil
}

func (e Arith) String() string { return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R) }

// Neg is unary minus.
type Neg struct{ E Expr }

// Eval implements Expr.
func (e Neg) Eval(ctx *Context) (value.Value, error) {
	v, err := e.E.Eval(ctx)
	if err != nil {
		return value.Null(), err
	}
	out, err := value.Neg(v)
	if err != nil {
		return value.Null(), fmt.Errorf("%w: %v", ErrEval, err)
	}
	return out, nil
}

func (e Neg) String() string { return fmt.Sprintf("(-%s)", e.E) }

// IsNull tests for NULL (or NOT NULL when Negated).
type IsNull struct {
	E       Expr
	Negated bool
}

// Eval implements Expr.
func (e IsNull) Eval(ctx *Context) (value.Value, error) {
	v, err := e.E.Eval(ctx)
	if err != nil {
		return value.Null(), err
	}
	return value.Bool(v.IsNull() != e.Negated), nil
}

func (e IsNull) String() string {
	if e.Negated {
		return fmt.Sprintf("(%s IS NOT NULL)", e.E)
	}
	return fmt.Sprintf("(%s IS NULL)", e.E)
}

// Exists tests whether a subquery returns at least one row.
type Exists struct {
	Sub     Subquery
	Negated bool
}

// Eval implements Expr.
func (e Exists) Eval(ctx *Context) (value.Value, error) {
	rel, err := e.Sub.Eval(ctx)
	if err != nil {
		return value.Null(), err
	}
	return value.Bool(!rel.Empty() != e.Negated), nil
}

func (e Exists) String() string {
	if e.Negated {
		return "NOT EXISTS(...)"
	}
	return "EXISTS(...)"
}

// In tests membership of Left in either an expression list or a one-column
// subquery, with SQL NULL semantics.
type In struct {
	Left    Expr
	List    []Expr   // non-nil for IN (a, b, c)
	Sub     Subquery // non-nil for IN (select ...)
	Negated bool
}

// Eval implements Expr.
func (e In) Eval(ctx *Context) (value.Value, error) {
	l, err := e.Left.Eval(ctx)
	if err != nil {
		return value.Null(), err
	}
	if l.IsNull() {
		return value.Null(), nil
	}
	found, sawNull := false, false
	if e.Sub != nil {
		rel, err := e.Sub.Eval(ctx)
		if err != nil {
			return value.Null(), err
		}
		if rel.Schema.Len() != 1 {
			return value.Null(), fmt.Errorf("%w: IN subquery must return one column, got %s", ErrEval, rel.Schema)
		}
		b := rel.Batch()
		for i := 0; i < b.Len(); i++ {
			if v := b.At(i, 0); v.IsNull() {
				sawNull = true
			} else if value.Equal(l, v) {
				found = true
				break
			}
		}
	} else {
		for _, item := range e.List {
			v, err := item.Eval(ctx)
			if err != nil {
				return value.Null(), err
			}
			if v.IsNull() {
				sawNull = true
			} else if value.Equal(l, v) {
				found = true
				break
			}
		}
	}
	switch {
	case found:
		return value.Bool(!e.Negated), nil
	case sawNull:
		return value.Null(), nil
	default:
		return value.Bool(e.Negated), nil
	}
}

func (e In) String() string {
	neg := ""
	if e.Negated {
		neg = "NOT "
	}
	if e.Sub != nil {
		return fmt.Sprintf("(%s %sIN (subquery))", e.Left, neg)
	}
	parts := make([]string, len(e.List))
	for i, x := range e.List {
		parts[i] = x.String()
	}
	return fmt.Sprintf("(%s %sIN (%s))", e.Left, neg, strings.Join(parts, ", "))
}

// Scalar evaluates a subquery expected to return at most one row of one
// column; zero rows yield NULL, more than one row is an error.
type Scalar struct{ Sub Subquery }

// Eval implements Expr.
func (e Scalar) Eval(ctx *Context) (value.Value, error) {
	rel, err := e.Sub.Eval(ctx)
	if err != nil {
		return value.Null(), err
	}
	if rel.Schema.Len() != 1 {
		return value.Null(), fmt.Errorf("%w: scalar subquery must return one column, got %s", ErrEval, rel.Schema)
	}
	switch rel.Len() {
	case 0:
		return value.Null(), nil
	case 1:
		return rel.Batch().At(0, 0), nil
	default:
		return value.Null(), fmt.Errorf("%w: scalar subquery returned %d rows", ErrEval, rel.Len())
	}
}

func (e Scalar) String() string { return "(scalar subquery)" }
