package algebra

// The expression kernels: the two steps that turn row expressions into an
// answer — a predicate into a selection (Select, Filter's step) and
// expressions into values (Values, Project's step) — and the row evaluator
// (RowEval) both fall back on outside EvalVec's subset. UPDATE and DELETE
// (internal/plan's BoundDML.Apply) are compositions of the same kernels, so a
// query and a row rewrite evaluate an expression one way, with one error
// order.

import (
	"maybms/internal/colbatch"
	"maybms/internal/expr"
	"maybms/internal/schema"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

// RowEval evaluates expressions one row of a batch at a time: over a
// row-form batch's stored tuples, and over a columnar batch through one
// tuple it refills from the columns per row, so no batch is materialized as
// rows. The tuple is valid until the next Row call. The zero RowEval is
// ready after Reset.
type RowEval struct {
	ctx expr.Context
	own bool // ctx.Tuple is the refill tuple, not a stored one
}

// Reset points r at rows of schema sch, evaluated under outer, the
// enclosing query's context (nil: none). The refill tuple is kept.
func (r *RowEval) Reset(sch *schema.Schema, outer *expr.Context) {
	r.ctx.Schema, r.ctx.Outer = sch, outer
}

// Row returns the evaluation context of row i of b.
func (r *RowEval) Row(b *colbatch.Batch, i int) *expr.Context {
	if b.RowBacked() {
		r.ctx.Tuple, r.own = b.Row(i), false
		return &r.ctx
	}
	if w := b.Width(); !r.own || len(r.ctx.Tuple) != w {
		r.ctx.Tuple, r.own = make(tuple.Tuple, w), true
	}
	for j := range r.ctx.Tuple {
		r.ctx.Tuple[j] = b.At(i, j)
	}
	return &r.ctx
}

// Select appends to sel[:0] the ascending rows of b on which pred is true
// (NULL and false both drop a row), up to the first row on which pred
// fails, and returns them with that failure as the evaluator reported it.
// A columnar b is evaluated column-at-a-time when pred is vectorizable;
// anything else row by row through ev.
func Select(pred expr.Expr, b *colbatch.Batch, ev *RowEval, sel []int32) ([]int32, error) {
	n := b.Len()
	sel = sel[:0]
	if b.RowBacked() || !expr.Vectorizable(pred) {
		for i := 0; i < n; i++ {
			v, err := pred.Eval(ev.Row(b, i))
			if err != nil {
				return sel, err
			}
			if v.Truth() {
				sel = append(sel, int32(i))
			}
		}
		return sel, nil
	}
	v := expr.EvalVec(pred, b)
	stop := n
	var err error
	for i, e := range v.Errs {
		if e != nil {
			stop, err = i, e
			break
		}
	}
	switch {
	case v.Const:
		if v.CV.Truth() {
			for i := 0; i < stop; i++ {
				sel = append(sel, int32(i))
			}
		}
	case v.Col.Kind == value.KindBool && v.Col.Any == nil:
		bools, nulls := v.Col.Bools, v.Col.Nulls
		for i := 0; i < stop; i++ {
			if bools[i] && (nulls == nil || !nulls[i]) {
				sel = append(sel, int32(i))
			}
		}
	default:
		for i := 0; i < stop; i++ {
			if v.At(i).Truth() {
				sel = append(sel, int32(i))
			}
		}
	}
	return sel, err
}

// Values evaluates exprs at the rows of b into a batch of schema out, one
// column per expression, up to the first failing evaluation in row order:
// the lowest row, then the lowest expression. It returns the rows before
// that one (nil when there are none), the failing expression's index and
// its error as the evaluator reported it. A columnar b is evaluated
// column-at-a-time when every expression is vectorizable, into columns;
// anything else row by row through ev, into tuples that colbatch keeps or
// lays out as columns by their number.
func Values(exprs []expr.Expr, b *colbatch.Batch, ev *RowEval, out *schema.Schema) (*colbatch.Batch, int, error) {
	if b.RowBacked() || !vectorizable(exprs) {
		return valuesRows(exprs, b, ev, out)
	}
	n := b.Len()
	var buf [8]expr.Vec // on the stack: only the answer is allocated
	vecs := buf[:0]
	errs := false
	for _, e := range exprs {
		vecs = append(vecs, expr.EvalVec(e, b))
		errs = errs || vecs[len(vecs)-1].Errs != nil
	}
	stop, bad := n, 0
	var err error
scan:
	for i := 0; errs && i < n; i++ {
		for j := range vecs {
			if err = vecs[j].ErrAt(i); err != nil {
				stop, bad = i, j
				break scan
			}
		}
	}
	if stop == 0 {
		return nil, bad, err
	}
	cols := make([]colbatch.Col, len(vecs))
	for j := range vecs {
		cols[j] = colFromVec(&vecs[j], n, stop)
	}
	return colbatch.FromCols(out, cols, stop), bad, err
}

// valuesRows is Values evaluated row by row, into tuples sharing one value
// slab.
func valuesRows(exprs []expr.Expr, b *colbatch.Batch, ev *RowEval, out *schema.Schema) (*colbatch.Batch, int, error) {
	n, w := b.Len(), len(exprs)
	slab := make([]value.Value, n*w)
	rows := make([]tuple.Tuple, 0, n)
	bad := 0
	var err error
scan:
	for i := 0; i < n; i++ {
		ctx := ev.Row(b, i)
		row := slab[i*w : (i+1)*w : (i+1)*w]
		for j, e := range exprs {
			if row[j], err = e.Eval(ctx); err != nil {
				bad = j
				break scan
			}
		}
		rows = append(rows, tuple.Tuple(row))
	}
	if len(rows) == 0 {
		return nil, bad, err
	}
	return colbatch.FromRows(out, rows), bad, err
}

// vectorizable reports whether EvalVec handles every expression of exprs.
func vectorizable(exprs []expr.Expr) bool {
	for _, e := range exprs {
		if !expr.Vectorizable(e) {
			return false
		}
	}
	return true
}

// colFromVec materializes the first stop cells of a Vec as a column
// (broadcasting constants; the column is shared zero-copy when whole).
func colFromVec(v *expr.Vec, n, stop int) colbatch.Col {
	if v.Const {
		var cb colbatch.ColBuilder
		for i := 0; i < stop; i++ {
			cb.Append(v.CV)
		}
		return cb.Col()
	}
	if stop == n {
		return v.Col
	}
	return v.Col.Slice(0, stop)
}
