// Vectorized (batch-at-a-time) expression evaluation. EvalVec evaluates a
// subset of the expression language column-at-a-time over a colbatch.Batch,
// producing exactly the values — and exactly the errors, per row — that the
// row evaluator would. Anything outside that subset (subqueries, correlated
// columns, IN over a subquery) is reported by Vectorizable and evaluated by
// the caller row-at-a-time instead.
//
// Error equivalence is the subtle part: the row evaluator short-circuits
// (And skips its right operand on a false left, Or on a true left), so a
// row whose right operand would error must not surface that error when the
// left operand decides the result. EvalVec therefore tracks errors per row
// (Vec.Errs, lazily allocated) and applies the same masking the row
// evaluator's control flow implies; operators surface the first live error
// in row order.
package expr

import (
	"fmt"

	"maybms/internal/colbatch"
	"maybms/internal/value"
)

// Vec is the result of evaluating an expression over every row of a batch:
// either a single constant (Const true) or a column of N values, plus an
// optional per-row error array. A row with a non-nil error has no
// meaningful value.
type Vec struct {
	N     int
	Const bool
	CV    value.Value
	Col   colbatch.Col
	Errs  []error
}

// At returns the row-i value (meaningless when ErrAt(i) != nil).
func (v *Vec) At(i int) value.Value {
	if v.Const {
		return v.CV
	}
	return v.Col.Value(i)
}

// ErrAt returns the row-i evaluation error, if any.
func (v *Vec) ErrAt(i int) error {
	if v.Errs == nil {
		return nil
	}
	return v.Errs[i]
}

func (v *Vec) setErr(i int, err error) {
	if v.Errs == nil {
		v.Errs = make([]error, v.N)
	}
	v.Errs[i] = err
}

// Vectorizable reports whether e is in the subset EvalVec handles: literals,
// uncorrelated column references, comparisons, boolean connectives,
// arithmetic, unary minus, IS [NOT] NULL, and IN over constant lists.
func Vectorizable(e Expr) bool {
	ok := true
	Walk(e, func(n Expr) bool {
		if !ok {
			return false
		}
		switch x := n.(type) {
		case Column:
			ok = x.Depth == 0
		case In:
			ok = x.Sub == nil
			for _, item := range x.List {
				if _, c := item.(Const); !c {
					ok = false
				}
			}
		case Exists, Scalar:
			ok = false
		}
		return ok
	})
	return ok
}

// EvalVec evaluates e over every row of b. e must be Vectorizable; other
// expressions panic.
func EvalVec(e Expr, b *colbatch.Batch) Vec {
	n := b.Len()
	switch x := e.(type) {
	case Const:
		return Vec{N: n, Const: true, CV: x.Value}
	case Column:
		if x.Index < 0 || x.Index >= b.Width() {
			out := Vec{N: n}
			err := fmt.Errorf("%w: column index %d out of range", ErrEval, x.Index)
			for i := 0; i < n; i++ {
				out.setErr(i, err)
			}
			return out
		}
		return Vec{N: n, Col: *b.Col(x.Index)}
	case Cmp:
		l, r := EvalVec(x.L, b), EvalVec(x.R, b)
		return cmpVec(x.Op, &l, &r, n)
	case And:
		l, r := EvalVec(x.L, b), EvalVec(x.R, b)
		return andVec(&l, &r, n)
	case Or:
		l, r := EvalVec(x.L, b), EvalVec(x.R, b)
		return orVec(&l, &r, n)
	case Not:
		s := EvalVec(x.E, b)
		return notVec(&s, n)
	case Arith:
		l, r := EvalVec(x.L, b), EvalVec(x.R, b)
		return arithVec(x.Op, &l, &r, n)
	case Neg:
		s := EvalVec(x.E, b)
		return negVec(&s, n)
	case IsNull:
		s := EvalVec(x.E, b)
		return isNullVec(&s, x.Negated, n)
	case In:
		l := EvalVec(x.Left, b)
		return inVec(&l, x, n)
	default:
		panic(fmt.Sprintf("expr: EvalVec on non-vectorizable %T", e))
	}
}

// numSide describes one comparison operand as a float64 stream when both
// operands are numeric (the engine compares all numerics through float64;
// see value.Equal / value.Compare).
type numSide struct {
	kind   value.Kind // KindInt or KindFloat
	constv bool
	cf     float64
	ints   []int64
	floats []float64
}

func numericSide(v *Vec) (numSide, bool) {
	if v.Errs != nil {
		return numSide{}, false
	}
	if v.Const {
		if !v.CV.IsNumeric() {
			return numSide{}, false
		}
		return numSide{kind: v.CV.Kind(), constv: true, cf: v.CV.AsFloat()}, true
	}
	c := &v.Col
	if c.Any != nil || c.Nulls != nil {
		return numSide{}, false
	}
	switch c.Kind {
	case value.KindInt:
		return numSide{kind: value.KindInt, ints: c.Ints}, true
	case value.KindFloat:
		return numSide{kind: value.KindFloat, floats: c.Floats}, true
	}
	return numSide{}, false
}

func (s *numSide) at(i int) float64 {
	if s.constv {
		return s.cf
	}
	if s.ints != nil {
		return float64(s.ints[i])
	}
	return s.floats[i]
}

func cmpVec(op CmpOp, l, r *Vec, n int) Vec {
	out := Vec{N: n, Col: colbatch.Col{Kind: value.KindBool, Bools: make([]bool, n)}}
	// Fast path: both sides numeric without nulls or errors — every
	// comparison reduces to a float64 comparison, matching value.Equal and
	// Compare's tie-break exactly.
	if ls, ok := numericSide(l); ok {
		if rs, ok := numericSide(r); ok {
			bools := out.Col.Bools
			if ls.kind != rs.kind {
				// An int against a float: a NaN float is unordered, and
				// value.Compare orders the pair by kind, INT before FLOAT.
				tie := 1
				if ls.kind == value.KindInt {
					tie = -1
				}
				for i := 0; i < n; i++ {
					a, b := ls.at(i), rs.at(i)
					c := tie
					switch {
					case a < b:
						c = -1
					case a > b:
						c = 1
					case a == b:
						c = 0
					}
					bools[i] = op == CmpEq && c == 0 || op == CmpNe && c != 0 ||
						op == CmpLt && c < 0 || op == CmpLe && c <= 0 ||
						op == CmpGt && c > 0 || op == CmpGe && c >= 0
				}
				return out
			}
			switch op {
			case CmpEq:
				for i := 0; i < n; i++ {
					bools[i] = ls.at(i) == rs.at(i)
				}
			case CmpNe:
				for i := 0; i < n; i++ {
					bools[i] = ls.at(i) != rs.at(i)
				}
			case CmpLt:
				for i := 0; i < n; i++ {
					bools[i] = ls.at(i) < rs.at(i)
				}
			case CmpLe:
				// Not a<=b: unordered operands (NaN) compare as a tie in
				// value.Compare, so <= must hold exactly when !(a>b).
				for i := 0; i < n; i++ {
					bools[i] = !(ls.at(i) > rs.at(i))
				}
			case CmpGt:
				for i := 0; i < n; i++ {
					bools[i] = ls.at(i) > rs.at(i)
				}
			case CmpGe:
				for i := 0; i < n; i++ {
					bools[i] = !(ls.at(i) < rs.at(i))
				}
			}
			return out
		}
	}
	for i := 0; i < n; i++ {
		if err := firstErrAt(l, r, i); err != nil {
			out.setErr(i, err)
			continue
		}
		setBoolCell(&out, i, Compare(op, l.At(i), r.At(i)))
	}
	return out
}

// firstErrAt mirrors the row evaluator's operand order: the left operand's
// error surfaces first.
func firstErrAt(l, r *Vec, i int) error {
	if err := l.ErrAt(i); err != nil {
		return err
	}
	return r.ErrAt(i)
}

// setBoolCell stores a BOOLEAN-or-NULL value into a bool-typed output col.
func setBoolCell(out *Vec, i int, v value.Value) {
	if v.IsNull() {
		if out.Col.Nulls == nil {
			out.Col.Nulls = make([]bool, out.N)
		}
		out.Col.Nulls[i] = true
		return
	}
	out.Col.Bools[i] = v.AsBool()
}

// boolSide describes one connective operand as a bool stream when it can
// hold neither a NULL nor an error: a BOOLEAN constant, or a bool column
// without nulls and without errors.
type boolSide struct {
	constv bool
	cb     bool
	bools  []bool
}

func boolStream(v *Vec) (boolSide, bool) {
	if v.Errs != nil {
		return boolSide{}, false
	}
	if v.Const {
		if v.CV.Kind() != value.KindBool {
			return boolSide{}, false
		}
		return boolSide{constv: true, cb: v.CV.AsBool()}, true
	}
	c := &v.Col
	if c.Any != nil || c.Nulls != nil || c.Kind != value.KindBool {
		return boolSide{}, false
	}
	return boolSide{bools: c.Bools}, true
}

func (s *boolSide) at(i int) bool {
	if s.constv {
		return s.cb
	}
	return s.bools[i]
}

// boolPair returns both operands as bool streams when both qualify. Over
// them three-valued logic is two-valued, no cell is NULL and no row errs,
// so the connectives combine the slices directly.
func boolPair(l, r *Vec) (ls, rs boolSide, ok bool) {
	if ls, ok = boolStream(l); ok {
		rs, ok = boolStream(r)
	}
	return ls, rs, ok
}

func andVec(l, r *Vec, n int) Vec {
	out := Vec{N: n, Col: colbatch.Col{Kind: value.KindBool, Bools: make([]bool, n)}}
	if ls, rs, ok := boolPair(l, r); ok {
		for i, bools := 0, out.Col.Bools; i < n; i++ {
			bools[i] = ls.at(i) && rs.at(i)
		}
		return out
	}
	for i := 0; i < n; i++ {
		if err := l.ErrAt(i); err != nil {
			out.setErr(i, err)
			continue
		}
		lv := l.At(i)
		if lv.Kind() == value.KindBool && !lv.AsBool() {
			// Short-circuit: the right operand is never evaluated on this
			// row, so its error (if any) must not surface.
			continue // false is the zero cell
		}
		if err := r.ErrAt(i); err != nil {
			out.setErr(i, err)
			continue
		}
		v, err := threeValuedAnd(lv, r.At(i))
		if err != nil {
			out.setErr(i, err)
			continue
		}
		setBoolCell(&out, i, v)
	}
	return out
}

func orVec(l, r *Vec, n int) Vec {
	out := Vec{N: n, Col: colbatch.Col{Kind: value.KindBool, Bools: make([]bool, n)}}
	if ls, rs, ok := boolPair(l, r); ok {
		for i, bools := 0, out.Col.Bools; i < n; i++ {
			bools[i] = ls.at(i) || rs.at(i)
		}
		return out
	}
	for i := 0; i < n; i++ {
		if err := l.ErrAt(i); err != nil {
			out.setErr(i, err)
			continue
		}
		lv := l.At(i)
		if lv.Kind() == value.KindBool && lv.AsBool() {
			out.Col.Bools[i] = true
			continue
		}
		if err := r.ErrAt(i); err != nil {
			out.setErr(i, err)
			continue
		}
		rv := r.At(i)
		lb, lerr := boolOrNull(lv)
		rb, rerr := boolOrNull(rv)
		if lerr != nil {
			out.setErr(i, lerr)
			continue
		}
		if rerr != nil {
			out.setErr(i, rerr)
			continue
		}
		switch {
		case lb == tvTrue || rb == tvTrue:
			out.Col.Bools[i] = true
		case lb == tvFalse && rb == tvFalse:
			// false is the zero cell
		default:
			setBoolCell(&out, i, value.Null())
		}
	}
	return out
}

func notVec(s *Vec, n int) Vec {
	out := Vec{N: n, Col: colbatch.Col{Kind: value.KindBool, Bools: make([]bool, n)}}
	if ss, ok := boolStream(s); ok {
		for i, bools := 0, out.Col.Bools; i < n; i++ {
			bools[i] = !ss.at(i)
		}
		return out
	}
	for i := 0; i < n; i++ {
		if err := s.ErrAt(i); err != nil {
			out.setErr(i, err)
			continue
		}
		b, berr := boolOrNull(s.At(i))
		if berr != nil {
			out.setErr(i, berr)
			continue
		}
		switch b {
		case tvTrue:
			// false is the zero cell
		case tvFalse:
			out.Col.Bools[i] = true
		default:
			setBoolCell(&out, i, value.Null())
		}
	}
	return out
}

func arithVec(op value.BinaryOp, l, r *Vec, n int) Vec {
	// Fast path: +, - and * on int columns without nulls or errors can
	// never fail and never change kind.
	if op == value.OpAdd || op == value.OpSub || op == value.OpMul {
		if li, ok := intSide(l); ok {
			if ri, ok := intSide(r); ok {
				ints := make([]int64, n)
				switch op {
				case value.OpAdd:
					for i := 0; i < n; i++ {
						ints[i] = li.at(i) + ri.at(i)
					}
				case value.OpSub:
					for i := 0; i < n; i++ {
						ints[i] = li.at(i) - ri.at(i)
					}
				case value.OpMul:
					for i := 0; i < n; i++ {
						ints[i] = li.at(i) * ri.at(i)
					}
				}
				return Vec{N: n, Col: colbatch.Col{Kind: value.KindInt, Ints: ints}}
			}
		}
	}
	out := Vec{N: n}
	var cb colbatch.ColBuilder
	for i := 0; i < n; i++ {
		if err := firstErrAt(l, r, i); err != nil {
			out.setErr(i, err)
			cb.Append(value.Null())
			continue
		}
		v, err := value.Arith(op, l.At(i), r.At(i))
		if err != nil {
			out.setErr(i, fmt.Errorf("%w: %v", ErrEval, err))
			cb.Append(value.Null())
			continue
		}
		cb.Append(v)
	}
	out.Col = cb.Col()
	return out
}

type intSideT struct {
	constv bool
	ci     int64
	ints   []int64
}

func intSide(v *Vec) (intSideT, bool) {
	if v.Errs != nil {
		return intSideT{}, false
	}
	if v.Const {
		if v.CV.Kind() != value.KindInt {
			return intSideT{}, false
		}
		return intSideT{constv: true, ci: v.CV.AsInt()}, true
	}
	c := &v.Col
	if c.Any != nil || c.Nulls != nil || c.Kind != value.KindInt {
		return intSideT{}, false
	}
	return intSideT{ints: c.Ints}, true
}

func (s *intSideT) at(i int) int64 {
	if s.constv {
		return s.ci
	}
	return s.ints[i]
}

func negVec(s *Vec, n int) Vec {
	out := Vec{N: n}
	var cb colbatch.ColBuilder
	for i := 0; i < n; i++ {
		if err := s.ErrAt(i); err != nil {
			out.setErr(i, err)
			cb.Append(value.Null())
			continue
		}
		v, err := value.Neg(s.At(i))
		if err != nil {
			out.setErr(i, fmt.Errorf("%w: %v", ErrEval, err))
			cb.Append(value.Null())
			continue
		}
		cb.Append(v)
	}
	out.Col = cb.Col()
	return out
}

func isNullVec(s *Vec, negated bool, n int) Vec {
	out := Vec{N: n, Col: colbatch.Col{Kind: value.KindBool, Bools: make([]bool, n)}}
	for i := 0; i < n; i++ {
		if err := s.ErrAt(i); err != nil {
			out.setErr(i, err)
			continue
		}
		out.Col.Bools[i] = s.At(i).IsNull() != negated
	}
	return out
}

// inVec evaluates IN over a constant list, mirroring In.Eval's NULL
// semantics and left-to-right, stop-on-match item order.
func inVec(l *Vec, x In, n int) Vec {
	items := make([]value.Value, len(x.List))
	for j, item := range x.List {
		items[j] = item.(Const).Value
	}
	out := Vec{N: n, Col: colbatch.Col{Kind: value.KindBool, Bools: make([]bool, n)}}
	for i := 0; i < n; i++ {
		if err := l.ErrAt(i); err != nil {
			out.setErr(i, err)
			continue
		}
		lv := l.At(i)
		if lv.IsNull() {
			setBoolCell(&out, i, value.Null())
			continue
		}
		found, sawNull := false, false
		for _, v := range items {
			if v.IsNull() {
				sawNull = true
			} else if value.Equal(lv, v) {
				found = true
				break
			}
		}
		switch {
		case found:
			out.Col.Bools[i] = !x.Negated
		case sawNull:
			setBoolCell(&out, i, value.Null())
		default:
			out.Col.Bools[i] = x.Negated
		}
	}
	return out
}
