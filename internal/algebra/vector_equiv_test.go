package algebra

// Row-vs-batch equivalence fuzz: random relations and random operator
// trees are collected once on the row path and once on the vectorized
// path, and the results must be byte-identical — schema, tuples, order —
// with identical error strings when an evaluation fails. This is the
// contract that lets Collect pick either path; CI runs it under -race.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"maybms/internal/colbatch"
	"maybms/internal/expr"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/value"
)

// randValue draws a value from deliberately small domains so joins,
// distinct and group-by actually collide; strings mix in so arithmetic
// sometimes errors, exercising error-precedence equivalence. The numerics
// SQL `=` treats specially take the place of a few ordinary draws (the
// random stream, and so every tree's shape, stays as it was): −0, NaN, and
// 2^53+1, which `=` equates with 2^53.
func randValue(rng *rand.Rand) value.Value {
	switch rng.Intn(10) {
	case 0:
		return value.Null()
	case 1, 2, 3:
		switch i := rng.Intn(5); i {
		case 4:
			return value.Int(1<<53 + 1)
		default:
			return value.Int(int64(i))
		}
	case 4, 5:
		switch f := rng.Intn(8); f {
		case 0:
			return value.Float(math.Copysign(0, -1))
		case 6:
			return value.Float(1 << 53)
		case 7:
			return value.Float(math.NaN())
		default:
			return value.Float(float64(f) / 2)
		}
	case 6:
		return value.Bool(rng.Intn(2) == 0)
	default:
		return value.Str(fmt.Sprintf("s%d", rng.Intn(4)))
	}
}

func randRelation(rng *rand.Rand) *relation.Relation {
	w := 1 + rng.Intn(4)
	names := make([]string, w)
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
	}
	rel := relation.New(schema.New(names...))
	n := rng.Intn(40)
	for i := 0; i < n; i++ {
		t := make([]value.Value, w)
		for j := range t {
			t[j] = randValue(rng)
		}
		rel.MustAppend(t)
	}
	return rel
}

// randExpr builds a random scalar expression over a width-w schema. It
// freely mixes vectorizable and non-vectorizable shapes (IN (…) is the
// row-only fallback trigger) and type-error-prone arithmetic.
func randExpr(rng *rand.Rand, w, depth int) expr.Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		if rng.Intn(2) == 0 {
			return expr.Const{Value: randValue(rng)}
		}
		i := rng.Intn(w)
		return expr.Column{Index: i, Name: fmt.Sprintf("c%d", i)}
	}
	switch rng.Intn(8) {
	case 0:
		ops := []value.BinaryOp{value.OpAdd, value.OpSub, value.OpMul, value.OpDiv, value.OpMod}
		return expr.Arith{Op: ops[rng.Intn(len(ops))], L: randExpr(rng, w, depth-1), R: randExpr(rng, w, depth-1)}
	case 1:
		return expr.And{L: randExpr(rng, w, depth-1), R: randExpr(rng, w, depth-1)}
	case 2:
		return expr.Or{L: randExpr(rng, w, depth-1), R: randExpr(rng, w, depth-1)}
	case 3:
		return expr.Not{E: randExpr(rng, w, depth-1)}
	case 4:
		return expr.Neg{E: randExpr(rng, w, depth-1)}
	case 5:
		return expr.IsNull{E: randExpr(rng, w, depth-1), Negated: rng.Intn(2) == 0}
	case 6:
		list := make([]expr.Expr, 1+rng.Intn(3))
		for i := range list {
			list[i] = expr.Const{Value: randValue(rng)}
		}
		return expr.In{Left: randExpr(rng, w, depth-1), List: list, Negated: rng.Intn(2) == 0}
	default:
		ops := []expr.CmpOp{expr.CmpEq, expr.CmpNe, expr.CmpLt, expr.CmpLe, expr.CmpGt, expr.CmpGe}
		return expr.Cmp{Op: ops[rng.Intn(len(ops))], L: randExpr(rng, w, depth-1), R: randExpr(rng, w, depth-1)}
	}
}

// randTree builds a random operator tree over the two relations. Width
// bookkeeping keeps projections and join keys in range.
func randTree(rng *rand.Rand, a, b *relation.Relation, depth int) Operator {
	base := a
	if rng.Intn(2) == 1 {
		base = b
	}
	if depth <= 0 {
		return NewScan(base)
	}
	child := randTree(rng, a, b, depth-1)
	w := child.Schema().Len()
	switch rng.Intn(9) {
	case 0:
		return &Filter{Child: child, Pred: randExpr(rng, w, 2)}
	case 1:
		n := 1 + rng.Intn(3)
		exprs := make([]expr.Expr, n)
		names := make([]string, n)
		for i := range exprs {
			exprs[i] = randExpr(rng, w, 2)
			names[i] = fmt.Sprintf("p%d", i)
		}
		return &Project{Child: child, Exprs: exprs, Out: schema.New(names...)}
	case 2:
		right := NewScan(base)
		lk := []int{rng.Intn(w)}
		rk := []int{rng.Intn(right.Schema().Len())}
		if rng.Intn(3) == 0 {
			lk = append(lk, rng.Intn(w))
			rk = append(rk, rng.Intn(right.Schema().Len()))
		}
		return &HashJoin{Left: child, Right: right, LeftKeys: lk, RightKeys: rk}
	case 3:
		return &CrossJoin{Left: child, Right: NewScan(base)}
	case 4:
		return &Distinct{Child: child}
	case 5:
		// Union arms must agree on arity; scanning the same relation twice
		// (or unioning child with a same-width scan) keeps it legal, and an
		// occasional mismatched arm exercises the arity error path.
		right := Operator(NewScan(base))
		if right.Schema().Len() != w && rng.Intn(4) > 0 {
			idx := make([]int, w)
			exprs := make([]expr.Expr, w)
			names := make([]string, w)
			for i := range idx {
				j := rng.Intn(right.Schema().Len())
				exprs[i] = expr.Column{Index: j, Name: fmt.Sprintf("c%d", j)}
				names[i] = fmt.Sprintf("u%d", i)
			}
			right = &Project{Child: right, Exprs: exprs, Out: schema.New(names...)}
		}
		return &Union{Left: child, Right: right}
	case 6:
		keys := []SortKey{{Index: rng.Intn(w), Desc: rng.Intn(2) == 0}}
		return &Sort{Child: child, Keys: keys}
	case 7:
		return &Limit{Child: child, N: rng.Intn(20)}
	default:
		var groupBy []int
		if rng.Intn(2) == 0 {
			groupBy = []int{rng.Intn(w)}
		}
		kinds := []expr.AggKind{expr.AggCount, expr.AggCountStar, expr.AggSum, expr.AggAvg, expr.AggMin, expr.AggMax}
		n := 1 + rng.Intn(2)
		specs := make([]expr.AggSpec, n)
		names := make([]string, 0, len(groupBy)+n)
		for _, g := range groupBy {
			names = append(names, fmt.Sprintf("g%d", g))
		}
		for i := range specs {
			k := kinds[rng.Intn(len(kinds))]
			s := expr.AggSpec{Kind: k, Distinct: rng.Intn(3) == 0}
			if k != expr.AggCountStar {
				s.Arg = randExpr(rng, w, 1)
			}
			specs[i] = s
			names = append(names, fmt.Sprintf("a%d", i))
		}
		return &Aggregate{Child: child, GroupBy: groupBy, Specs: specs, Out: schema.New(names...)}
	}
}

func renderResult(rel *relation.Relation, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	out := rel.Schema.String()
	for _, t := range rel.Rows() {
		out += "\n" + fmt.Sprintf("%q", string(t.Encode(nil)))
	}
	return out
}

// collectRowPath and collectBatchPath drain op the way Collect would on each
// side of Vectorize's choice. The batch side takes the mirror from
// vectorize, so trees under the size floor or with nothing to gain — which
// Collect would run on the row operators — exercise the batch operators too.
func collectRowPath(op Operator) (*relation.Relation, error) {
	rows, err := drainRows(op, nil)
	if err != nil {
		return nil, err
	}
	return relation.FromRowsShared(op.Schema(), rows), nil
}

func collectBatchPath(op Operator) (rel *relation.Relation, mirrored bool, err error) {
	b, _ := vectorize(op)
	if b == nil {
		return nil, false, nil
	}
	rel, err = collectBatches(b, nil)
	return rel, true, err
}

// TestRowBatchEquivalenceFuzz is the row-vs-batch contract check: 300
// random trees, each drained on both paths, must agree byte for byte —
// including which error (if any) surfaces. Trees with no batch mirror (a
// LIMIT over a lazily erroring child) only ever run the row operators.
func TestRowBatchEquivalenceFuzz(t *testing.T) {
	t.Parallel()
	errs, mirrored := 0, 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b := randRelation(rng), randRelation(rng)
		treeSeed, depth := rng.Int63(), 1+rng.Intn(3)
		build := func() Operator {
			return randTree(rand.New(rand.NewSource(treeSeed)), a, b, depth)
		}

		rowRes := renderResult(collectRowPath(build()))
		batchRel, ok, batchErr := collectBatchPath(build())
		if !ok {
			continue
		}
		mirrored++
		batchRes := renderResult(batchRel, batchErr)
		if rowRes != batchRes {
			t.Fatalf("seed %d: paths diverged\nrow:\n%s\nbatch:\n%s", seed, rowRes, batchRes)
		}
		if len(rowRes) > 6 && rowRes[:6] == "error:" {
			errs++
		}
	}
	if errs == 0 {
		t.Fatal("fuzz never produced an evaluation error; error-path equivalence untested")
	}
	if mirrored < 250 {
		t.Fatalf("only %d of 300 trees had a batch mirror", mirrored)
	}
}

// TestConnectiveVecEquivalence holds AND, OR and NOT to the row evaluator
// on every operand shape they combine: null-free bool columns and
// comparisons (the typed fast path), bool constants, a nullable bool
// column, NULL and non-bool operands (type errors), and an operand that
// errs at some rows — on its own side and under the other side's
// short-circuit. Each row's value (kind and bytes) and error text must
// match.
func TestConnectiveVecEquivalence(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	sch := schema.New("bf", "bn", "i", "z")
	rows := make([][]value.Value, 64)
	for r := range rows {
		bn := value.Bool(rng.Intn(2) == 0)
		if rng.Intn(4) == 0 {
			bn = value.Null()
		}
		rows[r] = []value.Value{value.Bool(rng.Intn(2) == 0), bn, value.Int(int64(rng.Intn(6))), value.Int(int64(rng.Intn(3)))}
	}
	rel := relation.New(sch)
	for _, row := range rows {
		rel.MustAppend(row)
	}
	b := colbatch.FromRows(sch, rel.Rows())
	col := func(i int) expr.Expr { return expr.Column{Index: i, Name: sch.At(i).Name} }
	operands := []expr.Expr{
		col(0), // null-free bool column
		col(1), // nullable bool column
		expr.Cmp{Op: expr.CmpGt, L: col(2), R: expr.Const{Value: value.Int(2)}}, // null-free comparison
		expr.Const{Value: value.Bool(true)},
		expr.Const{Value: value.Bool(false)},
		expr.Const{Value: value.Null()},
		expr.Const{Value: value.Int(1)}, // not a boolean
		col(2),                          // not a boolean
		expr.Cmp{Op: expr.CmpLt, L: expr.Arith{Op: value.OpDiv, L: expr.Const{Value: value.Int(6)}, R: col(3)}, R: col(2)}, // errs where z = 0
	}
	var shapes []expr.Expr
	for _, l := range operands {
		shapes = append(shapes, expr.Not{E: l})
		for _, r := range operands {
			shapes = append(shapes, expr.And{L: l, R: r}, expr.Or{L: l, R: r})
		}
	}
	shapes = append(shapes,
		expr.And{L: expr.And{L: col(0), R: operands[2]}, R: expr.Not{E: col(0)}},
		expr.Or{L: expr.Not{E: operands[2]}, R: expr.And{L: col(0), R: operands[8]}},
	)
	cell := func(v value.Value, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprintf("%d:%x", v.Kind(), v.Encode(nil))
	}
	for _, e := range shapes {
		v := expr.EvalVec(e, b)
		ctx := &expr.Context{Schema: sch}
		for i, row := range rel.Rows() {
			ctx.Tuple = row
			want := cell(e.Eval(ctx))
			if got := cell(v.At(i), v.ErrAt(i)); got != want {
				t.Fatalf("%s row %d: vector %s, row %s", e, i, got, want)
			}
		}
	}
}
