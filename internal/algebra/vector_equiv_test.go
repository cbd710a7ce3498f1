package algebra

// Row-vs-batch equivalence fuzz: random relations — row-backed and
// columnar, on both sides of colbatch.Floor — and random operator trees are
// collected by the operators and by the row-at-a-time reference operators
// (oracle_test.go), and the results must be byte-identical — schema, tuples,
// order — with identical error strings when an evaluation fails. CI runs it
// under -race.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"maybms/internal/colbatch"
	"maybms/internal/expr"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/tuple"
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

// randRelation draws a relation of width 1–4 whose size straddles the
// floor (0, 1, 31, 32, 33), is small, or — one draw in eight — runs to
// 2 000 rows; it is built from rows (colbatch.FromRows: row form under the
// floor) or as columns whatever its size. small caps the large draws at 33
// rows, for join build sides.
func randRelation(rng *rand.Rand, small bool) *relation.Relation {
	w := 1 + rng.Intn(4)
	names := make([]string, w)
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
	}
	sizes := []int{0, 1, colbatch.Floor - 1, colbatch.Floor, colbatch.Floor + 1, rng.Intn(40), rng.Intn(40), 100 + rng.Intn(1901)}
	n := sizes[rng.Intn(len(sizes))]
	if small && n > colbatch.Floor+1 {
		n = rng.Intn(8)
	}
	// A clean column holds small ints and the odd NULL: arithmetic over it
	// fails only where it divides by a zero, at some row deep in the input.
	clean := make([]bool, w)
	for j := range clean {
		clean[j] = rng.Intn(2) == 0
	}
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		rows[i] = make(tuple.Tuple, w)
		for j := range rows[i] {
			switch {
			case !clean[j]:
				rows[i][j] = randValue(rng)
			case rng.Intn(20) == 0:
				rows[i][j] = value.Null()
			default:
				rows[i][j] = value.Int(int64(rng.Intn(10)))
			}
		}
	}
	sch := schema.New(names...)
	if rng.Intn(2) == 0 {
		return relation.FromBatch(colbatch.FromRows(sch, rows))
	}
	b := colbatch.FromCols(sch, make([]colbatch.Col, w), 0)
	for _, t := range rows {
		b.Append(t)
	}
	return relation.FromBatch(b)
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

// randTree builds a random operator tree over a and b; join build sides
// scan the small relation c, and a tree joins at most once, so answers stay
// within a few ten thousand rows. Width bookkeeping keeps projections and
// join keys in range.
type randTree struct {
	rng     *rand.Rand
	a, b, c *relation.Relation
	joined  bool
}

func (g *randTree) build(depth int) Operator {
	rng := g.rng
	base := g.a
	if rng.Intn(2) == 1 {
		base = g.b
	}
	if depth <= 0 {
		return NewScan(base)
	}
	child := g.build(depth - 1)
	w := child.Schema().Len()
	switch k := rng.Intn(9); {
	case k == 0 || (k == 2 || k == 3) && g.joined:
		return &Filter{Child: child, Pred: randExpr(rng, w, 2)}
	case k == 1:
		n := 1 + rng.Intn(3)
		exprs := make([]expr.Expr, n)
		names := make([]string, n)
		for i := range exprs {
			exprs[i] = randExpr(rng, w, 2)
			names[i] = fmt.Sprintf("p%d", i)
		}
		return &Project{Child: child, Exprs: exprs, Out: schema.New(names...)}
	case k == 2:
		g.joined = true
		right := NewScan(g.c)
		lk := []int{rng.Intn(w)}
		rk := []int{rng.Intn(right.Schema().Len())}
		if rng.Intn(3) == 0 {
			lk = append(lk, rng.Intn(w))
			rk = append(rk, rng.Intn(right.Schema().Len()))
		}
		return &HashJoin{Left: child, Right: right, LeftKeys: lk, RightKeys: rk}
	case k == 3:
		g.joined = true
		return &CrossJoin{Left: child, Right: NewScan(g.c)}
	case k == 4:
		return &Distinct{Child: child}
	case k == 5:
		// Union arms must agree on arity; scanning the same relation twice
		// (or unioning child with a same-width scan) keeps it legal, and an
		// occasional mismatched arm exercises the arity error path.
		right := Operator(NewScan(base))
		if right.Schema().Len() != w && rng.Intn(4) > 0 {
			exprs := make([]expr.Expr, w)
			names := make([]string, w)
			for i := range exprs {
				j := rng.Intn(right.Schema().Len())
				exprs[i] = expr.Column{Index: j, Name: fmt.Sprintf("c%d", j)}
				names[i] = fmt.Sprintf("u%d", i)
			}
			right = &Project{Child: right, Exprs: exprs, Out: schema.New(names...)}
		}
		return &Union{Left: child, Right: right}
	case k == 6:
		keys := []SortKey{{Index: rng.Intn(w), Desc: rng.Intn(2) == 0}}
		return &Sort{Child: child, Keys: keys}
	case k == 7:
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

// lateDiv is 1 / (c - k) over a random column c: over a clean column it
// fails only at the rows holding k, somewhere deep in the input.
func lateDiv(rng *rand.Rand, w int) expr.Expr {
	i := rng.Intn(w)
	diff := expr.Arith{Op: value.OpSub, L: expr.Column{Index: i, Name: fmt.Sprintf("c%d", i)}, R: expr.Const{Value: value.Int(int64(rng.Intn(10)))}}
	return expr.Arith{Op: value.OpDiv, L: expr.Const{Value: value.Int(1)}, R: diff}
}

// cutTree is a LIMIT over a filter, a projection or a join whose left input
// fails late (lateDiv), over a random tree: the cut falls before the first
// failing row, after it, or — past 1 024 rows — in a later batch.
func (g *randTree) cutTree(depth int) Operator {
	rng := g.rng
	child := g.build(depth)
	w := child.Schema().Len()
	var op Operator
	switch rng.Intn(4) {
	case 0:
		op = &Filter{Child: child, Pred: expr.Cmp{Op: expr.CmpGt, L: lateDiv(rng, w), R: expr.Const{Value: value.Int(0)}}}
	case 1:
		op = &Project{Child: child, Exprs: []expr.Expr{expr.Column{Index: 0, Name: "c0"}, lateDiv(rng, w)}, Out: schema.New("p0", "p1")}
	case 2:
		left := &Project{Child: child, Exprs: []expr.Expr{lateDiv(rng, w)}, Out: schema.New("p0")}
		op = &HashJoin{Left: left, Right: NewScan(g.c), LeftKeys: []int{0}, RightKeys: []int{0}}
	default:
		left := &Filter{Child: child, Pred: expr.Cmp{Op: expr.CmpNe, L: lateDiv(rng, w), R: expr.Const{Value: value.Int(0)}}}
		op = &CrossJoin{Left: left, Right: NewScan(g.c)}
	}
	n := rng.Intn(20)
	if rng.Intn(4) == 0 {
		n = 1000 + rng.Intn(1000)
	}
	return &Limit{Child: op, N: n}
}

func renderResult(rel *relation.Relation, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	b.WriteString(rel.Schema.String())
	for _, t := range rel.Rows() {
		fmt.Fprintf(&b, "\n%q", t.Encode(nil))
	}
	return b.String()
}

// scans describes what op scans: whether every scanned relation is in row
// form, whether every one is columnar, and a bound on the rows of any batch
// or drain inside op (joins multiply their sides, a union adds them, an
// aggregate emits at least one row). aggregates reports an Aggregate in op.
type scans struct {
	rows, cols, aggregates bool
	bound                  int
}

func scanned(op Operator) scans {
	switch n := op.(type) {
	case *Scan:
		b := n.Rel.Batch()
		return scans{rows: b.RowBacked(), cols: !b.RowBacked(), bound: b.Len()}
	case *Filter:
		return scanned(n.Child)
	case *Project:
		return scanned(n.Child)
	case *Distinct:
		return scanned(n.Child)
	case *Sort:
		return scanned(n.Child)
	case *Limit:
		return scanned(n.Child)
	case *Aggregate:
		s := scanned(n.Child)
		s.aggregates, s.bound = true, max(s.bound, 1)
		return s
	case *CrossJoin:
		return scanned(n.Left).join(scanned(n.Right), true)
	case *HashJoin:
		return scanned(n.Left).join(scanned(n.Right), true)
	case *Union:
		return scanned(n.Left).join(scanned(n.Right), false)
	}
	panic(fmt.Sprintf("scanned: %T", op))
}

func (s scans) join(t scans, product bool) scans {
	out := scans{rows: s.rows && t.rows, cols: s.cols && t.cols, aggregates: s.aggregates || t.aggregates, bound: s.bound + t.bound}
	if product {
		out.bound = s.bound * t.bound
	}
	return out
}

// cutErrors counts, per kind of a LIMIT's child, the LIMITs in op whose
// child fails when drained in full while the LIMIT itself succeeds: an
// error past the cut that must stay unreached.
func cutErrors(op Operator, counts map[string]int) {
	if l, ok := op.(*Limit); ok {
		if _, err := collectReference(l.Child, nil); err != nil {
			if _, err := collectReference(l, nil); err == nil {
				counts[fmt.Sprintf("%T", l.Child)]++
			}
		}
	}
	switch n := op.(type) {
	case *Filter:
		cutErrors(n.Child, counts)
	case *Project:
		cutErrors(n.Child, counts)
	case *Distinct:
		cutErrors(n.Child, counts)
	case *Sort:
		cutErrors(n.Child, counts)
	case *Limit:
		cutErrors(n.Child, counts)
	case *Aggregate:
		cutErrors(n.Child, counts)
	case *CrossJoin:
		cutErrors(n.Left, counts)
	case *HashJoin:
		cutErrors(n.Left, counts)
	case *Union:
		cutErrors(n.Left, counts)
		cutErrors(n.Right, counts)
	}
}

// TestRowBatchEquivalenceFuzz is the operators' contract check: 400 random
// trees and 400 LIMITs over late-failing inputs (cutTree), each collected by
// the operators and by the reference operators,
// must agree byte for byte — including which error (if any) surfaces, under
// LIMIT too. The answer's form must follow colbatch's invariant: a row-form
// answer holds fewer than colbatch.Floor rows; rows stay rows while nothing
// inside the tree reaches the floor (every relation it scans is in row form
// and the scans bound every batch under the floor); columns stay columns (a
// non-empty answer over columnar scans alone is columnar unless an
// Aggregate laid its groups out afresh).
func TestRowBatchEquivalenceFuzz(t *testing.T) {
	t.Parallel()
	errs, rowAnswers, colAnswers := 0, 0, 0
	cuts := map[string]int{}
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randRelation(rng, false), randRelation(rng, false), randRelation(rng, true)
		treeSeed, depth := rng.Int63(), 1+rng.Intn(3)
		for _, cut := range []bool{false, true} {
			tree := func() Operator {
				g := &randTree{rng: rand.New(rand.NewSource(treeSeed)), a: a, b: b, c: c}
				if cut {
					return g.cutTree(depth - 1)
				}
				return g.build(depth)
			}
			want := renderResult(collectReference(tree(), nil))
			op := tree()
			got, err := Collect(op, nil)
			if res := renderResult(got, err); res != want {
				t.Fatalf("seed %d (cut %v): operators diverged from the reference\nreference:\n%s\noperators:\n%s", seed, cut, want, res)
			}
			if err != nil {
				errs++
				continue
			}
			rows, in := got.Batch().RowBacked(), scanned(op)
			switch {
			case rows && got.Len() >= colbatch.Floor:
				t.Fatalf("seed %d (cut %v): row-form answer of %d rows", seed, cut, got.Len())
			case !rows && in.rows && in.bound < colbatch.Floor:
				t.Fatalf("seed %d (cut %v): columnar answer over row-form scans bounded by %d rows", seed, cut, in.bound)
			case rows && got.Len() > 0 && in.cols && !in.aggregates:
				t.Fatalf("seed %d (cut %v): row-form answer over columnar scans", seed, cut)
			case rows && in.rows:
				rowAnswers++
			case !rows && in.cols:
				colAnswers++
			}
			cutErrors(tree(), cuts)
		}
	}
	t.Logf("%d errors, %d row-form and %d columnar answers, LIMITs short of an error by child: %v", errs, rowAnswers, colAnswers, cuts)
	if errs == 0 {
		t.Fatal("fuzz never produced an evaluation error; error-path equivalence untested")
	}
	if rowAnswers == 0 || colAnswers == 0 {
		t.Fatalf("%d row-form answers over row-form scans and %d columnar answers over columnar scans: want both", rowAnswers, colAnswers)
	}
	for _, kind := range []string{"*algebra.Filter", "*algebra.Project"} {
		if cuts[kind] == 0 {
			t.Errorf("no LIMIT over an erroring %s stopped short of its error (cuts: %v)", kind, cuts)
		}
	}
	if cuts["*algebra.HashJoin"]+cuts["*algebra.CrossJoin"] == 0 {
		t.Errorf("no LIMIT over an erroring join stopped short of its error (cuts: %v)", cuts)
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

// TestCmpVecOrdersNaNLikeRows: an ordering comparison between an int and a
// float operand, where the float is NaN, takes value.Compare's kind
// tie-break (INT before FLOAT) column-at-a-time as it does row-at-a-time;
// between two floats NaN ties. Every operator, both operand orders, column
// and constant operands.
func TestCmpVecOrdersNaNLikeRows(t *testing.T) {
	t.Parallel()
	sch := schema.New("f", "i", "g")
	nan := value.Float(math.NaN())
	rows := []tuple.Tuple{
		{nan, value.Int(0), value.Float(0)},
		{value.Float(1), value.Int(1), nan},
		{value.Float(-2), value.Int(3), value.Float(3)},
	}
	b := colbatch.FromRows(sch, rows)
	operands := []expr.Expr{
		expr.Column{Index: 0, Name: "f"}, expr.Column{Index: 1, Name: "i"}, expr.Column{Index: 2, Name: "g"},
		expr.Const{Value: nan}, expr.Const{Value: value.Int(0)}, expr.Const{Value: value.Float(0.5)},
	}
	ops := []expr.CmpOp{expr.CmpEq, expr.CmpNe, expr.CmpLt, expr.CmpLe, expr.CmpGt, expr.CmpGe}
	for _, l := range operands {
		for _, r := range operands {
			for _, op := range ops {
				e := expr.Cmp{Op: op, L: l, R: r}
				v := expr.EvalVec(e, b)
				for i, row := range rows {
					want, err := e.Eval(&expr.Context{Schema: sch, Tuple: row})
					if err != nil || v.ErrAt(i) != nil {
						t.Fatalf("%s row %d: errors %v, %v", e, i, err, v.ErrAt(i))
					}
					if got := v.At(i); got.Kind() != want.Kind() || got.Truth() != want.Truth() {
						t.Errorf("%s row %d: vector %v, row %v", e, i, got, want)
					}
				}
			}
		}
	}
}
