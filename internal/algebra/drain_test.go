package algebra

// drain's two rules. A tree that only reads a stored batch is answered by a
// view of it (TestCollectStoredView); every other tree is drained and its
// batches concatenated once (TestMultiBatchDrainMatchesOracle, over inputs
// of several batches each, so that a concatenation keeping a buffer an
// operator reuses would show).

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"maybms/internal/colbatch"
	"maybms/internal/expr"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

// wideRelation draws n columnar rows of (I, K, F, S, M): a row number, a key
// of 97 values, a float and a string (both with NULLs), and a mixed-kind
// column of ints, strings, floats and NULLs.
func wideRelation(rng *rand.Rand, n int) *relation.Relation {
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		t := tuple.Tuple{value.Int(int64(i)), value.Int(int64(rng.Intn(97))),
			value.Float(float64(rng.Intn(1000)) / 4), value.Str(fmt.Sprintf("s%d", rng.Intn(50))), value.Null()}
		if rng.Intn(10) == 0 {
			t[1] = value.Null()
		}
		if rng.Intn(10) == 0 {
			t[2] = value.Null()
		}
		if rng.Intn(10) == 0 {
			t[3] = value.Null()
		}
		switch rng.Intn(4) {
		case 0:
			t[4] = value.Int(int64(rng.Intn(5)))
		case 1:
			t[4] = value.Str(fmt.Sprintf("m%d", rng.Intn(5)))
		case 2:
			t[4] = value.Float(float64(rng.Intn(5)) / 2)
		}
		rows[i] = t
	}
	return relation.FromBatch(colbatch.FromRows(schema.New("I", "K", "F", "S", "M"), rows))
}

func col(i int) expr.Expr { return expr.Column{Index: i} }

func TestMultiBatchDrainMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := wideRelation(rng, 2500), wideRelation(rng, 3073)
	for _, r := range []*relation.Relation{a, b} {
		if r.Batch().RowBacked() || r.Batch().Col(4).Any == nil {
			t.Fatal("inputs must be columnar, with a mixed-kind column")
		}
	}
	every := func(r *relation.Relation, m int64) Operator { // rows I ≡ 7 mod m, from every batch
		return &Filter{Child: NewScan(r), Pred: expr.Cmp{Op: expr.CmpEq,
			L: expr.Arith{Op: value.OpMod, L: col(0), R: expr.Const{Value: value.Int(m)}}, R: expr.Const{Value: value.Int(7)}}}
	}
	// lit is a subquery over a one-cell literal relation: no expression
	// holding it is vectorizable, so the operators evaluate those row by row
	// over the columnar batches, mixed-kind column M included.
	lit := func(v value.Value) expr.Subquery {
		rel := relation.FromBatch(colbatch.FromRows(schema.New("X"), []tuple.Tuple{{v}}))
		return expr.SubqueryFunc(func(*expr.Context) (*relation.Relation, error) { return rel, nil })
	}
	scalar := func(v value.Value) expr.Expr { return expr.Scalar{Sub: lit(v)} }
	mIs := expr.Cmp{Op: expr.CmpEq, L: col(4), R: scalar(value.Str("m1"))}
	trees := map[string]func() Operator{
		"scan": func() Operator { return NewScan(a) },
		"filter": func() Operator {
			return &Filter{Child: NewScan(b), Pred: expr.Cmp{Op: expr.CmpLt, L: col(1), R: expr.Const{Value: value.Int(60)}}}
		},
		"project": func() Operator {
			return &Project{Child: NewScan(b), Exprs: []expr.Expr{col(4), col(0), col(2)}, Out: schema.New("M", "I", "F")}
		},
		"project.computed": func() Operator {
			return &Project{Child: NewScan(a), Out: schema.New("I2", "K", "M"), Exprs: []expr.Expr{
				expr.Arith{Op: value.OpMul, L: col(0), R: expr.Const{Value: value.Int(2)}}, col(1), col(4)}}
		},
		"hashjoin": func() Operator {
			return &HashJoin{Left: NewScan(a), Right: every(b, 20), LeftKeys: []int{1}, RightKeys: []int{1}}
		},
		"crossjoin": func() Operator { return &CrossJoin{Left: NewScan(a), Right: every(b, 1000)} },
		"distinct": func() Operator {
			return &Distinct{Child: &Project{Child: NewScan(b), Exprs: []expr.Expr{col(1), col(4)}, Out: schema.New("K", "M")}}
		},
		"union": func() Operator { return &Union{Left: NewScan(a), Right: NewScan(b)} },
		"sort":  func() Operator { return &Sort{Child: NewScan(b), Keys: []SortKey{{Index: 4}, {Index: 2, Desc: true}}} },
		"limit": func() Operator { return &Limit{Child: NewScan(b), N: 2100} },
		"aggregate": func() Operator {
			return &Aggregate{Child: NewScan(b), GroupBy: []int{1}, Out: schema.New("K", "sum", "count"), Specs: []expr.AggSpec{
				{Kind: expr.AggSum, Arg: col(2)}, {Kind: expr.AggCount, Arg: col(4)}}}
		},
		"filter.subquery": func() Operator {
			return &Filter{Child: NewScan(b), Pred: expr.And{L: expr.Exists{Sub: lit(value.Int(1))}, R: expr.Or{
				L: expr.Cmp{Op: expr.CmpLt, L: col(1), R: scalar(value.Int(60))}, R: mIs}}}
		},
		"project.subquery": func() Operator {
			return &Project{Child: NewScan(b), Out: schema.New("M", "I2", "F", "MIs"), Exprs: []expr.Expr{
				col(4), expr.Arith{Op: value.OpAdd, L: col(0), R: scalar(value.Int(2))}, col(2), mIs}}
		},
		"aggregate.subquery": func() Operator {
			return &Aggregate{Child: NewScan(a), GroupBy: []int{1}, Out: schema.New("K", "sum", "count"), Specs: []expr.AggSpec{
				{Kind: expr.AggSum, Arg: expr.Arith{Op: value.OpMul, L: col(2), R: scalar(value.Int(2))}}, {Kind: expr.AggCount, Arg: mIs}}}
		},
	}
	for name, tree := range trees {
		t.Run(name, func(t *testing.T) {
			want := renderResult(collectReference(tree(), nil))
			op := tree()
			first, err := Collect(op, nil)
			if err != nil {
				t.Fatal(err)
			}
			again, err := Collect(op, nil) // a reused tree drains again over the first answer
			if got := renderResult(first, nil); got != want {
				t.Fatalf("answer differs from the reference:\n%.400s\nwant\n%.400s", got, want)
			}
			if got := renderResult(again, err); got != want {
				t.Fatalf("second drain differs from the reference:\n%.400s\nwant\n%.400s", got, want)
			}
			if !strings.HasPrefix(name, "aggregate") && first.Len() <= batchSize {
				t.Fatalf("answer of %d rows fits one batch", first.Len())
			}
		})
	}
}

// storedInts returns the stored relation every view test reads: 10 000
// columnar rows of (A, B, C) ints.
func storedInts() *relation.Relation {
	rows := make([]tuple.Tuple, 10000)
	for i := range rows {
		rows[i] = tuple.Tuple{value.Int(int64(i)), value.Int(int64(i % 7)), value.Int(int64(-i))}
	}
	return relation.FromBatch(colbatch.FromRows(schema.New("A", "B", "C"), rows))
}

func sameInts(x, y []int64) bool {
	return len(x) > 0 && len(y) > 0 && unsafe.SliceData(x) == unsafe.SliceData(y)
}

func TestCollectStoredView(t *testing.T) {
	stored := storedInts()
	sb := stored.Batch()
	before := stored.Fingerprint()
	plain := &Project{Child: NewScan(stored), Exprs: []expr.Expr{col(2), col(0)}, Out: schema.New("C", "A")}
	for _, c := range []struct {
		name string
		op   Operator
		from []int // the stored column of each answer column
	}{
		{"scan", NewScan(stored), []int{0, 1, 2}},
		{"project", plain, []int{2, 0}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ans, err := Collect(c.op, nil)
			if err != nil {
				t.Fatal(err)
			}
			ab := ans.Batch()
			if ab.Len() != sb.Len() || ans.Schema != c.op.Schema() {
				t.Fatalf("answer of %d rows under %s", ab.Len(), ans.Schema)
			}
			for j, src := range c.from {
				if !sameInts(ab.Col(j).Ints, sb.Col(src).Ints) {
					t.Fatalf("answer column %d is not stored column %d", j, src)
				}
			}
			ans.MustAppend(make(tuple.Tuple, len(c.from)))
			if stored.Len() != 10000 || stored.Fingerprint() != before || sameInts(ans.Batch().Col(0).Ints, sb.Col(c.from[0]).Ints) {
				t.Fatal("an append to the answer reached the stored relation")
			}
			stop := errors.New("interrupted")
			if _, err := Collect(c.op, &expr.Context{Interrupt: func() error { return stop }}); !errors.Is(err, stop) {
				t.Fatalf("drain under a failing interrupt hook: %v", err)
			}
		})
	}
	outer := &expr.Context{Schema: schema.New("X"), Tuple: tuple.Tuple{value.Int(5)}}
	for name, e := range map[string]expr.Expr{
		"computed": expr.Arith{Op: value.OpAdd, L: col(1), R: expr.Const{Value: value.Int(1)}},
		"outer":    expr.Column{Depth: 1, Index: 0},
	} {
		t.Run(name, func(t *testing.T) {
			op := &Project{Child: NewScan(stored), Exprs: []expr.Expr{col(0), e}, Out: schema.New("A", "E")}
			ans, err := Collect(op, outer)
			if err != nil {
				t.Fatal(err)
			}
			want := renderResult(collectReference(op, outer))
			if got := renderResult(ans, nil); got != want {
				t.Fatalf("answer differs from the reference:\n%.300s\nwant\n%.300s", got, want)
			}
			if sameInts(ans.Batch().Col(0).Ints, sb.Col(0).Ints) {
				t.Fatal("a computed projection shares the stored column: it took the view")
			}
		})
	}
}
