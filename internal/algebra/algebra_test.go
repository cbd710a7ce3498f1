package algebra

import (
	"errors"
	"testing"

	"maybms/internal/expr"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

func rel(names []string, rows ...[]any) *relation.Relation {
	r := relation.New(schema.New(names...))
	for _, row := range rows {
		t := make(tuple.Tuple, len(row))
		for i, v := range row {
			switch x := v.(type) {
			case int:
				t[i] = value.Int(int64(x))
			case float64:
				t[i] = value.Float(x)
			case string:
				t[i] = value.Str(x)
			case nil:
				t[i] = value.Null()
			default:
				panic("bad fixture")
			}
		}
		r.MustAppend(t)
	}
	return r
}

// figure1R is relation R from Figure 1 of the paper.
func figure1R() *relation.Relation {
	return rel([]string{"A", "B", "C", "D"},
		[]any{"a1", 10, "c1", 2},
		[]any{"a1", 15, "c2", 6},
		[]any{"a2", 14, "c3", 4},
		[]any{"a2", 20, "c4", 5},
		[]any{"a3", 20, "c5", 6},
	)
}

func collect(t *testing.T, op Operator) *relation.Relation {
	t.Helper()
	out, err := Collect(op, nil)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	return out
}

func TestScan(t *testing.T) {
	r := figure1R()
	out := collect(t, NewScan(r))
	if !out.EqualSet(r) || out.Len() != 5 {
		t.Errorf("scan lost tuples: %d", out.Len())
	}
	// Re-open resets.
	s := NewScan(r)
	collect(t, s)
	out2, err := Collect(s, nil)
	if err != nil || out2.Len() != 5 {
		t.Errorf("re-open failed: %v, %v", out2.Len(), err)
	}
}

func TestFilter(t *testing.T) {
	r := figure1R()
	pred := expr.Cmp{Op: expr.CmpEq, L: expr.Column{Index: 0}, R: expr.Const{Value: value.Str("a2")}}
	out := collect(t, &Filter{Child: NewScan(r), Pred: pred})
	if out.Len() != 2 {
		t.Errorf("filter A='a2' returned %d rows", out.Len())
	}
}

func TestFilterNullIsDropped(t *testing.T) {
	r := rel([]string{"A"}, []any{1}, []any{nil})
	pred := expr.Cmp{Op: expr.CmpEq, L: expr.Column{Index: 0}, R: expr.Const{Value: value.Int(1)}}
	out := collect(t, &Filter{Child: NewScan(r), Pred: pred})
	if out.Len() != 1 {
		t.Errorf("NULL comparison must drop row, got %d", out.Len())
	}
}

func TestFilterErrorPropagates(t *testing.T) {
	r := rel([]string{"A"}, []any{"x"})
	pred := expr.Not{E: expr.Column{Index: 0}} // NOT over string: type error
	_, err := Collect(&Filter{Child: NewScan(r), Pred: pred}, nil)
	if err == nil {
		t.Error("filter type error must propagate")
	}
}

func TestProject(t *testing.T) {
	r := figure1R()
	p := &Project{
		Child: NewScan(r),
		Exprs: []expr.Expr{
			expr.Column{Index: 1},
			expr.Arith{Op: value.OpMul, L: expr.Column{Index: 3}, R: expr.Const{Value: value.Int(2)}},
		},
		Out: schema.New("B", "D2"),
	}
	out := collect(t, p)
	if out.Len() != 5 || out.Schema.Names()[1] != "D2" {
		t.Fatalf("project shape wrong: %s", out.Schema)
	}
	if out.Rows()[0][1].AsInt() != 4 {
		t.Errorf("computed column = %v", out.Rows()[0][1])
	}
}

func TestProjectArityMismatch(t *testing.T) {
	p := &Project{Child: NewScan(figure1R()), Exprs: []expr.Expr{expr.Column{Index: 0}}, Out: schema.New("A", "B")}
	if _, err := Collect(p, nil); err == nil {
		t.Error("arity mismatch must error at Open")
	}
}

func TestCrossJoin(t *testing.T) {
	a := rel([]string{"X"}, []any{1}, []any{2})
	b := rel([]string{"Y"}, []any{"p"}, []any{"q"}, []any{"r"})
	out := collect(t, &CrossJoin{Left: NewScan(a), Right: NewScan(b)})
	if out.Len() != 6 {
		t.Errorf("cross join = %d rows", out.Len())
	}
	if out.Schema.Len() != 2 {
		t.Errorf("cross join schema = %s", out.Schema)
	}
}

func TestCrossJoinEmptySides(t *testing.T) {
	a := rel([]string{"X"})
	b := rel([]string{"Y"}, []any{1})
	if out := collect(t, &CrossJoin{Left: NewScan(a), Right: NewScan(b)}); out.Len() != 0 {
		t.Error("empty left should produce empty join")
	}
	if out := collect(t, &CrossJoin{Left: NewScan(b), Right: NewScan(a)}); out.Len() != 0 {
		t.Error("empty right should produce empty join")
	}
}

func TestHashJoin(t *testing.T) {
	// Figure 1: R join S on R.C = S.C.
	r := figure1R()
	s := rel([]string{"C", "E"},
		[]any{"c2", "e1"},
		[]any{"c4", "e1"},
		[]any{"c4", "e2"},
	)
	j := &HashJoin{Left: NewScan(r), Right: NewScan(s), LeftKeys: []int{2}, RightKeys: []int{0}}
	out := collect(t, j)
	if out.Len() != 3 {
		t.Errorf("R ⋈ S = %d rows, want 3", out.Len())
	}
	for _, tp := range out.Rows() {
		if tp[2].AsStr() != tp[4].AsStr() {
			t.Errorf("join key mismatch in %v", tp)
		}
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	a := rel([]string{"K"}, []any{nil}, []any{1})
	b := rel([]string{"K"}, []any{nil}, []any{1})
	j := &HashJoin{Left: NewScan(a), Right: NewScan(b), LeftKeys: []int{0}, RightKeys: []int{0}}
	out := collect(t, j)
	if out.Len() != 1 {
		t.Errorf("NULL keys joined: %d rows", out.Len())
	}
}

func TestHashJoinBadKeys(t *testing.T) {
	j := &HashJoin{Left: NewScan(figure1R()), Right: NewScan(figure1R())}
	if _, err := Collect(j, nil); err == nil {
		t.Error("empty key lists must error")
	}
}

func TestHashJoinAgreesWithCrossJoinFilter(t *testing.T) {
	r := figure1R()
	s := rel([]string{"C2", "E"}, []any{"c2", "e1"}, []any{"c4", "e1"}, []any{"c4", "e2"})
	hj := collect(t, &HashJoin{Left: NewScan(r), Right: NewScan(s), LeftKeys: []int{2}, RightKeys: []int{0}})
	pred := expr.Cmp{Op: expr.CmpEq, L: expr.Column{Index: 2}, R: expr.Column{Index: 4}}
	cj := collect(t, &Filter{Child: &CrossJoin{Left: NewScan(r), Right: NewScan(s)}, Pred: pred})
	if !hj.EqualSet(cj) {
		t.Error("hash join and filtered cross join disagree")
	}
}

func TestDistinct(t *testing.T) {
	r := rel([]string{"A"}, []any{1}, []any{2}, []any{1}, []any{3}, []any{2})
	out := collect(t, &Distinct{Child: NewScan(r)})
	if out.Len() != 3 {
		t.Errorf("distinct = %d", out.Len())
	}
}

// TestDistinctExcept: tuples in the Except key set are dropped as if already
// seen, by the operator and the reference operator alike, and a failing
// loader fails Open.
func TestDistinctExcept(t *testing.T) {
	r := rel([]string{"A"}, []any{1}, []any{2}, []any{1}, []any{3}, []any{2}, []any{4})
	except := map[string]struct{}{
		tuple.Tuple{value.Int(2)}.Key(): {},
		tuple.Tuple{value.Int(9)}.Key(): {},
	}
	loads := 0
	op := func() Operator {
		return &Distinct{Child: NewScan(r), Except: func(*expr.Context) (map[string]struct{}, error) {
			loads++
			return except, nil
		}}
	}
	rows, err := collectReference(op(), nil)
	if err != nil {
		t.Fatal(err)
	}
	batches, err := Collect(op(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := rel([]string{"A"}, []any{1}, []any{3}, []any{4})
	if rows.String() != want.String() || batches.String() != want.String() {
		t.Errorf("distinct except {2, 9}: rows\n%sbatches\n%swant\n%s", rows, batches, want)
	}
	if loads != 2 {
		t.Errorf("Except loaded %d times over two drains", loads)
	}
	boom := errors.New("boom")
	failing := &Distinct{Child: NewScan(r), Except: func(*expr.Context) (map[string]struct{}, error) { return nil, boom }}
	if _, err := collectReference(failing, nil); !errors.Is(err, boom) {
		t.Errorf("reference: %v, want the loader's error", err)
	}
	if _, err := Collect(failing, nil); !errors.Is(err, boom) {
		t.Errorf("operator: %v, want the loader's error", err)
	}
}

func TestUnion(t *testing.T) {
	a := rel([]string{"A"}, []any{1}, []any{2})
	b := rel([]string{"A"}, []any{2}, []any{3})
	all := collect(t, &Union{Left: NewScan(a), Right: NewScan(b)})
	if all.Len() != 4 {
		t.Errorf("union all = %d", all.Len())
	}
	distinct := collect(t, &Distinct{Child: &Union{Left: NewScan(a), Right: NewScan(b)}})
	if distinct.Len() != 3 {
		t.Errorf("union distinct = %d", distinct.Len())
	}
}

func TestUnionArityMismatch(t *testing.T) {
	a := rel([]string{"A"}, []any{1})
	b := rel([]string{"A", "B"}, []any{1, 2})
	if _, err := Collect(&Union{Left: NewScan(a), Right: NewScan(b)}, nil); err == nil {
		t.Error("arity mismatch must error")
	}
}

func TestSort(t *testing.T) {
	r := rel([]string{"A", "B"}, []any{2, "x"}, []any{1, "y"}, []any{2, "a"})
	out := collect(t, &Sort{Child: NewScan(r), Keys: []SortKey{{Index: 0, Desc: false}}})
	if out.Rows()[0][0].AsInt() != 1 {
		t.Errorf("sort asc failed: %v", out.Rows())
	}
	// tie-break by canonical order: (2,"a") before (2,"x")
	if out.Rows()[1][1].AsStr() != "a" {
		t.Errorf("tie-break failed: %v", out.Rows())
	}
	desc := collect(t, &Sort{Child: NewScan(r), Keys: []SortKey{{Index: 0, Desc: true}}})
	if desc.Rows()[0][0].AsInt() != 2 {
		t.Errorf("sort desc failed: %v", desc.Rows())
	}
}

func TestLimit(t *testing.T) {
	r := rel([]string{"A"}, []any{1}, []any{2}, []any{3})
	out := collect(t, &Limit{Child: NewScan(r), N: 2})
	if out.Len() != 2 {
		t.Errorf("limit = %d", out.Len())
	}
	out = collect(t, &Limit{Child: NewScan(r), N: 0})
	if out.Len() != 0 {
		t.Errorf("limit 0 = %d", out.Len())
	}
}

func TestAggregateScalarSum(t *testing.T) {
	// Example 2.8 building block: select sum(B) from I (world A: 10+14+20=44).
	r := rel([]string{"B"}, []any{10}, []any{14}, []any{20})
	a := &Aggregate{
		Child: NewScan(r),
		Specs: []expr.AggSpec{{Kind: expr.AggSum, Arg: expr.Column{Index: 0}}},
		Out:   schema.New("sum"),
	}
	out := collect(t, a)
	if out.Len() != 1 || out.Rows()[0][0].AsInt() != 44 {
		t.Errorf("sum(B) = %v", out.Rows())
	}
}

func TestAggregateScalarOnEmptyInput(t *testing.T) {
	r := rel([]string{"B"})
	a := &Aggregate{
		Child: NewScan(r),
		Specs: []expr.AggSpec{
			{Kind: expr.AggCountStar},
			{Kind: expr.AggSum, Arg: expr.Column{Index: 0}},
		},
		Out: schema.New("count", "sum"),
	}
	out := collect(t, a)
	if out.Len() != 1 {
		t.Fatalf("scalar aggregate over empty input must emit one row, got %d", out.Len())
	}
	if out.Rows()[0][0].AsInt() != 0 || !out.Rows()[0][1].IsNull() {
		t.Errorf("empty aggregate = %v", out.Rows()[0])
	}
}

func TestAggregateGroupBy(t *testing.T) {
	r := figure1R()
	a := &Aggregate{
		Child:   NewScan(r),
		GroupBy: []int{0},
		Specs: []expr.AggSpec{
			{Kind: expr.AggCountStar},
			{Kind: expr.AggMax, Arg: expr.Column{Index: 1}},
		},
		Out: schema.New("A", "n", "maxB"),
	}
	out := collect(t, a)
	if out.Len() != 3 {
		t.Fatalf("groups = %d", out.Len())
	}
	byKey := map[string][2]int64{}
	for _, tp := range out.Rows() {
		byKey[tp[0].AsStr()] = [2]int64{tp[1].AsInt(), tp[2].AsInt()}
	}
	if byKey["a1"] != [2]int64{2, 15} || byKey["a2"] != [2]int64{2, 20} || byKey["a3"] != [2]int64{1, 20} {
		t.Errorf("group results = %v", byKey)
	}
}

func TestAggregateGroupByEmptyInputYieldsNoRows(t *testing.T) {
	r := rel([]string{"A", "B"})
	a := &Aggregate{
		Child:   NewScan(r),
		GroupBy: []int{0},
		Specs:   []expr.AggSpec{{Kind: expr.AggCountStar}},
		Out:     schema.New("A", "n"),
	}
	out := collect(t, a)
	if out.Len() != 0 {
		t.Errorf("grouped aggregate over empty input = %d rows", out.Len())
	}
}

func TestAggregateSchemaMismatch(t *testing.T) {
	a := &Aggregate{Child: NewScan(figure1R()), Specs: []expr.AggSpec{{Kind: expr.AggCountStar}}, Out: schema.New("x", "y")}
	if _, err := Collect(a, nil); err == nil {
		t.Error("schema arity mismatch must error")
	}
}

func TestCorrelatedFilterThroughOuterContext(t *testing.T) {
	// Simulates: for outer tuple with B=14, filter inner R on B = outer.B.
	r := figure1R()
	outerCtx := &expr.Context{
		Schema: schema.New("OB"),
		Tuple:  tuple.New(value.Int(14)),
	}
	pred := expr.Cmp{Op: expr.CmpEq, L: expr.Column{Index: 1}, R: expr.Column{Depth: 1, Index: 0}}
	out, err := Collect(&Filter{Child: NewScan(r), Pred: pred}, outerCtx)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.Rows()[0][0].AsStr() != "a2" {
		t.Errorf("correlated filter = %v", out.Rows())
	}
}

func TestCollectPropagatesOpenError(t *testing.T) {
	bad := &Union{Left: NewScan(rel([]string{"A"})), Right: NewScan(rel([]string{"A", "B"}))}
	if _, err := Collect(bad, nil); err == nil {
		t.Error("Collect must propagate Open errors")
	}
	var execErr = errors.New("x")
	_ = execErr
}
