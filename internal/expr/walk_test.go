package expr

import (
	"errors"
	"fmt"
	"testing"

	"maybms/internal/relation"
	"maybms/internal/value"
)

// opaqueSub is a subquery the walkers must never evaluate.
type opaqueSub struct{ t *testing.T }

func (s *opaqueSub) Eval(*Context) (*relation.Relation, error) {
	s.t.Error("a walker evaluated a subquery")
	return nil, nil
}

// subOf returns the subquery a node holds (nil: none).
func subOf(e Expr) Subquery {
	switch n := e.(type) {
	case Exists:
		return n.Sub
	case In:
		return n.Sub
	case Scalar:
		return n.Sub
	}
	return nil
}

// walkKinds builds a node of every kind, each operand a column named for
// its position, with the operand names Walk must reach in written order.
func walkKinds(t *testing.T) []struct {
	node     Expr
	operands []string
} {
	col := func(name string) Expr { return Column{Name: name} }
	sub := &opaqueSub{t}
	return []struct {
		node     Expr
		operands []string
	}{
		{Const{Value: value.Int(1)}, nil},
		{col("a"), nil},
		{Cmp{Op: CmpLt, L: col("a"), R: col("b")}, []string{"a", "b"}},
		{And{L: col("a"), R: col("b")}, []string{"a", "b"}},
		{Or{L: col("a"), R: col("b")}, []string{"a", "b"}},
		{Not{E: col("a")}, []string{"a"}},
		{Arith{Op: value.OpMul, L: col("a"), R: col("b")}, []string{"a", "b"}},
		{Neg{E: col("a")}, []string{"a"}},
		{IsNull{E: col("a"), Negated: true}, []string{"a"}},
		{Exists{Sub: sub}, nil},
		{In{Left: col("a"), List: []Expr{col("b"), col("c")}, Negated: true}, []string{"a", "b", "c"}},
		{In{Left: col("a"), Sub: sub}, []string{"a"}},
		{Scalar{Sub: sub}, nil},
	}
}

// columnNames lists the names of the columns below root, in Walk's order.
func columnNames(root Expr) []string {
	var names []string
	Walk(root, func(n Expr) bool {
		if c, ok := n.(Column); ok && n != root {
			names = append(names, c.Name)
		}
		return true
	})
	return names
}

// TestWalkersReachEveryOperand: for every kind, Walk visits the node first
// and then each operand in written order, and Map rebuilds the node around
// each mapped operand, keeps its other fields, and hands a subquery on
// untouched; neither enters a subquery. A callback that changes nothing
// gets the node itself back, and an error stops Map.
func TestWalkersReachEveryOperand(t *testing.T) {
	kinds := map[string]bool{}
	for _, k := range walkKinds(t) {
		kinds[fmt.Sprintf("%T", k.node)] = true
		name := k.node.String()

		var visited []Expr
		Walk(k.node, func(n Expr) bool { visited = append(visited, n); return true })
		if len(visited) == 0 || visited[0].String() != name {
			t.Errorf("%s: Walk did not visit the node first: %v", name, visited)
		}
		if got := columnNames(k.node); fmt.Sprint(got) != fmt.Sprint(k.operands) {
			t.Errorf("%s: Walk reached operands %v, want %v", name, got, k.operands)
		}
		visits := 0
		Walk(k.node, func(Expr) bool { visits++; return false })
		if visits != 1 {
			t.Errorf("%s: a visit returning false was followed by %d more", name, visits-1)
		}

		primed, changed, err := Map(k.node, func(n Expr) (Expr, bool, error) {
			if c, ok := n.(Column); ok && n != k.node {
				c.Name += "'"
				return c, true, nil
			}
			return n, false, nil
		})
		if err != nil || changed != (len(k.operands) > 0) {
			t.Errorf("%s: Map changed=%v err=%v, want changed=%v", name, changed, err, len(k.operands) > 0)
		}
		want := make([]string, len(k.operands))
		for i, o := range k.operands {
			want[i] = o + "'"
		}
		if got := columnNames(primed); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: Map rebuilt operands %v, want %v", name, got, want)
		}
		if fmt.Sprintf("%T", primed) != fmt.Sprintf("%T", k.node) || subOf(primed) != subOf(k.node) {
			t.Errorf("%s: Map turned the node into %T %s", name, primed, primed)
		}
		if len(k.operands) > 0 {
			if unprimed := columnNames(k.node); fmt.Sprint(unprimed) != fmt.Sprint(k.operands) {
				t.Errorf("%s: Map wrote into the original: %v", name, unprimed)
			}
		}

		same, changed, err := Map(k.node, func(n Expr) (Expr, bool, error) { return n, false, nil })
		if err != nil || changed || same.String() != name {
			t.Errorf("%s: an identity Map gave %s changed=%v err=%v", name, same, changed, err)
		}
		if in, ok := k.node.(In); ok && len(in.List) > 0 && &same.(In).List[0] != &in.List[0] {
			t.Errorf("%s: an identity Map copied the IN list", name)
		}

		boom := errors.New("boom")
		_, _, err = Map(k.node, func(n Expr) (Expr, bool, error) {
			if _, ok := n.(Column); ok {
				return nil, false, boom
			}
			return n, false, nil
		})
		_, isColumn := k.node.(Column)
		if hasColumn := len(k.operands) > 0 || isColumn; errors.Is(err, boom) != hasColumn {
			t.Errorf("%s: Map returned %v from a failing callback", name, err)
		}
	}
	if len(kinds) != 12 {
		t.Errorf("the table builds %d kinds, want all 12", len(kinds))
	}
}

// TestVectorizableRules: the subset EvalVec handles is closed under the
// operators and excludes subqueries, outer columns and IN over anything but
// a constant list, wherever they sit in the tree.
func TestVectorizableRules(t *testing.T) {
	c := Const{Value: value.Int(1)}
	inner, outer := Column{Index: 0}, Column{Index: 0, Depth: 1}
	sub := &opaqueSub{t}
	for _, tc := range []struct {
		e    Expr
		want bool
	}{
		{And{L: Cmp{L: inner, R: c}, R: Not{E: IsNull{E: Neg{E: Arith{L: inner, R: c}}}}}, true},
		{In{Left: Arith{L: inner, R: c}, List: []Expr{c, c}}, true},
		{Or{L: Cmp{L: inner, R: c}, R: Cmp{L: outer, R: c}}, false},
		{Cmp{L: outer, R: inner}, false},
		{In{Left: inner, List: []Expr{c, inner}}, false},
		{In{Left: inner, Sub: sub}, false},
		{And{L: Exists{Sub: sub}, R: Cmp{L: inner, R: c}}, false},
		{Arith{L: inner, R: Scalar{Sub: sub}}, false},
	} {
		if got := Vectorizable(tc.e); got != tc.want {
			t.Errorf("Vectorizable(%s) = %v, want %v", tc.e, got, tc.want)
		}
	}
}
