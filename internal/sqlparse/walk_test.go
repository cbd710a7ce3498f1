package sqlparse

import (
	"fmt"
	"testing"

	"maybms/internal/value"
)

// reached lists the column names and statements Walk reaches from n, in
// order; enter says whether a statement other than n is walked into.
func reached(n Node, enter bool) []string {
	var got []string
	Walk(n, func(m Node) bool {
		switch m := m.(type) {
		case ColumnRef:
			got = append(got, m.Name)
		case *SelectStmt:
			if m != n {
				got = append(got, "stmt")
				return enter
			}
		}
		return true
	})
	return got
}

// TestWalkReachesEveryOperand: for every expression kind, Walk visits each
// operand in written order, and the subquery of EXISTS, IN (subquery) and a
// scalar subquery as a statement; a visitor returning false there never sees
// the statement's inside, one returning true does.
func TestWalkReachesEveryOperand(t *testing.T) {
	col := func(name string) Expr { return ColumnRef{Name: name} }
	sub := &SelectStmt{Items: []SelectItem{{Expr: col("inside")}}, Limit: -1}
	kinds := map[string]bool{}
	for _, k := range []struct {
		node     Expr
		operands []string // with the subquery as "stmt"
	}{
		{col("a"), nil},
		{Literal{Value: value.Int(1)}, nil},
		{BinaryExpr{Op: "+", L: col("a"), R: col("b")}, []string{"a", "b"}},
		{UnaryExpr{Op: "NOT", E: col("a")}, []string{"a"}},
		{IsNullExpr{E: col("a"), Negated: true}, []string{"a"}},
		{ExistsExpr{Sub: sub}, []string{"stmt"}},
		{InExpr{Left: col("a"), List: []Expr{col("b"), col("c")}}, []string{"a", "b", "c"}},
		{InExpr{Left: col("a"), Sub: sub, Negated: true}, []string{"a", "stmt"}},
		{SubqueryExpr{Sub: sub}, []string{"stmt"}},
		{FuncCall{Name: "sum", Args: []Expr{col("a"), col("b")}}, []string{"a", "b"}},
		{Star{Qualifier: "R"}, nil},
		{ConfExpr{Approx: true}, nil},
	} {
		kinds[fmt.Sprintf("%T", k.node)] = true
		want := k.operands
		if _, root := k.node.(ColumnRef); root {
			want = []string{"a"}
		}
		if got := reached(k.node, false); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: Walk reached %v, want %v", k.node, got, want)
		}
		var entered []string
		for _, o := range want {
			entered = append(entered, o)
			if o == "stmt" {
				entered = append(entered, "inside")
			}
		}
		if got := reached(k.node, true); fmt.Sprint(got) != fmt.Sprint(entered) {
			t.Errorf("%s: Walk into the subquery reached %v, want %v", k.node, got, entered)
		}
		visits := 0
		Walk(k.node, func(Node) bool { visits++; return false })
		if visits != 1 {
			t.Errorf("%s: a visit returning false was followed by %d more", k.node, visits-1)
		}
	}
	if len(kinds) != 11 {
		t.Errorf("the table builds %d expression kinds, want all 11", len(kinds))
	}
}

// TestWalkStatementClauses: a statement's children are its select items,
// WHERE, HAVING, ASSERT, GROUP WORLDS BY and UNION arm, in that order; FROM,
// GROUP BY and ORDER BY hold no expressions Walk visits, and absent clauses
// are skipped.
func TestWalkStatementClauses(t *testing.T) {
	col := func(name string) Expr { return ColumnRef{Name: name} }
	one := func(name string) *SelectStmt {
		return &SelectStmt{Items: []SelectItem{{Expr: col(name)}}, Limit: -1}
	}
	st := &SelectStmt{
		Items:       []SelectItem{{Expr: col("item1")}, {Expr: col("item2"), Alias: "x"}},
		From:        []TableRef{{Name: "R"}},
		Where:       col("where"),
		GroupBy:     []ColumnRef{{Name: "group"}},
		Having:      col("having"),
		Assert:      col("assert"),
		GroupWorlds: one("worlds"),
		OrderBy:     []OrderItem{{Column: &ColumnRef{Name: "order"}}},
		Limit:       -1,
		Union:       one("union"),
	}
	want := "[item1 item2 where having assert stmt worlds stmt union]"
	if got := fmt.Sprint(reached(st, true)); got != want {
		t.Errorf("Walk reached %s, want %s", got, want)
	}
	if got := fmt.Sprint(reached(one("only"), true)); got != "[only]" {
		t.Errorf("Walk over a bare statement reached %s", got)
	}
	Walk((*SelectStmt)(nil), func(Node) bool { t.Error("visited a nil statement"); return true })
	Walk(Expr(nil), func(Node) bool { t.Error("visited a nil expression"); return true })
}
