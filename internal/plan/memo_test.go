package plan

import (
	"fmt"
	"reflect"
	"testing"

	"maybms/internal/algebra"
	"maybms/internal/expr"
	"maybms/internal/obs"
	"maybms/internal/sqlparse"
)

// subqueryMarks lists the uncorrelated marks of the compiled subqueries
// under op and exprs, in preorder: an operator's expressions before its
// inputs, an enclosing subquery before the ones inside it.
func subqueryMarks(op algebra.Operator, exprs ...expr.Expr) []bool {
	var out []bool
	var walkOp func(algebra.Operator)
	var walk func(expr.Expr)
	walk = func(e expr.Expr) {
		sub := func(s expr.Subquery) {
			cs := s.(*compiledSubquery)
			out = append(out, cs.uncorrelated)
			walkOp(cs.op)
		}
		switch n := e.(type) {
		case expr.Cmp:
			walk(n.L)
			walk(n.R)
		case expr.And:
			walk(n.L)
			walk(n.R)
		case expr.Or:
			walk(n.L)
			walk(n.R)
		case expr.Arith:
			walk(n.L)
			walk(n.R)
		case expr.Not:
			walk(n.E)
		case expr.Neg:
			walk(n.E)
		case expr.IsNull:
			walk(n.E)
		case expr.Exists:
			sub(n.Sub)
		case expr.In:
			walk(n.Left)
			for _, item := range n.List {
				walk(item)
			}
			if n.Sub != nil {
				sub(n.Sub)
			}
		case expr.Scalar:
			sub(n.Sub)
		}
	}
	walkOp = func(op algebra.Operator) {
		switch n := op.(type) {
		case *algebra.Filter:
			walk(n.Pred)
		case *algebra.Project:
			for _, e := range n.Exprs {
				walk(e)
			}
		case *algebra.Aggregate:
			for _, s := range n.Specs {
				if s.Arg != nil {
					walk(s.Arg)
				}
			}
		}
		if l, r, ok := joined(op); ok {
			walkOp(l)
			walkOp(r)
		} else if c, ok := childOf(op); ok {
			walkOp(c)
		}
	}
	if op != nil {
		walkOp(op)
	}
	for _, e := range exprs {
		walk(e)
	}
	return out
}

// TestUncorrelatedMark: the planner marks a subquery uncorrelated exactly
// when no column inside it resolves beyond its own scopes, whatever clause
// it sits in, and the mark survives stripping and binding.
func TestUncorrelatedMark(t *testing.T) {
	cat := mapCatalog{
		"R": rel(t, []string{"a", "b"}, []int64{1, 2}),
		"S": rel(t, []string{"x", "y"}, []int64{1, 3}),
		"T": rel(t, []string{"c"}, []int64{1}),
	}
	for _, c := range []struct {
		sql  string
		want []bool // preorder
	}{
		{"select a from R where b > (select sum(y) from S)", []bool{true}},
		{"select a from R r1 where exists (select * from S where S.x = r1.a)", []bool{false}},
		// The inner a shadows the outer one.
		{"select a from R where exists (select * from R where a = 1)", []bool{true}},
		// The innermost query reads the outermost scope: both levels are
		// correlated. Reading the middle one correlates the innermost only.
		{"select a from R r1 where exists (select * from S where exists (select * from T where T.c = r1.a))", []bool{false, false}},
		{"select a from R where exists (select * from S where exists (select * from T where T.c = S.x))", []bool{true, false}},
		{"select a from R union select x from S where y > (select min(b) from R)", []bool{true}},
		{"select a from R union select x from S where exists (select * from T where T.c = S.x)", []bool{false}},
		{"select a, (select count(*) from S) from R", []bool{true}},
		{"select a, (select count(*) from S where S.x = R.a) from R", []bool{false}},
		{"select a, count(*) from R group by a having count(*) > (select count(*) from S)", []bool{true}},
		{"select a from R group by a having exists (select * from S where S.x = R.a)", []bool{false}},
		{"select a from R where a in (select x from S)", []bool{true}},
		{"select a from R where a in (select x from S where S.y = R.b)", []bool{false}},
		{"delete from R where b > (select max(y) from S)", []bool{true}},
		{"delete from R where exists (select * from S where S.x = R.a)", []bool{false}},
		// An unqualified column S lacks is the target row's.
		{"delete from R where exists (select * from S where x = a)", []bool{false}},
		{"update R set b = (select max(y) from S)", []bool{true}},
		{"update R set b = (select max(y) from S where S.x = R.a) where a > (select min(c) from T)", []bool{false, true}},
	} {
		stmt, err := sqlparse.Parse(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		var tmpl, bound []bool
		switch st := stmt.(type) {
		case *sqlparse.SelectStmt:
			p, err := Prepare(st, cat)
			if err != nil {
				t.Fatalf("%q: %v", c.sql, err)
			}
			op, err := p.Bind(cat, &Memo{})
			if err != nil {
				t.Fatalf("%q: %v", c.sql, err)
			}
			tmpl, bound = subqueryMarks(p.op), subqueryMarks(op)
		default:
			var p *PreparedDML
			if u, ok := st.(*sqlparse.Update); ok {
				p, err = PrepareUpdateStmt(u, cat)
			} else {
				p, err = PrepareDeleteStmt(st.(*sqlparse.Delete), cat)
			}
			if err != nil {
				t.Fatalf("%q: %v", c.sql, err)
			}
			b, err := p.Bind(cat, nil, &Memo{})
			if err != nil {
				t.Fatalf("%q: %v", c.sql, err)
			}
			tmpl = subqueryMarks(nil, append(p.setExprs, p.pred)...)
			bound = subqueryMarks(nil, append(b.setExprs, b.pred)...)
		}
		if !reflect.DeepEqual(tmpl, c.want) {
			t.Errorf("%q: uncorrelated marks %v, want %v", c.sql, tmpl, c.want)
		}
		if !reflect.DeepEqual(bound, c.want) {
			t.Errorf("%q: bound marks %v, want the template's %v", c.sql, bound, c.want)
		}
	}
}

// TestMemoSharesAcrossWorlds binds two statements of the benchmark's
// naive workload over 2^9 worlds, each with its own I and all sharing the
// certain D, through one memo: the join's build side over D is hashed once
// for the statement, and the uncorrelated sum over I runs once per world —
// not once per row of I. Every world answers as its memo-less bind does.
func TestMemoSharesAcrossWorlds(t *testing.T) {
	d := rel(t, []string{"K", "X"})
	for k := int64(0); k < 200; k++ {
		d.MustAppend(rel(t, []string{"K", "X"}, []int64{k % 9, k % 100}).Rows()[0])
	}
	worlds := make([]mapCatalog, 512)
	for w := range worlds {
		i := rel(t, []string{"K", "V"})
		for k := int64(0); k < 9; k++ {
			v := int64(10)
			if w>>k&1 == 1 {
				v = 70
			}
			i.MustAppend(rel(t, []string{"K", "V"}, []int64{k, v}).Rows()[0])
		}
		worlds[w] = mapCatalog{"I": i, "D": d}
	}
	for _, c := range []struct {
		sql, attr string
		want      int
	}{
		{"select I.K, X from I, D where I.K = D.K and V > 50 and X < 55", "shared_builds", 1},
		{"select K from I where 300 > (select sum(V) from I)", "subquery_evals", len(worlds)},
	} {
		p, err := Prepare(mustParseSelect(t, c.sql), worlds[0])
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace(c.sql)
		ctx := &expr.Context{Stats: tr.Stats()}
		var memo Memo
		for w, cat := range worlds {
			shared, err := p.Bind(cat, &memo)
			if err != nil {
				t.Fatal(err)
			}
			own, err := p.Bind(cat, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, want := collectString(t, shared, ctx), collectString(t, own, nil)
			if got != want {
				t.Fatalf("%q world %d: shared bind answers\n%s\nwant\n%s", c.sql, w, got, want)
			}
		}
		if got := traceAttr(tr, c.attr); got != fmt.Sprint(c.want) {
			t.Errorf("%q: %s = %q, want %d", c.sql, c.attr, got, c.want)
		}
	}
}

func collectString(t *testing.T, op algebra.Operator, ctx *expr.Context) string {
	t.Helper()
	rel, err := algebra.Collect(op, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return rel.StoredString()
}

// TestMemoFirstErrorIsEveryUsers: an uncorrelated subquery whose
// evaluation fails fails every row and every world sharing its entry with
// the first evaluation's error, and evaluates once.
func TestMemoFirstErrorIsEveryUsers(t *testing.T) {
	cat := mapCatalog{"R": rel(t, []string{"a"}, []int64{1}, []int64{2})}
	p, err := Prepare(mustParseSelect(t, "select a from R where exists (select * from R where a / 0 > 1)"), cat)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("")
	ctx := &expr.Context{Stats: tr.Stats()}
	var memo Memo
	var first error
	for w := 0; w < 3; w++ {
		op, err := p.Bind(cat, &memo)
		if err != nil {
			t.Fatal(err)
		}
		_, err = algebra.Collect(op, ctx)
		switch {
		case err == nil:
			t.Fatal("a subquery dividing by zero answered")
		case first == nil:
			first = err
		case err.Error() != first.Error():
			t.Errorf("world %d: %v, want the first evaluation's %v", w, err, first)
		}
	}
	if got := traceAttr(tr, "subquery_evals"); got != "1" {
		t.Errorf("subquery_evals = %q, want 1", got)
	}
}

// traceAttr returns the trace attribute key's last value ("" when unset).
func traceAttr(tr *obs.Trace, key string) string {
	v := ""
	for _, a := range tr.JSON().Attrs {
		if a.Key == key {
			v = a.Value
		}
	}
	return v
}
