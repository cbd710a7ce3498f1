package plan

import (
	"errors"
	"testing"

	"maybms/internal/algebra"
	"maybms/internal/expr"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

func mustParseSelect(t *testing.T, sql string) *sqlparse.SelectStmt {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	sel, ok := stmt.(*sqlparse.SelectStmt)
	if !ok {
		t.Fatalf("not a select: %T", stmt)
	}
	return sel
}

func rel(t *testing.T, cols []string, rows ...[]int64) *relation.Relation {
	t.Helper()
	r := relation.New(schema.New(cols...))
	for _, row := range rows {
		tp := make(tuple.Tuple, len(row))
		for i, v := range row {
			tp[i] = value.Int(v)
		}
		r.MustAppend(tp)
	}
	return r
}

// TestPrepareBindAcrossCatalogs compiles once and binds the template to two
// catalogs with different contents; each instance must see its own data,
// including inside subqueries.
func TestPrepareBindAcrossCatalogs(t *testing.T) {
	stmt := mustParseSelect(t, `select a from R where exists (select * from S where b = a)`)
	w1 := mapCatalog{"R": rel(t, []string{"a"}, []int64{1}, []int64{2}), "S": rel(t, []string{"b"}, []int64{1})}
	w2 := mapCatalog{"R": rel(t, []string{"a"}, []int64{1}, []int64{2}), "S": rel(t, []string{"b"}, []int64{2})}

	p, err := Prepare(stmt, w1)
	if err != nil {
		t.Fatal(err)
	}
	collect := func(cat Catalog) string {
		op, err := p.Bind(cat, nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := algebra.Collect(op, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	got1, got2 := collect(w1), collect(w2)
	if got1 == got2 {
		t.Fatalf("bind ignored the catalog:\n%s", got1)
	}
	// Direct per-catalog compilation is the semantics reference.
	for _, tc := range []struct {
		cat  mapCatalog
		got  string
		name string
	}{{w1, got1, "w1"}, {w2, got2, "w2"}} {
		op, err := build(stmt, tc.cat, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := algebra.Collect(op, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.got != want.String() {
			t.Fatalf("%s: bind result diverged from direct build:\nbind:\n%s\nbuild:\n%s", tc.name, tc.got, want)
		}
	}
}

// TestBindSchemaDivergence verifies that binding against a catalog that
// lacks a table or a column of the template fails with ErrRebind rather
// than producing wrong answers. The worlds of one world-set share one
// schema, so a session meets this only through a stale cache entry, which
// plan.Cached recompiles.
func TestBindSchemaDivergence(t *testing.T) {
	stmt := mustParseSelect(t, `select a from R`)
	p, err := Prepare(stmt, mapCatalog{"R": rel(t, []string{"a", "b"}, []int64{1, 2})})
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]mapCatalog{
		"renamed column": {"R": rel(t, []string{"x", "b"}, []int64{1, 2})},
		"dropped column": {"R": rel(t, []string{"a"}, []int64{1})},
		"missing table":  {},
	} {
		if _, err := p.Bind(bad, nil); !errors.Is(err, ErrRebind) {
			t.Fatalf("%s: got %v, want ErrRebind", name, err)
		}
	}
	// The original catalog still binds.
	if _, err := p.Bind(mapCatalog{"R": rel(t, []string{"a", "b"}, []int64{3, 4})}, nil); err != nil {
		t.Fatalf("same-schema catalog failed to bind: %v", err)
	}
}

// TestBindInstancesAreIndependent runs two instances of one template and
// checks that operator state is per-instance (iterating one does not
// disturb the other).
func TestBindInstancesAreIndependent(t *testing.T) {
	stmt := mustParseSelect(t, `select distinct a from R order by a`)
	cat := mapCatalog{"R": rel(t, []string{"a"}, []int64{2}, []int64{1}, []int64{2})}
	p, err := Prepare(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	op1, err := p.Bind(cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	op2, err := p.Bind(cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := op1.Open(nil); err != nil {
		t.Fatal(err)
	}
	if b, err := op1.NextBatch(); err != nil || b == nil {
		t.Fatalf("op1 first NextBatch: %v, %v", b, err)
	}
	// op2 must start from the beginning regardless of op1's progress.
	out, err := algebra.Collect(op2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("op2 saw %d rows, want 2:\n%s", out.Len(), out)
	}
	op1.Close()
}

// TestPreparedPredicateBind compiles an ASSERT-style predicate once and
// evaluates it against catalogs where it differs.
func TestPreparedPredicateBind(t *testing.T) {
	stmt := mustParseSelect(t, `select * from R assert exists (select * from R where a = 1)`)
	cat1 := mapCatalog{"R": rel(t, []string{"a"}, []int64{1})}
	cat2 := mapCatalog{"R": rel(t, []string{"a"}, []int64{2})}
	p, err := PreparePredicate(stmt.Assert, cat1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cat  mapCatalog
		want bool
	}{{cat1, true}, {cat2, false}} {
		pred, err := p.Bind(tc.cat, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pred()
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("predicate = %v, want %v", got, tc.want)
		}
	}
}

// TestRebindSharesSubqueryFreeExpressions: rebinding an expression without
// a subquery returns it unchanged and allocates nothing; one holding
// subqueries is rebuilt around freshly bound subplans, and the template's
// stay as they were.
func TestRebindSharesSubqueryFreeExpressions(t *testing.T) {
	cat := mapCatalog{"R": rel(t, []string{"a"}, []int64{1}, []int64{2})}
	var plain expr.Expr = expr.And{
		L: expr.Cmp{Op: expr.CmpLt, L: expr.Column{Index: 0}, R: expr.Const{Value: value.Int(3)}},
		R: expr.In{Left: expr.Arith{Op: value.OpAdd, L: expr.Column{Index: 0}, R: expr.Const{Value: value.Int(1)}},
			List: []expr.Expr{expr.Const{Value: value.Int(2)}, expr.Const{Value: value.Int(4)}}},
	}
	b := &binding{cat: cat}
	allocs := testing.AllocsPerRun(100, func() {
		if _, changed, err := rebindExpr(plain, b); changed || err != nil {
			t.Fatalf("rebinding a subquery-free expression: changed=%v err=%v", changed, err)
		}
	})
	if allocs != 0 {
		t.Errorf("rebinding a subquery-free expression allocates %v times, want 0", allocs)
	}

	stmt := mustParseSelect(t, `select * from R assert not exists (select * from R where a = 9) and 2 in (1, (select count(*) from R))`)
	p, err := PreparePredicate(stmt.Assert, cat)
	if err != nil {
		t.Fatal(err)
	}
	subs := func(e expr.Expr) []expr.Subquery {
		var out []expr.Subquery
		expr.Walk(e, func(n expr.Expr) bool {
			switch x := n.(type) {
			case expr.Exists:
				out = append(out, x.Sub)
			case expr.Scalar:
				out = append(out, x.Sub)
			}
			return true
		})
		return out
	}
	bound, changed, err := rebindExpr(p.e, b)
	if err != nil || !changed {
		t.Fatalf("rebinding an expression with subqueries: changed=%v err=%v", changed, err)
	}
	tmpl, inst := subs(p.e), subs(bound)
	if len(tmpl) != 2 || len(inst) != 2 || bound.String() != p.e.String() {
		t.Fatalf("rebound %s into %s", p.e, bound)
	}
	for i := range tmpl {
		if tmpl[i] == inst[i] {
			t.Errorf("subquery %d of %s is shared with the template", i, bound)
		}
	}
	if v, err := bound.Eval(&expr.Context{Schema: schema.New(), Tuple: tuple.Tuple{}}); err != nil || !v.Truth() {
		t.Errorf("the rebound predicate evaluates to %v, %v; want true", v, err)
	}
}
