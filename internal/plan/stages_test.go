package plan

import (
	"testing"

	"maybms/internal/algebra"
	"maybms/internal/expr"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

func parseSel(t *testing.T, q string) *sqlparse.SelectStmt {
	t.Helper()
	stmt, err := sqlparse.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	return stmt.(*sqlparse.SelectStmt)
}

// collectFromWhere binds a FROM/WHERE template against cat and drains it.
func collectFromWhere(t *testing.T, stmt *sqlparse.SelectStmt, cat Catalog) *relation.Relation {
	t.Helper()
	fw, err := PrepareFromWhere(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	op, err := fw.Bind(cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := algebra.Collect(op, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// collectOnRelation compiles the post-FROM/WHERE part of stmt over ir's
// schema and runs it over ir.
func collectOnRelation(t *testing.T, stmt *sqlparse.SelectStmt, ir *relation.Relation, cat Catalog) (*relation.Relation, error) {
	t.Helper()
	p, err := PrepareOnRelation(stmt, ir.Schema, cat)
	if err != nil {
		t.Fatal(err)
	}
	op, err := p.Bind(ir, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	return algebra.Collect(op, nil)
}

// predicate compiles a standalone condition and binds it against cat.
func predicate(t *testing.T, e sqlparse.Expr, cat Catalog) (Predicate, error) {
	t.Helper()
	p, err := PreparePredicate(e, cat)
	if err != nil {
		return nil, err
	}
	return p.Bind(cat, nil, nil)
}

func TestBuildFromWhere(t *testing.T) {
	out := collectFromWhere(t, parseSel(t, "select A, B from R where A = 'a1'"), figure1())
	// The intermediate is pre-projection: all four R columns.
	if out.Schema.Len() != 4 || out.Len() != 2 {
		t.Errorf("intermediate = %s, %d rows", out.Schema, out.Len())
	}
	// Qualifiers preserved for later key resolution.
	if out.Schema.At(0).Qualifier != "R" {
		t.Errorf("qualifier = %v", out.Schema.At(0))
	}
}

func TestBuildFromWhereRejectsUnion(t *testing.T) {
	stmt := parseSel(t, "select A from R union select A from R")
	if _, err := PrepareFromWhere(stmt, figure1()); err == nil {
		t.Error("union must be rejected")
	}
}

func TestBuildOnRelation(t *testing.T) {
	cat := figure1()
	stmt := parseSel(t, "select A, B from R where A = 'a1'")
	out, err := collectOnRelation(t, stmt, collectFromWhere(t, stmt, cat), cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema.Len() != 2 || out.Len() != 2 {
		t.Errorf("projected = %s, %d rows", out.Schema, out.Len())
	}
}

func TestBuildOnRelationAggregates(t *testing.T) {
	cat := figure1()
	stmt := parseSel(t, "select sum(B) from R")
	out, err := collectOnRelation(t, stmt, collectFromWhere(t, stmt, cat), cat)
	if err != nil || out.Rows()[0][0].AsInt() != 79 {
		t.Errorf("aggregate over relation = %v, %v", out, err)
	}
}

func TestBuildOnRelationRejections(t *testing.T) {
	cat := figure1()
	in := schema.New("A")
	if _, err := PrepareOnRelation(parseSel(t, "select possible A from R"), in, cat); err == nil {
		t.Error("I-SQL must be rejected")
	}
	if _, err := PrepareOnRelation(parseSel(t, "select A from R union select A from R"), in, cat); err == nil {
		t.Error("union must be rejected")
	}
}

func TestBuildPredicate(t *testing.T) {
	cat := figure1()
	stmt := parseSel(t, "select 1 where exists (select * from R where A = 'a1')")
	pred, err := predicate(t, stmt.Where, cat)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := pred()
	if err != nil || !ok {
		t.Errorf("predicate = %v, %v", ok, err)
	}
	stmt = parseSel(t, "select 1 where not exists (select * from R)")
	pred, err = predicate(t, stmt.Where, cat)
	if err != nil {
		t.Fatal(err)
	}
	ok, err = pred()
	if err != nil || ok {
		t.Errorf("negated predicate = %v, %v", ok, err)
	}
}

func TestBuildPredicateNullIsFalse(t *testing.T) {
	stmt := parseSel(t, "select 1 where null = 1")
	pred, err := predicate(t, stmt.Where, figure1())
	if err != nil {
		t.Fatal(err)
	}
	ok, err := pred()
	if err != nil || ok {
		t.Errorf("NULL condition should be not-true: %v, %v", ok, err)
	}
}

func TestBuildPredicateErrors(t *testing.T) {
	stmt := parseSel(t, "select 1 where Z = 1")
	if _, err := predicate(t, stmt.Where, figure1()); err == nil {
		t.Error("unknown column in standalone predicate must fail at build")
	}
	// Runtime errors surface through the closure.
	stmt = parseSel(t, "select 1 where 1 / 0 = 1")
	pred, err := predicate(t, stmt.Where, figure1())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pred(); err == nil {
		t.Error("division by zero must surface at evaluation")
	}
}

func TestBuildScalar(t *testing.T) {
	stmt := parseSel(t, "select 2 + 3 * 4")
	low, err := lowerIn(stmt.Items[0].Expr, schema.New(), figure1())
	if err != nil {
		t.Fatal(err)
	}
	v, err := low.Eval(&expr.Context{Schema: schema.New(), Tuple: tuple.Tuple{}})
	if err != nil || v.AsInt() != 14 {
		t.Errorf("scalar = %v, %v", v, err)
	}
}

func TestBuildRowExpr(t *testing.T) {
	s := schema.New("A", "B")
	stmt := parseSel(t, "select 1 where B + 1 > 10")
	low, err := lowerIn(stmt.Where, s, figure1())
	if err != nil {
		t.Fatal(err)
	}
	ctx := &expr.Context{Schema: s, Tuple: tuple.New(value.Str("x"), value.Int(10))}
	v, err := low.Eval(ctx)
	if err != nil || !v.AsBool() {
		t.Errorf("row expr = %v, %v", v, err)
	}
	if _, err := lowerIn(stmt.Where, schema.New("A"), figure1()); err == nil {
		t.Error("unknown column must fail")
	}
}

func TestLoweringAllOperators(t *testing.T) {
	// Exercise every lowering branch through end-to-end queries.
	cat := figure1()
	queries := []string{
		"select B - D, B * D, B / D, B % D, -B from R",
		"select * from R where B <= 15 and not (B >= 20) or B <> 10",
		"select * from R where C is null or C is not null",
		"select * from R where B in (10, 15) and A not in ('zz')",
		"select 'a' || 'b' from R",
		"select * from R where true and not false",
	}
	for _, q := range queries {
		stmt := parseSel(t, q)
		op, err := build(stmt, cat, nil)
		if err != nil {
			t.Fatalf("build %q: %v", q, err)
		}
		if _, err := algebra.Collect(op, nil); err != nil {
			t.Fatalf("run %q: %v", q, err)
		}
	}
}

func TestLoweringRejectsStarInExpression(t *testing.T) {
	// * outside a select item (e.g. as an IN operand) cannot occur
	// grammatically; the planner's guard is exercised via aggregates.
	stmt := parseSel(t, "select min(*) from R")
	if _, err := build(stmt, figure1(), nil); err == nil {
		t.Error("min(*) must be rejected")
	}
}
