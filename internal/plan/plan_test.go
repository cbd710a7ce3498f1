package plan

import (
	"fmt"
	"testing"

	"maybms/internal/algebra"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

type mapCatalog map[string]*relation.Relation

func (m mapCatalog) Lookup(name string) (*relation.Relation, error) {
	for k, v := range m {
		if equalsFold(k, name) {
			return v, nil
		}
	}
	return nil, fmt.Errorf("relation %q does not exist", name)
}

func equalsFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 32
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 32
		}
		if ca != cb {
			return false
		}
	}
	return true
}

func mkrel(names []string, rows ...[]any) *relation.Relation {
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

// figure1 is the complete database of Figure 1.
func figure1() mapCatalog {
	return mapCatalog{
		"R": mkrel([]string{"A", "B", "C", "D"},
			[]any{"a1", 10, "c1", 2},
			[]any{"a1", 15, "c2", 6},
			[]any{"a2", 14, "c3", 4},
			[]any{"a2", 20, "c4", 5},
			[]any{"a3", 20, "c5", 6},
		),
		"S": mkrel([]string{"C", "E"},
			[]any{"c2", "e1"},
			[]any{"c4", "e1"},
			[]any{"c4", "e2"},
		),
	}
}

func run(t *testing.T, cat Catalog, q string) *relation.Relation {
	t.Helper()
	stmt, err := sqlparse.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	op, err := build(stmt.(*sqlparse.SelectStmt), cat, nil)
	if err != nil {
		t.Fatalf("build %q: %v", q, err)
	}
	out, err := algebra.Collect(op, nil)
	if err != nil {
		t.Fatalf("run %q: %v", q, err)
	}
	return out
}

func planErr(t *testing.T, cat Catalog, q string) error {
	t.Helper()
	stmt, err := sqlparse.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	op, err := build(stmt.(*sqlparse.SelectStmt), cat, nil)
	if err != nil {
		return err
	}
	_, err = algebra.Collect(op, nil)
	return err
}

func TestSelectStarWhere(t *testing.T) {
	out := run(t, figure1(), "select * from R where A = 'a3'")
	if out.Len() != 1 || out.Rows()[0][1].AsInt() != 20 {
		t.Errorf("result = %v", out.Rows())
	}
	if out.Schema.Len() != 4 {
		t.Errorf("star expansion = %s", out.Schema)
	}
}

func TestProjectionAndAlias(t *testing.T) {
	out := run(t, figure1(), "select A as key, B + 1 as bb from R where A = 'a1'")
	if out.Schema.Names()[0] != "key" || out.Schema.Names()[1] != "bb" {
		t.Errorf("schema = %s", out.Schema)
	}
	if out.Len() != 2 {
		t.Errorf("rows = %d", out.Len())
	}
	found := false
	for _, tp := range out.Rows() {
		if tp[1].AsInt() == 11 {
			found = true
		}
	}
	if !found {
		t.Errorf("computed column missing: %v", out.Rows())
	}
}

func TestSelfJoinWithAliases(t *testing.T) {
	out := run(t, figure1(), "select r1.A, r2.A from R r1, R r2 where r1.B = r2.B and r1.C <> r2.C")
	// B=20 appears in (a2,c4) and (a3,c5): two ordered pairs.
	if out.Len() != 2 {
		t.Errorf("self join rows = %d: %v", out.Len(), out.Rows())
	}
}

func TestQualifiedStar(t *testing.T) {
	out := run(t, figure1(), "select s.* from R r, S s where r.C = s.C")
	if out.Schema.Len() != 2 || out.Len() != 3 {
		t.Errorf("qualified star: schema %s rows %d", out.Schema, out.Len())
	}
}

func TestExistsSubquery(t *testing.T) {
	// R rows whose C appears in S.
	out := run(t, figure1(), "select A, C from R where exists (select * from S where S.C = R.C)")
	if out.Len() != 2 {
		t.Errorf("exists rows = %d: %v", out.Len(), out.Rows())
	}
}

func TestNotExistsUncorrelated(t *testing.T) {
	// Uncorrelated NOT EXISTS keeps or drops all rows at once.
	out := run(t, figure1(), "select * from R where not exists (select * from S where E = 'e9')")
	if out.Len() != 5 {
		t.Errorf("uncorrelated not exists = %d rows", out.Len())
	}
}

func TestNotExists(t *testing.T) {
	out := run(t, figure1(), "select A, C from R where not exists (select * from S where S.C = R.C)")
	if out.Len() != 3 {
		t.Errorf("not exists rows = %d", out.Len())
	}
}

func TestScalarSubquery(t *testing.T) {
	out := run(t, figure1(), "select A from R where B = (select max(B) from R)")
	if out.Len() != 2 {
		t.Errorf("rows with max B = %d: %v", out.Len(), out.Rows())
	}
}

func TestInSubquery(t *testing.T) {
	out := run(t, figure1(), "select A from R where C in (select C from S)")
	if out.Len() != 2 {
		t.Errorf("in-subquery rows = %d", out.Len())
	}
	out = run(t, figure1(), "select A from R where C not in (select C from S)")
	if out.Len() != 3 {
		t.Errorf("not-in rows = %d", out.Len())
	}
}

func TestScalarAggregate(t *testing.T) {
	out := run(t, figure1(), "select sum(B) from R")
	if out.Len() != 1 || out.Rows()[0][0].AsInt() != 79 {
		t.Errorf("sum = %v", out.Rows())
	}
	if out.Schema.Names()[0] != "sum" {
		t.Errorf("agg output name = %s", out.Schema)
	}
}

func TestGroupByHavingOrder(t *testing.T) {
	out := run(t, figure1(), `select A, sum(D) as total, count(*) as n from R
		group by A having count(*) > 1 order by A`)
	if out.Len() != 2 {
		t.Fatalf("groups = %d: %v", out.Len(), out.Rows())
	}
	if out.Rows()[0][0].AsStr() != "a1" || out.Rows()[0][1].AsInt() != 8 || out.Rows()[0][2].AsInt() != 2 {
		t.Errorf("group a1 = %v", out.Rows()[0])
	}
	if out.Rows()[1][0].AsStr() != "a2" || out.Rows()[1][1].AsInt() != 9 {
		t.Errorf("group a2 = %v", out.Rows()[1])
	}
}

func TestAggregateArgExpression(t *testing.T) {
	out := run(t, figure1(), "select sum(B * D) from R where A = 'a1'")
	if out.Rows()[0][0].AsInt() != 10*2+15*6 {
		t.Errorf("sum(B*D) = %v", out.Rows()[0][0])
	}
}

func TestRepeatedAggregateSharesColumn(t *testing.T) {
	out := run(t, figure1(), "select sum(B), sum(B) + 1 from R")
	if out.Rows()[0][0].AsInt() != 79 || out.Rows()[0][1].AsInt() != 80 {
		t.Errorf("repeated agg = %v", out.Rows()[0])
	}
}

func TestUnionDistinctAndAll(t *testing.T) {
	out := run(t, figure1(), "select C from R union select C from S")
	if out.Len() != 5 {
		t.Errorf("union rows = %d", out.Len())
	}
	out = run(t, figure1(), "select C from R union all select C from S")
	if out.Len() != 8 {
		t.Errorf("union all rows = %d", out.Len())
	}
}

func TestFigure5UnionQuery(t *testing.T) {
	cat := mapCatalog{"R": mkrel([]string{"SSN", "TEL"}, []any{123, 456}, []any{789, 123})}
	out := run(t, cat, `select SSN, TEL, SSN as "SSN'", TEL as "TEL'" from R
		union select SSN, TEL, TEL as "SSN'", SSN as "TEL'" from R`)
	if out.Len() != 4 {
		t.Errorf("figure 5 S = %d rows: %v", out.Len(), out.Rows())
	}
	if out.Schema.Names()[2] != "SSN'" {
		t.Errorf("schema = %s", out.Schema)
	}
}

func TestOrderByDescAndLimit(t *testing.T) {
	out := run(t, figure1(), "select A, B from R order by B desc, A limit 2")
	if out.Len() != 2 {
		t.Fatalf("limit = %d", out.Len())
	}
	if out.Rows()[0][1].AsInt() != 20 || out.Rows()[0][0].AsStr() != "a2" {
		t.Errorf("order = %v", out.Rows())
	}
}

func TestOrderByPosition(t *testing.T) {
	out := run(t, figure1(), "select A, B from R order by 2 desc limit 1")
	if out.Rows()[0][1].AsInt() != 20 {
		t.Errorf("positional order = %v", out.Rows())
	}
}

func TestSelectDistinct(t *testing.T) {
	out := run(t, figure1(), "select distinct A from R")
	if out.Len() != 3 {
		t.Errorf("distinct = %d", out.Len())
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	out := run(t, figure1(), "select 1 + 1 as two")
	if out.Len() != 1 || out.Rows()[0][0].AsInt() != 2 {
		t.Errorf("dual = %v", out.Rows())
	}
}

func TestNullLiteralProjection(t *testing.T) {
	out := run(t, figure1(), "select null as n from R where A = 'a3'")
	if out.Len() != 1 || !out.Rows()[0][0].IsNull() {
		t.Errorf("null projection = %v", out.Rows())
	}
}

func TestErrors(t *testing.T) {
	cases := []string{
		"select * from NoSuchTable",
		"select Z from R",
		"select C from R, S",                       // ambiguous C
		"select R.A from R myr",                    // alias hides base name
		"select * from R r, S r",                   // duplicate binding
		"select A, sum(B) from R",                  // A not grouped
		"select * , sum(B) from R",                 // star with aggregate
		"select sum(*) from R",                     // sum(*) invalid
		"select sum(B, D) from R",                  // arity
		"select frob(B) from R",                    // unknown function
		"select A from R where sum(B) > 1",         // aggregate in where
		"select A from R order by Z",               // unknown order column
		"select A from R order by 3",               // order position out of range
		"select A from R union select A, B from R", // arity mismatch
		"select possible A from R",                 // I-SQL must be rejected here
		"select conf from R",                       // conf must be rejected here
	}
	for _, q := range cases {
		if err := planErr(t, figure1(), q); err == nil {
			t.Errorf("%q should fail to plan", q)
		}
	}
}

func TestCorrelatedScalarSubquery(t *testing.T) {
	// For each R row, count S rows with the same C.
	out := run(t, figure1(), `select A, C, (select count(*) from S where S.C = R.C) as n from R order by A, C`)
	counts := map[string]int64{}
	for _, tp := range out.Rows() {
		counts[tp[1].AsStr()] = tp[2].AsInt()
	}
	want := map[string]int64{"c1": 0, "c2": 1, "c3": 0, "c4": 2, "c5": 0}
	for c, n := range want {
		if counts[c] != n {
			t.Errorf("count for %s = %d, want %d", c, counts[c], n)
		}
	}
}

func TestDoublyNestedSubquery(t *testing.T) {
	// Rows of R whose C-value joins S with an E that appears more than once.
	q := `select A from R where exists (
	        select * from S where S.C = R.C and S.E in (
	            select E from S group by E having count(*) > 1))`
	out := run(t, figure1(), q)
	// e1 appears twice; S rows with e1 have C = c2 and c4 → R rows a1(c2), a2(c4).
	if out.Len() != 2 {
		t.Errorf("nested rows = %d: %v", out.Len(), out.Rows())
	}
}

func TestCatalogFunc(t *testing.T) {
	cat := CatalogFunc(func(name string) (*relation.Relation, error) {
		return mkrel([]string{"X"}, []any{1}), nil
	})
	out := run(t, cat, "select X from anything")
	if out.Len() != 1 {
		t.Error("CatalogFunc lookup failed")
	}
}
