package plan

import (
	"fmt"
	"strings"
	"testing"

	"maybms/internal/algebra"
	"maybms/internal/expr"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
)

// rewriteFixture holds int and float keys that `=` equates, and NULL keys.
func rewriteFixture() mapCatalog {
	return mapCatalog{
		"A": mkrel([]string{"K", "X", "Y"},
			[]any{1, 1, 1}, []any{2, 2, 3}, []any{nil, 3, 3}, []any{3, 1.0, 4}, []any{4, 5, 5}),
		"B": mkrel([]string{"K", "V"},
			[]any{1, 10}, []any{1.0, 11}, []any{2, 20}, []any{nil, 30}, []any{5, 50}),
		"C": mkrel([]string{"K", "W"},
			[]any{1, 1}, []any{2, 3}, []any{3, 4}, []any{2.0, 2}),
	}
}

// unrewritten builds a plain SELECT block (no UNION, no aggregate) the way
// the planner did before the WHERE rewrite: the FROM list as a chain of cross
// joins, the whole WHERE in one Filter on top.
func unrewritten(t *testing.T, stmt *sqlparse.SelectStmt, cat Catalog, outer []*schema.Schema) algebra.Operator {
	t.Helper()
	scans, fromSchema, err := buildFrom(stmt.From, cat)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{cat: cat, scopes: append([]*schema.Schema{fromSchema}, outer...)}
	op := scans[0]
	for _, s := range scans[1:] {
		op = &algebra.CrossJoin{Left: op, Right: s}
	}
	if stmt.Where != nil {
		pred, err := e.lower(stmt.Where)
		if err != nil {
			t.Fatal(err)
		}
		op = &algebra.Filter{Child: op, Pred: pred}
	}
	if op, err = buildProjection(stmt, op, e); err != nil {
		t.Fatal(err)
	}
	if op, err = finishSelect(stmt, op); err != nil {
		t.Fatal(err)
	}
	return op
}

// answer renders a result row for row (order included), or its error.
func answer(rel *relation.Relation, err error) (string, bool) {
	if err != nil {
		return "error: " + err.Error(), true
	}
	var b strings.Builder
	for _, row := range rel.Rows() {
		fmt.Fprintf(&b, "%q\n", row.Encode(nil))
	}
	return b.String(), false
}

// TestRewriteWhere pins the plan shape the WHERE rewrite gives each statement
// and checks its answer against the unrewritten plan's: row for row, order
// included, wherever the unrewritten plan answers, and an error only where
// the unrewritten plan errors too. outer, when set, names a table whose rows
// are the enclosing query's (the statement is a correlated subquery block).
func TestRewriteWhere(t *testing.T) {
	cat := rewriteFixture()
	cases := []struct {
		name, sql, outer, plan string
		errs                   bool // the rewritten plan errors
	}{
		{
			name: "sunk on either side",
			sql:  "select A.K, V from A, B where A.X > 1 and B.V < 40",
			plan: `Project [A.K, V]
  CrossJoin
    Filter (A.X > 1)
      Scan A
    Filter (B.V < 40)
      Scan B
`,
		},
		{
			name: "key at the lowest covering join",
			sql:  "select A.X, V, W from A, B, C where A.K = C.K and C.W > 1 and A.K = B.K",
			plan: `Project [A.X, V, W]
  HashJoin (A.K = C.K)
    HashJoin (A.K = B.K)
      Scan A
      Scan B
    Filter (C.W > 1)
      Scan C
`,
		},
		{
			name: "key between the later bindings",
			sql:  "select A.X, V, W from A, B, C where C.K = B.K",
			plan: `Project [A.X, V, W]
  HashJoin (B.K = C.K)
    CrossJoin
      Scan A
      Scan B
    Scan C
`,
		},
		{
			name: "self-join",
			sql:  "select a.K, b.Y from A a, A b where a.K = b.K",
			plan: `Project [a.K, b.Y]
  HashJoin (a.K = b.K)
    Scan A
    Scan A
`,
		},
		{
			name: "two keys on one join",
			sql:  "select A.Y, W from A, C where A.K = C.K and C.W = A.X",
			plan: `Project [A.Y, W]
  HashJoin (A.K = C.K AND A.X = C.W)
    Scan A
    Scan C
`,
		},
		{
			name: "same-binding equality sinks",
			sql:  "select a.K, V from A a, B where a.X = a.Y and a.K = B.K",
			plan: `Project [a.K, V]
  HashJoin (a.K = B.K)
    Filter (a.X = a.Y)
      Scan A
    Scan B
`,
		},
		{
			name: "OR across bindings stays",
			sql:  "select A.K, V from A, B where A.X = 1 or B.V = 20",
			plan: `Project [A.K, V]
  Filter ((A.X = 1) OR (B.V = 20))
    CrossJoin
      Scan A
      Scan B
`,
		},
		{
			name: "IN-list, IS NULL and NOT sink",
			sql:  "select A.K, V from A, B where A.X in (1, 2) and not (B.K is null) and A.K = B.K",
			plan: `Project [A.K, V]
  HashJoin (A.K = B.K)
    Filter (A.X IN (1, 2))
      Scan A
    Filter (NOT (B.K IS NULL))
      Scan B
`,
		},
		{
			name: "subquery stays",
			sql:  "select A.K, V from A, B where A.K = B.K and exists (select * from C where C.K = A.K)",
			plan: `Project [A.K, V]
  Filter EXISTS(...)
    HashJoin (A.K = B.K)
      Scan A
      Scan B
`,
		},
		{
			name:  "outer reference stays",
			sql:   "select A.K, V from A, B where A.K = B.K and A.X = C.W",
			outer: "C",
			plan: `Project [A.K, V]
  Filter (A.X = C.W)
    HashJoin (A.K = B.K)
      Scan A
      Scan B
`,
		},
		{
			name: "arithmetic stays",
			sql:  "select A.K, V from A, B where A.K = B.K and A.X + 1 > 2",
			plan: `Project [A.K, V]
  Filter ((A.X + 1) > 2)
    HashJoin (A.K = B.K)
      Scan A
      Scan B
`,
		},
		{
			name: "division by zero first",
			sql:  "select A.K, V from A, B where 1 / (A.K - A.K) > 0 and A.K = B.K and B.V > 40",
			plan: `Project [A.K, V]
  Filter ((1 / (A.K - A.K)) > 0)
    HashJoin (A.K = B.K)
      Scan A
      Filter (B.V > 40)
        Scan B
`,
		},
		{
			name: "division by zero in the middle",
			sql:  "select A.K, V from A, B where A.K = B.K and 1 / (A.K - A.K) > 0 and B.V > 15",
			plan: `Project [A.K, V]
  Filter ((1 / (A.K - A.K)) > 0)
    HashJoin (A.K = B.K)
      Scan A
      Filter (B.V > 15)
        Scan B
`,
			errs: true,
		},
		{
			name: "division by zero last",
			sql:  "select A.K, V from A, B where A.K = B.K and B.V > 15 and 1 / (A.K - A.K) > 0",
			plan: `Project [A.K, V]
  Filter ((1 / (A.K - A.K)) > 0)
    HashJoin (A.K = B.K)
      Scan A
      Filter (B.V > 15)
        Scan B
`,
			errs: true,
		},
		{
			name: "single binding is left as written",
			sql:  "select K from A where X > 1 and K = Y",
			plan: `Project [K]
  Filter ((X > 1) AND (K = Y))
    Scan A
`,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stmt := mustParseSelect(t, c.sql)
			var outer []*schema.Schema
			contexts := []*expr.Context{nil}
			if c.outer != "" {
				o, err := cat.Lookup(c.outer)
				if err != nil {
					t.Fatal(err)
				}
				sch := o.Schema.Qualify(c.outer)
				outer, contexts = []*schema.Schema{sch}, nil
				for _, row := range o.Rows() {
					contexts = append(contexts, &expr.Context{Schema: sch, Tuple: row})
				}
			}
			op, err := build(stmt, cat, &env{cat: cat, scopes: outer})
			if err != nil {
				t.Fatal(err)
			}
			if got := explainOp(op, nil); got != c.plan {
				t.Errorf("plan:\n%swant:\n%s", got, c.plan)
			}
			errs := false
			for _, ctx := range contexts {
				got, gotErr := answer(algebra.Collect(op, ctx))
				want, wantErr := answer(algebra.Collect(unrewritten(t, stmt, cat, outer), ctx))
				errs = errs || gotErr
				switch {
				case gotErr && !wantErr:
					t.Errorf("the rewritten plan errors where the written one answers:\n%s\nwant:\n%s", got, want)
				case !wantErr && got != want:
					t.Errorf("answer:\n%swant:\n%s", got, want)
				}
			}
			if errs != c.errs {
				t.Errorf("rewritten plan errors = %v, want %v", errs, c.errs)
			}
		})
	}
}

// keyedJoinCorpus holds the join statements of internal/wsd's delta and
// equivalence corpora (TestDeltaPartsEqualFullParts,
// TestComponentwiseEquivalenceFuzz), closures stripped, over their tables:
// I and M fed by components 0 and 1, P and T by 2, N by 3, G by 4 and 5, S and
// F certain.
var keyedJoinCorpus = []string{
	"select M.K, S.Y from M, S where M.V = S.V",
	"select S.Y, M.K from S, M where S.V = M.V",
	"select a.V, b.W from P a, P b where a.K = b.K",
	"select a.V, b.V from T a, T b where a.V = b.V",
	"select a.V, b.W, c.K from T a, T b, T c where a.V = b.V and b.V = c.V",
	"select S.Y, a.W, b.K from S, T a, T b where a.V = b.V",
	"select a.W, S.Y, b.K from T a, S, T b where a.V = b.V",
	"select P.W, S.Y from P, S where P.V = S.V",
	"select N.K, S.Y from N, S where N.V = S.V",
	"select M.K, F.Z from M, F where M.V = F.V",
	"select F.Z from F, M where F.V = M.V and M.K >= 1",
	"select M.K, S.Y from M, S where M.V = S.V and S.Y <> 'y1'",
	"select G.K, F.Z from G, F where G.V = F.V",
	"select G.K, S.Y from G, S where G.V = S.V and G.K <> 2",
	"select I.K, S.Y from I, S where I.V = S.V",
	"select S.Y, I.K from S, I where S.V = I.V",
	"select I.K from I, S where I.V = S.V",
	"select I.K, F.Z from I, F where I.V = F.V",
	"select F.Z from F, I where F.V = I.V and I.K >= 1",
	"select I.K from I, S where I.V = S.V and S.Y <> 'y1'",
	"select a.K, b.K from P a, P b where a.V = b.V",
	"select I.K from I, S, F where I.V = S.V and S.V = F.V",
	"select I.K from I, P where I.V = P.V",
}

// TestRewriteKeepsAnalysis: Prepared.Analyze certifies exactly the statements
// it certified before the rewrite — the same components, Decomposable and
// Concat as the unrewritten plan — across TestBindDelta's corpus and the join
// statements of internal/wsd's (a UNION's arms here are single-binding blocks,
// which the rewrite leaves as they are).
func TestRewriteKeepsAnalysis(t *testing.T) {
	schemaCatalog := func(cols map[string][]string) Catalog {
		return CatalogFunc(func(name string) (*relation.Relation, error) {
			return relation.New(schema.New(cols[strings.ToUpper(name)]...)), nil
		})
	}
	kvw := []string{"K", "V", "W"}
	corpora := []struct {
		cat   Catalog
		cc    ComponentCatalog
		stmts []string
	}{
		{
			schemaCatalog(map[string][]string{"U": {"a", "b"}, "V": {"a", "b"}, "E": {"a", "b"}, "G": {"a", "b"}, "S": {"a", "c"}, "F": {"a", "z"}}),
			ComponentCatalogFunc(func(table string) []int {
				return map[string][]int{"U": {0}, "V": {0}, "E": {0}, "G": {0}}[strings.ToUpper(table)]
			}),
			deltaCorpus,
		},
		{
			schemaCatalog(map[string][]string{"I": kvw, "M": kvw, "P": kvw, "T": kvw, "N": kvw, "G": kvw, "S": {"V", "Y"}, "F": {"V", "Z"}}),
			ComponentCatalogFunc(func(table string) []int {
				return map[string][]int{"I": {0, 1}, "M": {0, 1}, "P": {2}, "T": {2}, "N": {3}, "G": {4, 5}}[strings.ToUpper(table)]
			}),
			keyedJoinCorpus,
		},
	}
	for _, c := range corpora {
		for _, sql := range c.stmts {
			stmt := mustParseSelect(t, sql)
			if stmt.Union != nil {
				continue
			}
			prep, err := Prepare(stmt, c.cat)
			if err != nil {
				t.Fatalf("%q: %v", sql, err)
			}
			got, err := prep.Analyze(c.cc)
			if err != nil {
				t.Fatalf("%q: %v", sql, err)
			}
			want, err := (&Prepared{op: unrewritten(t, stmt, c.cat, nil)}).Analyze(c.cc)
			if err != nil {
				t.Fatalf("%q: %v", sql, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%q: analysis %+v, unrewritten %+v", sql, *got, *want)
			}
		}
	}
}
