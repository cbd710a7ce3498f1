package sqlparse

import (
	"strings"
	"testing"

	"maybms/internal/value"
)

func parseSelect(t *testing.T, in string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(in)
	if err != nil {
		t.Fatalf("Parse(%q): %v", in, err)
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *SelectStmt", in, stmt)
	}
	return sel
}

func TestExample21(t *testing.T) {
	s := parseSelect(t, "select * from I where A = 'a3';")
	if _, ok := s.Items[0].Expr.(Star); !ok {
		t.Error("expected * item")
	}
	if s.From[0].Name != "I" {
		t.Errorf("from = %v", s.From)
	}
	cmp, ok := s.Where.(BinaryExpr)
	if !ok || cmp.Op != "=" {
		t.Fatalf("where = %v", s.Where)
	}
	if lit, ok := cmp.R.(Literal); !ok || lit.Value.AsStr() != "a3" {
		t.Errorf("literal = %v", cmp.R)
	}
}

func TestExample22CreateTableAs(t *testing.T) {
	stmt, err := Parse("create table D as select * from I where A = 'a3';")
	if err != nil {
		t.Fatal(err)
	}
	ct, ok := stmt.(*CreateTableAs)
	if !ok || ct.Name != "D" {
		t.Fatalf("stmt = %#v", stmt)
	}
	if ct.Query.Where == nil {
		t.Error("query lost WHERE")
	}
}

func TestExample23RepairByKey(t *testing.T) {
	stmt, err := Parse("create table I as select A, B, C from R repair by key A;")
	if err != nil {
		t.Fatal(err)
	}
	q := stmt.(*CreateTableAs).Query
	if q.Repair == nil || len(q.Repair.Key) != 1 || q.Repair.Key[0] != "A" {
		t.Fatalf("repair = %v", q.Repair)
	}
	if q.Repair.Weight != "" {
		t.Error("no weight expected")
	}
	if len(q.Items) != 3 {
		t.Errorf("items = %d", len(q.Items))
	}
}

func TestExample24RepairWeight(t *testing.T) {
	stmt, err := Parse("create table I as select A, B, C from R repair by key A weight D;")
	if err != nil {
		t.Fatal(err)
	}
	q := stmt.(*CreateTableAs).Query
	if q.Repair == nil || q.Repair.Weight != "D" {
		t.Fatalf("repair = %v", q.Repair)
	}
}

func TestCompositeRepairKey(t *testing.T) {
	s := parseSelect(t, `select "SSN'", "TEL'" from S repair by key SSN, TEL`)
	if len(s.Repair.Key) != 2 || s.Repair.Key[1] != "TEL" {
		t.Fatalf("repair key = %v", s.Repair.Key)
	}
	if ref, ok := s.Items[0].Expr.(ColumnRef); !ok || ref.Name != "SSN'" {
		t.Errorf("quoted column = %v", s.Items[0].Expr)
	}
}

func TestExample25Assert(t *testing.T) {
	stmt, err := Parse(`create table J as select * from I
		assert not exists(select * from I where C = 'c1');`)
	if err != nil {
		t.Fatal(err)
	}
	q := stmt.(*CreateTableAs).Query
	ex, ok := q.Assert.(ExistsExpr)
	if !ok || !ex.Negated {
		t.Fatalf("assert = %v", q.Assert)
	}
	if ex.Sub.Where == nil {
		t.Error("subquery lost WHERE")
	}
}

func TestExample26ChoiceOf(t *testing.T) {
	s := parseSelect(t, "select * from S choice of E;")
	if s.Choice == nil || s.Choice.Attrs[0] != "E" || s.Choice.Weight != "" {
		t.Fatalf("choice = %v", s.Choice)
	}
}

func TestExample27ChoiceWeight(t *testing.T) {
	s := parseSelect(t, "select * from R choice of A weight D;")
	if s.Choice == nil || s.Choice.Weight != "D" {
		t.Fatalf("choice = %v", s.Choice)
	}
}

func TestExample28PossibleSum(t *testing.T) {
	s := parseSelect(t, "select possible sum(B) from I;")
	if s.Quantifier != QuantPossible {
		t.Error("quantifier not possible")
	}
	fc, ok := s.Items[0].Expr.(FuncCall)
	if !ok || fc.Name != "sum" || len(fc.Args) != 1 {
		t.Fatalf("item = %v", s.Items[0].Expr)
	}
}

func TestExample29CertainChoice(t *testing.T) {
	s := parseSelect(t, "select certain E from S choice of C;")
	if s.Quantifier != QuantCertain || s.Choice == nil {
		t.Fatalf("stmt = %v", s)
	}
}

func TestExample210Conf(t *testing.T) {
	s := parseSelect(t, "select conf from I where 50 > (select sum(Time) from I);")
	if _, ok := s.Items[0].Expr.(ConfExpr); !ok {
		t.Fatalf("conf item = %v", s.Items[0].Expr)
	}
	cmp, ok := s.Where.(BinaryExpr)
	if !ok || cmp.Op != ">" {
		t.Fatalf("where = %v", s.Where)
	}
	if _, ok := cmp.R.(SubqueryExpr); !ok {
		t.Errorf("scalar subquery = %v", cmp.R)
	}
}

func TestWhaleAttackQuery(t *testing.T) {
	s := parseSelect(t, "select possible 'yes' from I where Id=1 and Pos='b';")
	if s.Quantifier != QuantPossible {
		t.Error("quantifier")
	}
	if lit, ok := s.Items[0].Expr.(Literal); !ok || lit.Value.AsStr() != "yes" {
		t.Errorf("item = %v", s.Items[0].Expr)
	}
	and, ok := s.Where.(BinaryExpr)
	if !ok || and.Op != "AND" {
		t.Fatalf("where = %v", s.Where)
	}
}

func TestWhaleValidView(t *testing.T) {
	stmt, err := Parse(`create view Valid as
		select * from I assert exists
		(select * from I where Gender='cow' and Pos='b');`)
	if err != nil {
		t.Fatal(err)
	}
	cv, ok := stmt.(*CreateView)
	if !ok || cv.Name != "Valid" {
		t.Fatalf("stmt = %#v", stmt)
	}
	ex, ok := cv.Query.Assert.(ExistsExpr)
	if !ok || ex.Negated {
		t.Fatalf("assert = %v", cv.Query.Assert)
	}
}

func TestGroupWorldsBy(t *testing.T) {
	stmt, err := Parse(`create table Groups as
		select possible i2.Gender as G2, i3.Gender as G3
		from I i2, I i3
		where i2.Id = 2 and i3.Id = 3
		group worlds by (select Pos from I where Id = 2);`)
	if err != nil {
		t.Fatal(err)
	}
	q := stmt.(*CreateTableAs).Query
	if q.GroupWorlds == nil {
		t.Fatal("group worlds by missing")
	}
	if q.Quantifier != QuantPossible {
		t.Error("quantifier")
	}
	if len(q.From) != 2 || q.From[0].Alias != "i2" || q.From[1].Alias != "i3" {
		t.Errorf("from aliases = %v", q.From)
	}
	if q.Items[0].Alias != "G2" || q.Items[1].Alias != "G3" {
		t.Errorf("aliases = %v", q.Items)
	}
	ref, ok := q.Items[0].Expr.(ColumnRef)
	if !ok || ref.Qualifier != "i2" || ref.Name != "Gender" {
		t.Errorf("qualified ref = %v", q.Items[0].Expr)
	}
}

func TestFigure5Union(t *testing.T) {
	stmt, err := Parse(`create table S as
		select SSN, TEL, SSN as "SSN'", TEL as "TEL'" from R
		union
		select SSN, TEL, TEL as "SSN'", SSN as "TEL'" from R;`)
	if err != nil {
		t.Fatal(err)
	}
	q := stmt.(*CreateTableAs).Query
	if q.Union == nil || q.UnionAll {
		t.Fatal("expected UNION (distinct)")
	}
	if len(q.Items) != 4 || q.Items[2].Alias != "SSN'" {
		t.Errorf("items = %v", q.Items)
	}
}

func TestFDAssertSelfJoin(t *testing.T) {
	stmt, err := Parse(`create table U as
		select * from T assert not exists
		(select 'yes' from T t1, T t2
		 where t1."SSN'" = t2."SSN'" and t1."TEL'" <> t2."TEL'");`)
	if err != nil {
		t.Fatal(err)
	}
	q := stmt.(*CreateTableAs).Query
	ex := q.Assert.(ExistsExpr)
	sub := ex.Sub
	if len(sub.From) != 2 || sub.From[0].Alias != "t1" {
		t.Errorf("self-join from = %v", sub.From)
	}
	and := sub.Where.(BinaryExpr)
	ne := and.R.(BinaryExpr)
	if ne.Op != "<>" {
		t.Errorf("op = %v", ne.Op)
	}
	l := ne.L.(ColumnRef)
	if l.Qualifier != "t1" || l.Name != "TEL'" {
		t.Errorf("quoted qualified ref = %v", l)
	}
}

func TestUnionAll(t *testing.T) {
	s := parseSelect(t, "select A from R union all select A from S")
	if s.Union == nil || !s.UnionAll {
		t.Error("expected UNION ALL")
	}
}

func TestOperatorPrecedence(t *testing.T) {
	s := parseSelect(t, "select 1 + 2 * 3 from R")
	add := s.Items[0].Expr.(BinaryExpr)
	if add.Op != "+" {
		t.Fatalf("top = %v", add.Op)
	}
	mul := add.R.(BinaryExpr)
	if mul.Op != "*" {
		t.Errorf("expected * nested under +, got %v", mul.Op)
	}

	s = parseSelect(t, "select * from R where a = 1 or b = 2 and c = 3")
	or := s.Where.(BinaryExpr)
	if or.Op != "OR" {
		t.Fatalf("top = %v", or.Op)
	}
	and := or.R.(BinaryExpr)
	if and.Op != "AND" {
		t.Errorf("AND should bind tighter than OR")
	}
}

func TestNotPrecedence(t *testing.T) {
	s := parseSelect(t, "select * from R where not a = 1 and b = 2")
	and := s.Where.(BinaryExpr)
	if and.Op != "AND" {
		t.Fatalf("top = %v", and.Op)
	}
	if n, ok := and.L.(UnaryExpr); !ok || n.Op != "NOT" {
		t.Errorf("NOT should bind tighter than AND: %v", and.L)
	}
}

func TestParenthesizedExpr(t *testing.T) {
	s := parseSelect(t, "select (1 + 2) * 3 from R")
	mul := s.Items[0].Expr.(BinaryExpr)
	if mul.Op != "*" {
		t.Fatalf("top = %v", mul.Op)
	}
	if add, ok := mul.L.(BinaryExpr); !ok || add.Op != "+" {
		t.Errorf("parens ignored: %v", mul.L)
	}
}

func TestIsNullAndIn(t *testing.T) {
	s := parseSelect(t, "select * from R where a is null and b is not null")
	and := s.Where.(BinaryExpr)
	l := and.L.(IsNullExpr)
	r := and.R.(IsNullExpr)
	if l.Negated || !r.Negated {
		t.Error("IS NULL / IS NOT NULL mixed up")
	}

	s = parseSelect(t, "select * from R where a in (1, 2, 3)")
	in := s.Where.(InExpr)
	if len(in.List) != 3 || in.Negated {
		t.Errorf("in = %v", in)
	}

	s = parseSelect(t, "select * from R where a not in (select b from S)")
	in = s.Where.(InExpr)
	if in.Sub == nil || !in.Negated {
		t.Errorf("not in subquery = %v", in)
	}
}

func TestLiterals(t *testing.T) {
	s := parseSelect(t, "select null, true, false, 2.5, -3, 'it''s' from R")
	vals := make([]value.Value, 0, 5)
	for _, it := range s.Items {
		switch e := it.Expr.(type) {
		case Literal:
			vals = append(vals, e.Value)
		case UnaryExpr:
			vals = append(vals, e.E.(Literal).Value)
		}
	}
	if !vals[0].IsNull() || !vals[1].AsBool() || vals[2].AsBool() {
		t.Errorf("literal heads = %v", vals)
	}
	if vals[3].AsFloat() != 2.5 || vals[4].AsInt() != 3 {
		t.Errorf("numbers = %v", vals)
	}
	if vals[5].AsStr() != "it's" {
		t.Errorf("escaped string = %v", vals[5])
	}
}

func TestQualifiedStar(t *testing.T) {
	s := parseSelect(t, "select t1.*, t2.a from R t1, S t2")
	star, ok := s.Items[0].Expr.(Star)
	if !ok || star.Qualifier != "t1" {
		t.Fatalf("qualified star = %v", s.Items[0].Expr)
	}
}

func TestCountVariants(t *testing.T) {
	s := parseSelect(t, "select count(*), count(distinct a), count(b) from R")
	star := s.Items[0].Expr.(FuncCall)
	if !star.Star {
		t.Error("count(*)")
	}
	dist := s.Items[1].Expr.(FuncCall)
	if !dist.Distinct {
		t.Error("count(distinct)")
	}
}

func TestGroupByHaving(t *testing.T) {
	s := parseSelect(t, "select a, sum(b) from R group by a having sum(b) > 10")
	if len(s.GroupBy) != 1 || s.GroupBy[0].Name != "a" {
		t.Fatalf("group by = %v", s.GroupBy)
	}
	if s.Having == nil {
		t.Error("having lost")
	}
}

func TestOrderByAndLimit(t *testing.T) {
	s := parseSelect(t, "select a, b from R order by b desc, 1 limit 5")
	if len(s.OrderBy) != 2 {
		t.Fatalf("order by = %v", s.OrderBy)
	}
	if !s.OrderBy[0].Desc || s.OrderBy[0].Column.Name != "b" {
		t.Errorf("first order item = %v", s.OrderBy[0])
	}
	if s.OrderBy[1].Position != 1 {
		t.Errorf("positional order item = %v", s.OrderBy[1])
	}
	if s.Limit != 5 {
		t.Errorf("limit = %d", s.Limit)
	}
}

func TestCreateTableWithPrimaryKey(t *testing.T) {
	stmt, err := Parse("create table R (A, B, C, D, primary key (A, B))")
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*CreateTable)
	if len(ct.Columns) != 4 || len(ct.PrimaryKey) != 2 {
		t.Fatalf("ct = %#v", ct)
	}
}

func TestCreateTableWithTypes(t *testing.T) {
	stmt, err := Parse("create table R (A text, B integer, C text)")
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*CreateTable)
	if len(ct.Columns) != 3 || ct.Columns[1] != "B" {
		t.Fatalf("type names not ignored: %#v", ct)
	}
}

func TestInsert(t *testing.T) {
	stmt, err := Parse("insert into R (A, B) values ('a1', 10), ('a2', 20)")
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*Insert)
	if ins.Table != "R" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("insert = %#v", ins)
	}
	stmt, err = Parse("insert into R values (1, 2)")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.(*Insert).Columns) != 0 {
		t.Error("column list should be optional")
	}
}

func TestUpdateDeleteDrop(t *testing.T) {
	stmt, err := Parse("update R set B = B + 1, C = 'x' where A = 'a1'")
	if err != nil {
		t.Fatal(err)
	}
	upd := stmt.(*Update)
	if len(upd.Set) != 2 || upd.Where == nil {
		t.Fatalf("update = %#v", upd)
	}

	stmt, err = Parse("delete from R where A = 'a1'")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*Delete).Where == nil {
		t.Error("delete where lost")
	}

	stmt, err = Parse("drop table if exists R")
	if err != nil {
		t.Fatal(err)
	}
	if d := stmt.(*Drop); !d.IfExists || d.Name != "R" {
		t.Errorf("drop = %#v", d)
	}
}

func TestParseScript(t *testing.T) {
	stmts, err := ParseScript(`
		-- load figure 1
		create table R (A, B, C, D);
		insert into R values ('a1', 10, 'c1', 2);
		select * from R;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("script stmts = %d", len(stmts))
	}
}

func TestParseScriptMissingSemicolon(t *testing.T) {
	if _, err := ParseScript("select 1 from r select 2 from r"); err == nil {
		t.Error("missing semicolon must error")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"frobnicate",
		"select",
		"select * frm R",
		"select * from R where",
		"select * from R repair by A",
		"select * from R choice E",
		"create table",
		"create index on R",
		"insert R values (1)",
		"select * from R group by",
		"select * from R limit x",
		"select * from R where a in ()",
		"select * from R; garbage",
		"select * from R where (a = 1",
		"drop R",
		"select * from R where a = 'unterminated",
		"select * from R order by",
		"select * from R where where a = 1",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

func TestDuplicateClauses(t *testing.T) {
	bad := []string{
		"select * from R where a=1 where b=2",
		"select * from R assert a=1 assert b=2",
		"select * from R repair by key A repair by key B",
		"select * from R choice of A choice of B",
		"select * from R limit 1 limit 2",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should reject duplicate clause", in)
		}
	}
}

func TestHasISQL(t *testing.T) {
	plain := parseSelect(t, "select a from R where exists(select 1 from S)")
	if plain.HasISQL() {
		t.Error("plain SQL flagged as I-SQL")
	}
	for _, in := range []string{
		"select possible a from R",
		"select certain a from R",
		"select conf from R",
		"select a from R repair by key a",
		"select a from R choice of a",
		"select a from R assert a = 1",
		"select a from R group worlds by (select b from S)",
		"select a from R union select possible b from S",
	} {
		if !parseSelect(t, in).HasISQL() {
			t.Errorf("%q should be flagged as I-SQL", in)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	// Statement → String → Parse must be stable for representative inputs.
	inputs := []string{
		"select * from I where A = 'a3'",
		"create table I as select A, B, C from R repair by key A weight D",
		"select possible sum(B) from I",
		"select certain E from S choice of C",
		"select conf from I where 50 > (select sum(B) from I)",
		"create view Valid as select * from I assert exists (select * from I where Gender = 'cow' and Pos = 'b')",
		`create table S as select SSN, TEL, SSN as "SSN'" from R union select SSN, TEL, TEL as "SSN'" from R`,
		"insert into R (A, B) values ('a1', 10)",
		"update R set B = 2 where A = 'a1'",
		"delete from R where A = 'a1'",
		"drop table if exists R",
		"select a, count(*) from R group by a having count(*) > 1 order by a desc limit 3",
	}
	for _, in := range inputs {
		s1, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		rendered := s1.String()
		s2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", rendered, err)
		}
		if s2.String() != rendered {
			t.Errorf("round trip unstable:\n1: %s\n2: %s", rendered, s2.String())
		}
	}
}

func TestAliasWithoutAs(t *testing.T) {
	s := parseSelect(t, "select R.A myalias from R myR where myR.A = 1")
	if s.Items[0].Alias != "myalias" {
		t.Errorf("item alias = %q", s.Items[0].Alias)
	}
	if s.From[0].Alias != "myR" || s.From[0].Binding() != "myR" {
		t.Errorf("table alias = %v", s.From[0])
	}
	if (TableRef{Name: "R"}).Binding() != "R" {
		t.Error("binding without alias should be the name")
	}
}

func TestKeywordsNotSwallowedAsAliases(t *testing.T) {
	s := parseSelect(t, "select A from R where A = 1")
	if s.From[0].Alias != "" {
		t.Errorf("WHERE swallowed as alias: %v", s.From[0])
	}
	if s.Where == nil {
		t.Error("where missing")
	}
}

func TestRenderingContainsClauses(t *testing.T) {
	s := parseSelect(t, `select possible a from R repair by key a weight b assert a = 1 group worlds by (select b from R) order by a limit 1`)
	out := s.String()
	for _, frag := range []string{"POSSIBLE", "REPAIR BY KEY", "WEIGHT", "ASSERT", "GROUP WORLDS BY", "ORDER BY", "LIMIT"} {
		if !strings.Contains(out, frag) {
			t.Errorf("rendering %q missing %q", out, frag)
		}
	}
}

// TestParseStandaloneAssert: ASSERT is a statement of the grammar — across
// lines, behind a comment, under EXPLAIN and inside a script — where the
// compact backend used to sniff the statement text for it.
func TestParseStandaloneAssert(t *testing.T) {
	for _, in := range []string{
		"assert exists (select * from R)",
		"ASSERT\n exists (select * from R);",
		"-- note\nassert exists (select * from R)",
	} {
		stmt, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		as, ok := stmt.(*Assert)
		if !ok {
			t.Fatalf("Parse(%q) = %T, want *Assert", in, stmt)
		}
		if got := as.String(); got != "ASSERT EXISTS (SELECT * FROM R)" {
			t.Errorf("String() = %q", got)
		}
		if _, err := Parse(as.String()); err != nil {
			t.Errorf("re-parse of %q: %v", as, err)
		}
	}
	stmt, err := Parse("explain analyze assert not exists (select * from R where A = 1)")
	if err != nil {
		t.Fatal(err)
	}
	if ex := stmt.(*Explain); !ex.Analyze {
		t.Error("ANALYZE lost")
	} else if _, ok := ex.Stmt.(*Assert); !ok {
		t.Errorf("EXPLAIN inner = %T, want *Assert", ex.Stmt)
	}
	stmts, err := ParseScript(`
		-- leading comment
		create table R (A);
		insert into R values ('x;y'); -- semicolon in a literal
		assert exists (select * from R);
		-- trailing comment
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("script parsed into %d statements %q, want 3", len(stmts), stmts)
	}
	if _, ok := stmts[2].(*Assert); !ok {
		t.Errorf("statement 3 = %T, want *Assert", stmts[2])
	}
	for _, bad := range []string{"assert", "assert ;", "assert exists (select * from R) extra"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) must fail", bad)
		}
	}
}

func TestParseExplain(t *testing.T) {
	stmt, err := Parse("explain select count(*) from R")
	if err != nil {
		t.Fatal(err)
	}
	ex := stmt.(*Explain)
	if ex.Analyze {
		t.Error("plain EXPLAIN parsed as ANALYZE")
	}
	if _, ok := ex.Stmt.(*SelectStmt); !ok {
		t.Fatalf("inner stmt = %T", ex.Stmt)
	}
	if got := ex.String(); got != "EXPLAIN SELECT count(*) FROM R" {
		t.Errorf("String() = %q", got)
	}

	stmt, err = Parse("explain analyze update R set B = 1 where A = 'a1'")
	if err != nil {
		t.Fatal(err)
	}
	ex = stmt.(*Explain)
	if !ex.Analyze {
		t.Error("ANALYZE flag lost")
	}
	if _, ok := ex.Stmt.(*Update); !ok {
		t.Fatalf("inner stmt = %T", ex.Stmt)
	}

	for _, bad := range []string{
		"explain",
		"explain analyze",
		"explain explain select * from R",
		"explain analyze explain select * from R",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) must error", bad)
		}
	}
}
