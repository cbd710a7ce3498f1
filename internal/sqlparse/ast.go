// Package sqlparse defines the abstract syntax tree of the SQL / I-SQL
// dialect and a recursive-descent parser producing it.
//
// The dialect covers everything the paper's examples use: SELECT with
// multi-table FROM and aliases, WHERE with EXISTS / IN / scalar subqueries,
// aggregates with GROUP BY and HAVING, UNION [ALL], ORDER BY and LIMIT, the
// DDL/DML needed to load the figures (CREATE TABLE, INSERT, UPDATE, DELETE,
// DROP), and the I-SQL extensions: the POSSIBLE / CERTAIN quantifiers and
// the CONF pseudo-aggregate in the select list, and the trailing
// REPAIR BY KEY … WEIGHT, CHOICE OF … WEIGHT, ASSERT and GROUP WORLDS BY
// clauses.
//
// Walk (walk.go) is the one walk over statements and their expressions:
// which clauses of a statement and which fields of an expression are its
// children is written there once, and every traversal of the tree is a
// visitor of it. A new expression kind is added to Walk once.
package sqlparse

import (
	"fmt"
	"strings"

	"maybms/internal/value"
)

// Expr is an AST expression node.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// ColumnRef is a possibly qualified column reference.
type ColumnRef struct {
	Qualifier string
	Name      string
}

func (ColumnRef) exprNode() {}

func (e ColumnRef) String() string {
	if e.Qualifier == "" {
		return quoteIdentIfNeeded(e.Name)
	}
	return quoteIdentIfNeeded(e.Qualifier) + "." + quoteIdentIfNeeded(e.Name)
}

// Literal is a constant.
type Literal struct{ Value value.Value }

func (Literal) exprNode() {}

func (e Literal) String() string { return e.Value.SQL() }

// BinaryExpr covers comparisons, arithmetic and AND/OR, identified by the
// operator spelling (upper-case for keywords): = <> < <= > >= + - * / % AND OR.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

func (BinaryExpr) exprNode() {}

func (e BinaryExpr) String() string { return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R) }

// UnaryExpr covers NOT and unary minus.
type UnaryExpr struct {
	Op string // "NOT" or "-"
	E  Expr
}

func (UnaryExpr) exprNode() {}

func (e UnaryExpr) String() string {
	if _, ok := e.E.(ExistsExpr); ok {
		// NOT EXISTS would reparse as one negated ExistsExpr.
		return fmt.Sprintf("(%s (%s))", e.Op, e.E)
	}
	return fmt.Sprintf("(%s %s)", e.Op, e.E)
}

// IsNullExpr is expr IS [NOT] NULL.
type IsNullExpr struct {
	E       Expr
	Negated bool
}

func (IsNullExpr) exprNode() {}

func (e IsNullExpr) String() string {
	if e.Negated {
		return fmt.Sprintf("(%s IS NOT NULL)", e.E)
	}
	return fmt.Sprintf("(%s IS NULL)", e.E)
}

// ExistsExpr is [NOT] EXISTS (subquery).
type ExistsExpr struct {
	Sub     *SelectStmt
	Negated bool
}

func (ExistsExpr) exprNode() {}

func (e ExistsExpr) String() string {
	if e.Negated {
		return fmt.Sprintf("NOT EXISTS (%s)", e.Sub)
	}
	return fmt.Sprintf("EXISTS (%s)", e.Sub)
}

// InExpr is expr [NOT] IN (list) or expr [NOT] IN (subquery).
type InExpr struct {
	Left    Expr
	List    []Expr
	Sub     *SelectStmt
	Negated bool
}

func (InExpr) exprNode() {}

func (e InExpr) String() string {
	neg := ""
	if e.Negated {
		neg = "NOT "
	}
	if e.Sub != nil {
		return fmt.Sprintf("(%s %sIN (%s))", e.Left, neg, e.Sub)
	}
	parts := make([]string, len(e.List))
	for i, x := range e.List {
		parts[i] = x.String()
	}
	return fmt.Sprintf("(%s %sIN (%s))", e.Left, neg, strings.Join(parts, ", "))
}

// SubqueryExpr is a scalar subquery used as a value.
type SubqueryExpr struct{ Sub *SelectStmt }

func (SubqueryExpr) exprNode() {}

func (e SubqueryExpr) String() string { return fmt.Sprintf("(%s)", e.Sub) }

// FuncCall is a function application; in this dialect only the aggregates
// (count, sum, avg, min, max) exist. Star marks count(*).
type FuncCall struct {
	Name     string
	Star     bool
	Distinct bool
	Args     []Expr
}

func (FuncCall) exprNode() {}

func (e FuncCall) String() string {
	if e.Star {
		return e.Name + "(*)"
	}
	d := ""
	if e.Distinct {
		d = "DISTINCT "
	}
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s%s)", e.Name, d, strings.Join(parts, ", "))
}

// Star is the * or qualifier.* select item.
type Star struct{ Qualifier string }

func (Star) exprNode() {}

func (e Star) String() string {
	if e.Qualifier == "" {
		return "*"
	}
	return e.Qualifier + ".*"
}

// ConfExpr is the I-SQL CONF pseudo-aggregate appearing in a select list:
// the sum of probabilities of the worlds whose answer contains the tuple.
// With Approx set (APPROX CONF) the engine may substitute a seeded
// Monte-Carlo estimate when the exact computation exceeds its merge budget.
type ConfExpr struct {
	Approx bool
}

func (ConfExpr) exprNode() {}

func (e ConfExpr) String() string {
	if e.Approx {
		return "approx conf"
	}
	return "conf"
}

// Quantifier is the optional world-closing quantifier after SELECT.
type Quantifier uint8

// The quantifiers.
const (
	QuantNone Quantifier = iota
	QuantPossible
	QuantCertain
)

// String renders the quantifier keyword (empty for none).
func (q Quantifier) String() string {
	switch q {
	case QuantPossible:
		return "POSSIBLE"
	case QuantCertain:
		return "CERTAIN"
	default:
		return ""
	}
}

// SelectItem is one select-list entry.
type SelectItem struct {
	Expr  Expr
	Alias string
}

func (it SelectItem) String() string {
	if it.Alias != "" {
		return fmt.Sprintf("%s AS %s", it.Expr, quoteIdentIfNeeded(it.Alias))
	}
	return it.Expr.String()
}

// TableRef is a FROM-clause entry: a named table or view, optionally
// aliased.
type TableRef struct {
	Name  string
	Alias string
}

func (tr TableRef) String() string {
	if tr.Alias != "" {
		return quoteIdentIfNeeded(tr.Name) + " " + quoteIdentIfNeeded(tr.Alias)
	}
	return quoteIdentIfNeeded(tr.Name)
}

// Binding returns the name the table is known by inside the query.
func (tr TableRef) Binding() string {
	if tr.Alias != "" {
		return tr.Alias
	}
	return tr.Name
}

// RepairClause is REPAIR BY KEY cols [WEIGHT col].
type RepairClause struct {
	Key    []string
	Weight string // empty when unweighted
}

func (rc RepairClause) String() string {
	s := "REPAIR BY KEY " + quoteIdents(rc.Key)
	if rc.Weight != "" {
		s += " WEIGHT " + quoteIdentIfNeeded(rc.Weight)
	}
	return s
}

// ChoiceClause is CHOICE OF cols [WEIGHT col].
type ChoiceClause struct {
	Attrs  []string
	Weight string
}

func (cc ChoiceClause) String() string {
	s := "CHOICE OF " + quoteIdents(cc.Attrs)
	if cc.Weight != "" {
		s += " WEIGHT " + quoteIdentIfNeeded(cc.Weight)
	}
	return s
}

// OrderItem is one ORDER BY entry; either a column reference or a 1-based
// select-list position.
type OrderItem struct {
	Column   *ColumnRef
	Position int // 1-based; 0 when Column is set
	Desc     bool
}

func (oi OrderItem) String() string {
	var s string
	if oi.Column != nil {
		s = oi.Column.String()
	} else {
		s = fmt.Sprintf("%d", oi.Position)
	}
	if oi.Desc {
		s += " DESC"
	}
	return s
}

// Statement is any parsed statement.
type Statement interface {
	fmt.Stringer
	stmtNode()
}

// SelectStmt is a (possibly I-SQL-extended) SELECT.
type SelectStmt struct {
	Quantifier  Quantifier
	Distinct    bool
	Items       []SelectItem
	From        []TableRef
	Where       Expr
	GroupBy     []ColumnRef
	Having      Expr
	Repair      *RepairClause
	Choice      *ChoiceClause
	Assert      Expr
	GroupWorlds *SelectStmt
	OrderBy     []OrderItem
	Limit       int // -1 when absent
	// Union chains another SELECT with UNION (set) or UNION ALL semantics.
	Union    *SelectStmt
	UnionAll bool
}

func (*SelectStmt) stmtNode() {}

func (s *SelectStmt) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q := s.Quantifier.String(); q != "" {
		b.WriteString(q + " ")
	}
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	parts := make([]string, len(s.Items))
	for i, it := range s.Items {
		parts[i] = it.String()
	}
	b.WriteString(strings.Join(parts, ", "))
	if len(s.From) > 0 {
		froms := make([]string, len(s.From))
		for i, f := range s.From {
			froms[i] = f.String()
		}
		b.WriteString(" FROM " + strings.Join(froms, ", "))
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		cols := make([]string, len(s.GroupBy))
		for i, c := range s.GroupBy {
			cols[i] = c.String()
		}
		b.WriteString(" GROUP BY " + strings.Join(cols, ", "))
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + s.Having.String())
	}
	if s.Repair != nil {
		b.WriteString(" " + s.Repair.String())
	}
	if s.Choice != nil {
		b.WriteString(" " + s.Choice.String())
	}
	if s.Assert != nil {
		b.WriteString(" ASSERT " + s.Assert.String())
	}
	if s.GroupWorlds != nil {
		b.WriteString(" GROUP WORLDS BY (" + s.GroupWorlds.String() + ")")
	}
	if len(s.OrderBy) > 0 {
		items := make([]string, len(s.OrderBy))
		for i, oi := range s.OrderBy {
			items[i] = oi.String()
		}
		b.WriteString(" ORDER BY " + strings.Join(items, ", "))
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	if s.Union != nil {
		if s.UnionAll {
			b.WriteString(" UNION ALL " + s.Union.String())
		} else {
			b.WriteString(" UNION " + s.Union.String())
		}
	}
	return b.String()
}

// HasISQL reports whether the statement (or a union arm) uses any construct
// beyond plain SQL: quantifiers, conf, repair, choice, assert or
// group-worlds-by. Subqueries are not inspected: I-SQL constructs are only
// legal at the top level.
func (s *SelectStmt) HasISQL() bool {
	for cur := s; cur != nil; cur = cur.Union {
		if cur.Quantifier != QuantNone || cur.Repair != nil || cur.Choice != nil ||
			cur.Assert != nil || cur.GroupWorlds != nil {
			return true
		}
		for _, it := range cur.Items {
			if _, ok := it.Expr.(ConfExpr); ok {
				return true
			}
		}
	}
	return false
}

// OrdersAnswer reports whether the statement's ORDER BY orders its whole
// per-world answer: the top-level block carries it (beside a UNION it sorts
// one arm). A closure answers a set whatever this says.
func (s *SelectStmt) OrdersAnswer() bool { return len(s.OrderBy) > 0 && s.Union == nil }

// CreateTableAs is CREATE TABLE name AS select.
type CreateTableAs struct {
	Name  string
	Query *SelectStmt
}

func (*CreateTableAs) stmtNode() {}

func (s *CreateTableAs) String() string {
	return fmt.Sprintf("CREATE TABLE %s AS %s", quoteIdentIfNeeded(s.Name), s.Query)
}

// CreateView is CREATE VIEW name AS select. Views are materialized at
// creation time (snapshot semantics; see DESIGN.md).
type CreateView struct {
	Name  string
	Query *SelectStmt
}

func (*CreateView) stmtNode() {}

func (s *CreateView) String() string {
	return fmt.Sprintf("CREATE VIEW %s AS %s", quoteIdentIfNeeded(s.Name), s.Query)
}

// CreateTable is CREATE TABLE name (col, …, [PRIMARY KEY (cols)]).
type CreateTable struct {
	Name       string
	Columns    []string
	PrimaryKey []string
}

func (*CreateTable) stmtNode() {}

func (s *CreateTable) String() string {
	cols := make([]string, 0, len(s.Columns)+1)
	for _, c := range s.Columns {
		cols = append(cols, quoteIdentIfNeeded(c))
	}
	if len(s.PrimaryKey) > 0 {
		cols = append(cols, "PRIMARY KEY ("+quoteIdents(s.PrimaryKey)+")")
	}
	return fmt.Sprintf("CREATE TABLE %s (%s)", quoteIdentIfNeeded(s.Name), strings.Join(cols, ", "))
}

// Insert is INSERT INTO name [(cols)] VALUES (…), (…).
type Insert struct {
	Table   string
	Columns []string
	Rows    [][]Expr
}

func (*Insert) stmtNode() {}

func (s *Insert) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "INSERT INTO %s", quoteIdentIfNeeded(s.Table))
	if len(s.Columns) > 0 {
		b.WriteString(" (" + quoteIdents(s.Columns) + ")")
	}
	b.WriteString(" VALUES ")
	rows := make([]string, len(s.Rows))
	for i, row := range s.Rows {
		vals := make([]string, len(row))
		for j, v := range row {
			vals[j] = v.String()
		}
		rows[i] = "(" + strings.Join(vals, ", ") + ")"
	}
	b.WriteString(strings.Join(rows, ", "))
	return b.String()
}

// SetClause is one column assignment in UPDATE.
type SetClause struct {
	Column string
	Value  Expr
}

// Update is UPDATE name SET col = expr, … [WHERE cond].
type Update struct {
	Table string
	Set   []SetClause
	Where Expr
}

func (*Update) stmtNode() {}

func (s *Update) String() string {
	sets := make([]string, len(s.Set))
	for i, sc := range s.Set {
		sets[i] = fmt.Sprintf("%s = %s", quoteIdentIfNeeded(sc.Column), sc.Value)
	}
	out := fmt.Sprintf("UPDATE %s SET %s", quoteIdentIfNeeded(s.Table), strings.Join(sets, ", "))
	if s.Where != nil {
		out += " WHERE " + s.Where.String()
	}
	return out
}

// Delete is DELETE FROM name [WHERE cond].
type Delete struct {
	Table string
	Where Expr
}

func (*Delete) stmtNode() {}

func (s *Delete) String() string {
	out := "DELETE FROM " + quoteIdentIfNeeded(s.Table)
	if s.Where != nil {
		out += " WHERE " + s.Where.String()
	}
	return out
}

// Drop is DROP TABLE|VIEW [IF EXISTS] name.
type Drop struct {
	Name     string
	IfExists bool
}

func (*Drop) stmtNode() {}

func (s *Drop) String() string {
	if s.IfExists {
		return "DROP TABLE IF EXISTS " + quoteIdentIfNeeded(s.Name)
	}
	return "DROP TABLE " + quoteIdentIfNeeded(s.Name)
}

// Import is the bulk CSV ingestion statement:
//
//	IMPORT INTO t FROM 'path' [NULLS AS CHOICE] [REPAIR KEY (cols) [WEIGHT col]]
//
// (COPY t FROM 'path' … parses to the same node). The file's header row
// becomes the schema and fields are type-inferred with value.Parse. The
// optional clauses compile uncertainty at load time: NULLS AS CHOICE turns
// every NULL-bearing row into a choice component over the active-domain
// fills of its NULL cells, and REPAIR KEY turns rows conflicting on the key
// into repair-key alternatives (weighted by the WEIGHT column, else
// uniform).
type Import struct {
	Table       string
	Path        string
	NullsChoice bool
	RepairKey   []string
	Weight      string // empty when unweighted
}

func (*Import) stmtNode() {}

func (s *Import) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "IMPORT INTO %s FROM '%s'", quoteIdentIfNeeded(s.Table), strings.ReplaceAll(s.Path, "'", "''"))
	if s.NullsChoice {
		b.WriteString(" NULLS AS CHOICE")
	}
	if len(s.RepairKey) > 0 {
		b.WriteString(" REPAIR KEY (" + quoteIdents(s.RepairKey) + ")")
	}
	if s.Weight != "" {
		b.WriteString(" WEIGHT " + quoteIdentIfNeeded(s.Weight))
	}
	return b.String()
}

// Assert is the standalone ASSERT <condition>: keep the worlds in which the
// condition holds and renormalize — the statement form of the SELECT's assert
// clause, which the compact backend applies to the decomposition itself.
type Assert struct {
	Cond Expr
}

func (*Assert) stmtNode() {}

func (s *Assert) String() string { return "ASSERT " + s.Cond.String() }

// Explain is EXPLAIN [ANALYZE] <stmt>: render the inner statement's plan
// tree with routing annotations; with ANALYZE, execute it for real and
// append the traced timings and cardinalities. Note EXPLAIN ANALYZE of a
// DML statement performs its side effects, matching PostgreSQL.
type Explain struct {
	Analyze bool
	Stmt    Statement
}

func (*Explain) stmtNode() {}

func (s *Explain) String() string {
	out := "EXPLAIN "
	if s.Analyze {
		out += "ANALYZE "
	}
	return out + s.Stmt.String()
}

// quoteIdentIfNeeded renders an identifier so that it parses back to itself
// (statements key the plan cache by their rendering): bare when it is an
// ASCII letter or '_' then ASCII letters, digits and '_', and spells no
// keyword; double-quoted otherwise. A byte loop: it runs on every identifier.
func quoteIdentIfNeeded(s string) string {
	plain := s != "" && !('0' <= s[0] && s[0] <= '9')
	for i := 0; plain && i < len(s); i++ {
		c := s[i]
		plain = c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
	}
	if _, kw := keyword(s); plain && !kw {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// quoteIdents renders an identifier list, comma-separated.
func quoteIdents(names []string) string {
	quoted := make([]string, len(names))
	for i, n := range names {
		quoted[i] = quoteIdentIfNeeded(n)
	}
	return strings.Join(quoted, ", ")
}
