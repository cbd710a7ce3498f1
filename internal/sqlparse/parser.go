package sqlparse

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"maybms/internal/sqllex"
	"maybms/internal/value"
)

// ErrParse is wrapped by all parse errors.
var ErrParse = errors.New("parse error")

// keywords are the words the parser matches, lower-case. No function may be
// named by one, and String quotes an identifier spelling one. The ones
// mapped to true terminate a FROM-clause alias or select item, so bare
// aliases never swallow the next clause.
var keywords = func() map[string]bool {
	m := map[string]bool{}
	for _, kw := range strings.Fields(`all analyze and approx asc by certain conf copy create delete
		desc distinct drop exists explain false if import in insert into is key not null nulls of
		or possible primary select set table true update values view weight worlds`) {
		m[kw] = false
	}
	for _, kw := range strings.Fields("from where group having order union repair choice assert limit on as") {
		m[kw] = true
	}
	return m
}()

// maxKeywordLen is the length of the longest keyword.
const maxKeywordLen = 8

// keyword looks s up in keywords, ignoring ASCII case (the case
// Token.IsKeyword ignores): ok reports a keyword, clause one that ends an
// alias. It allocates nothing.
func keyword(s string) (clause, ok bool) {
	if len(s) > maxKeywordLen {
		return false, false
	}
	var low [maxKeywordLen]byte
	for i := 0; i < len(s); i++ {
		low[i] = byte(lowerASCII(rune(s[i])))
	}
	clause, ok = keywords[string(low[:len(s)])]
	return clause, ok
}

// lowerASCII lower-cases an ASCII letter and keeps every other rune, so a
// lowered identifier still lexes as the one identifier it was.
func lowerASCII(r rune) rune {
	if 'A' <= r && r <= 'Z' {
		return r + 'a' - 'A'
	}
	return r
}

// Parse parses a single statement; trailing semicolons are allowed, and the
// whole input must be consumed.
func Parse(input string) (Statement, error) {
	p, err := newParser(input)
	if err != nil {
		return nil, err
	}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	for p.tz.MatchSymbol(";") {
	}
	if !p.tz.AtEOF() {
		return nil, p.errorf("unexpected %s after statement", p.tz.Cur())
	}
	return stmt, nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(input string) ([]Statement, error) {
	p, err := newParser(input)
	if err != nil {
		return nil, err
	}
	var stmts []Statement
	for {
		for p.tz.MatchSymbol(";") {
		}
		if p.tz.AtEOF() {
			return stmts, nil
		}
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, stmt)
		if !p.tz.Cur().IsSymbol(";") && !p.tz.AtEOF() {
			return nil, p.errorf("expected ';' between statements, found %s", p.tz.Cur())
		}
	}
}

type parser struct {
	tz *sqllex.Tokenizer
}

func newParser(input string) (*parser, error) {
	tz, err := sqllex.NewTokenizer(input)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrParse, err)
	}
	return &parser{tz: tz}, nil
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("%w: %s (at offset %d)", ErrParse, fmt.Sprintf(format, args...), p.tz.Cur().Pos)
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.tz.Cur().IsKeyword("select"):
		return p.parseSelect()
	case p.tz.Cur().IsKeyword("create"):
		return p.parseCreate()
	case p.tz.Cur().IsKeyword("insert"):
		return p.parseInsert()
	case p.tz.Cur().IsKeyword("update"):
		return p.parseUpdate()
	case p.tz.Cur().IsKeyword("delete"):
		return p.parseDelete()
	case p.tz.Cur().IsKeyword("drop"):
		return p.parseDrop()
	case p.tz.Cur().IsKeyword("explain"):
		return p.parseExplain()
	case p.tz.Cur().IsKeyword("import"), p.tz.Cur().IsKeyword("copy"):
		return p.parseImport()
	case p.tz.Cur().IsKeyword("assert"):
		p.tz.Advance()
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &Assert{Cond: cond}, nil
	default:
		return nil, p.errorf("expected a statement, found %s", p.tz.Cur())
	}
}

// parseImport parses the bulk ingestion statement in both spellings:
//
//	IMPORT INTO t FROM 'path' [NULLS AS CHOICE] [REPAIR KEY (cols) [WEIGHT col]]
//	COPY t FROM 'path'        [same options]
func (p *parser) parseImport() (*Import, error) {
	isCopy := p.tz.Cur().IsKeyword("copy")
	p.tz.Advance() // import | copy
	if !isCopy {
		if err := p.tz.ExpectKeyword("into"); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrParse, err)
		}
	}
	name, err := p.tz.ExpectIdent()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrParse, err)
	}
	if err := p.tz.ExpectKeyword("from"); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrParse, err)
	}
	tok := p.tz.Cur()
	if tok.Kind != sqllex.String {
		return nil, p.errorf("expected a quoted file path, found %s", tok)
	}
	p.tz.Advance()
	st := &Import{Table: name, Path: tok.Text}
	for {
		switch {
		case p.tz.Cur().IsKeyword("nulls"):
			if st.NullsChoice {
				return nil, p.errorf("duplicate NULLS AS CHOICE clause")
			}
			p.tz.Advance()
			if err := p.tz.ExpectKeyword("as"); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrParse, err)
			}
			if err := p.tz.ExpectKeyword("choice"); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrParse, err)
			}
			st.NullsChoice = true
		case p.tz.Cur().IsKeyword("repair"):
			if len(st.RepairKey) > 0 {
				return nil, p.errorf("duplicate REPAIR KEY clause")
			}
			p.tz.Advance()
			if err := p.tz.ExpectKeyword("key"); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrParse, err)
			}
			if err := p.tz.ExpectSymbol("("); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrParse, err)
			}
			cols, err := p.parseIdentList()
			if err != nil {
				return nil, err
			}
			if err := p.tz.ExpectSymbol(")"); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrParse, err)
			}
			st.RepairKey = cols
			if p.tz.MatchKeyword("weight") {
				w, err := p.tz.ExpectIdent()
				if err != nil {
					return nil, fmt.Errorf("%w: %v", ErrParse, err)
				}
				st.Weight = w
			}
		default:
			return st, nil
		}
	}
}

// parseExplain parses EXPLAIN [ANALYZE] <stmt>. Nested EXPLAIN is rejected.
func (p *parser) parseExplain() (*Explain, error) {
	if err := p.tz.ExpectKeyword("explain"); err != nil {
		return nil, p.errorf("%v", err)
	}
	analyze := p.tz.MatchKeyword("analyze")
	if p.tz.Cur().IsKeyword("explain") {
		return nil, p.errorf("EXPLAIN cannot be nested")
	}
	inner, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	return &Explain{Analyze: analyze, Stmt: inner}, nil
}

// parseSelect parses a full SELECT including I-SQL clauses and UNION chains.
func (p *parser) parseSelect() (*SelectStmt, error) {
	stmt, err := p.parseSelectCore()
	if err != nil {
		return nil, err
	}
	if p.tz.MatchKeyword("union") {
		all := p.tz.MatchKeyword("all")
		rest, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		stmt.Union = rest
		stmt.UnionAll = all
	}
	return stmt, nil
}

func (p *parser) parseSelectCore() (*SelectStmt, error) {
	if err := p.tz.ExpectKeyword("select"); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrParse, err)
	}
	stmt := &SelectStmt{Limit: -1}

	switch {
	case p.tz.MatchKeyword("possible"):
		stmt.Quantifier = QuantPossible
	case p.tz.MatchKeyword("certain"):
		stmt.Quantifier = QuantCertain
	}
	if p.tz.MatchKeyword("distinct") {
		stmt.Distinct = true
	}

	items, err := p.parseSelectItems()
	if err != nil {
		return nil, err
	}
	stmt.Items = items

	if p.tz.MatchKeyword("from") {
		from, err := p.parseFromList()
		if err != nil {
			return nil, err
		}
		stmt.From = from
	}

	// Trailing clauses may appear once each; WHERE/GROUP BY/HAVING are
	// accepted in flexible order relative to the I-SQL clauses, matching
	// the liberal syntax of the paper's examples.
	for {
		switch {
		case p.tz.Cur().IsKeyword("where"):
			if stmt.Where != nil {
				return nil, p.errorf("duplicate WHERE clause")
			}
			p.tz.Advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.Where = e
		case p.tz.Cur().IsKeyword("group") && p.tz.Peek(1).IsKeyword("worlds"):
			if stmt.GroupWorlds != nil {
				return nil, p.errorf("duplicate GROUP WORLDS BY clause")
			}
			p.tz.Advance()
			p.tz.Advance()
			if err := p.tz.ExpectKeyword("by"); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrParse, err)
			}
			if err := p.tz.ExpectSymbol("("); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrParse, err)
			}
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.tz.ExpectSymbol(")"); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrParse, err)
			}
			stmt.GroupWorlds = sub
		case p.tz.Cur().IsKeyword("group"):
			if len(stmt.GroupBy) > 0 {
				return nil, p.errorf("duplicate GROUP BY clause")
			}
			p.tz.Advance()
			if err := p.tz.ExpectKeyword("by"); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrParse, err)
			}
			cols, err := p.parseColumnRefList()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = cols
		case p.tz.Cur().IsKeyword("having"):
			if stmt.Having != nil {
				return nil, p.errorf("duplicate HAVING clause")
			}
			p.tz.Advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.Having = e
		case p.tz.Cur().IsKeyword("repair"):
			if stmt.Repair != nil {
				return nil, p.errorf("duplicate REPAIR BY KEY clause")
			}
			p.tz.Advance()
			if err := p.tz.ExpectKeyword("by"); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrParse, err)
			}
			if err := p.tz.ExpectKeyword("key"); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrParse, err)
			}
			cols, err := p.parseIdentList()
			if err != nil {
				return nil, err
			}
			rc := &RepairClause{Key: cols}
			if p.tz.MatchKeyword("weight") {
				w, err := p.tz.ExpectIdent()
				if err != nil {
					return nil, fmt.Errorf("%w: %v", ErrParse, err)
				}
				rc.Weight = w
			}
			stmt.Repair = rc
		case p.tz.Cur().IsKeyword("choice"):
			if stmt.Choice != nil {
				return nil, p.errorf("duplicate CHOICE OF clause")
			}
			p.tz.Advance()
			if err := p.tz.ExpectKeyword("of"); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrParse, err)
			}
			cols, err := p.parseIdentList()
			if err != nil {
				return nil, err
			}
			cc := &ChoiceClause{Attrs: cols}
			if p.tz.MatchKeyword("weight") {
				w, err := p.tz.ExpectIdent()
				if err != nil {
					return nil, fmt.Errorf("%w: %v", ErrParse, err)
				}
				cc.Weight = w
			}
			stmt.Choice = cc
		case p.tz.Cur().IsKeyword("assert"):
			if stmt.Assert != nil {
				return nil, p.errorf("duplicate ASSERT clause")
			}
			p.tz.Advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.Assert = e
		case p.tz.Cur().IsKeyword("order"):
			if len(stmt.OrderBy) > 0 {
				return nil, p.errorf("duplicate ORDER BY clause")
			}
			p.tz.Advance()
			if err := p.tz.ExpectKeyword("by"); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrParse, err)
			}
			items, err := p.parseOrderBy()
			if err != nil {
				return nil, err
			}
			stmt.OrderBy = items
		case p.tz.Cur().IsKeyword("limit"):
			if stmt.Limit >= 0 {
				return nil, p.errorf("duplicate LIMIT clause")
			}
			p.tz.Advance()
			tok := p.tz.Cur()
			if tok.Kind != sqllex.Number {
				return nil, p.errorf("expected LIMIT count, found %s", tok)
			}
			n, err := strconv.Atoi(tok.Text)
			if err != nil || n < 0 {
				return nil, p.errorf("invalid LIMIT count %q", tok.Text)
			}
			p.tz.Advance()
			stmt.Limit = n
		default:
			return stmt, nil
		}
	}
}

func (p *parser) parseSelectItems() ([]SelectItem, error) {
	var items []SelectItem
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		items = append(items, item)
		if !p.tz.MatchSymbol(",") {
			return items, nil
		}
	}
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	// "*" and "q.*"
	if p.tz.Cur().IsSymbol("*") {
		p.tz.Advance()
		return SelectItem{Expr: Star{}}, nil
	}
	if p.tz.Cur().Kind == sqllex.Ident && p.tz.Peek(1).IsSymbol(".") && p.tz.Peek(2).IsSymbol("*") {
		q := p.tz.Advance().Text
		p.tz.Advance()
		p.tz.Advance()
		return SelectItem{Expr: Star{Qualifier: q}}, nil
	}
	// APPROX CONF pseudo-aggregate (Monte-Carlo escape hatch).
	if p.tz.Cur().IsKeyword("approx") && p.tz.Peek(1).IsKeyword("conf") &&
		!p.tz.Peek(2).IsSymbol("(") && !p.tz.Peek(2).IsSymbol(".") {
		p.tz.Advance()
		p.tz.Advance()
		item := SelectItem{Expr: ConfExpr{Approx: true}}
		if alias, ok, err := p.parseOptionalAlias(); err != nil {
			return SelectItem{}, err
		} else if ok {
			item.Alias = alias
		}
		return item, nil
	}
	// CONF pseudo-aggregate.
	if p.tz.Cur().IsKeyword("conf") && !p.tz.Peek(1).IsSymbol("(") && !p.tz.Peek(1).IsSymbol(".") {
		p.tz.Advance()
		item := SelectItem{Expr: ConfExpr{}}
		if alias, ok, err := p.parseOptionalAlias(); err != nil {
			return SelectItem{}, err
		} else if ok {
			item.Alias = alias
		}
		return item, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if alias, ok, err := p.parseOptionalAlias(); err != nil {
		return SelectItem{}, err
	} else if ok {
		item.Alias = alias
	}
	return item, nil
}

func (p *parser) parseOptionalAlias() (string, bool, error) {
	if p.tz.MatchKeyword("as") {
		name, err := p.tz.ExpectIdent()
		if err != nil {
			return "", false, fmt.Errorf("%w: %v", ErrParse, err)
		}
		return name, true, nil
	}
	tok := p.tz.Cur()
	if clause, _ := keyword(tok.Text); tok.Kind == sqllex.QuotedIdent || tok.Kind == sqllex.Ident && !clause {
		p.tz.Advance()
		return tok.Text, true, nil
	}
	return "", false, nil
}

func (p *parser) parseFromList() ([]TableRef, error) {
	var out []TableRef
	for {
		name, err := p.tz.ExpectIdent()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrParse, err)
		}
		tr := TableRef{Name: name}
		if alias, ok, err := p.parseOptionalAlias(); err != nil {
			return nil, err
		} else if ok {
			tr.Alias = alias
		}
		out = append(out, tr)
		if !p.tz.MatchSymbol(",") {
			return out, nil
		}
	}
}

func (p *parser) parseIdentList() ([]string, error) {
	var out []string
	for {
		name, err := p.tz.ExpectIdent()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrParse, err)
		}
		out = append(out, name)
		if !p.tz.MatchSymbol(",") {
			return out, nil
		}
	}
}

func (p *parser) parseColumnRefList() ([]ColumnRef, error) {
	var out []ColumnRef
	for {
		ref, err := p.parseColumnRef()
		if err != nil {
			return nil, err
		}
		out = append(out, ref)
		if !p.tz.MatchSymbol(",") {
			return out, nil
		}
	}
}

func (p *parser) parseColumnRef() (ColumnRef, error) {
	name, err := p.tz.ExpectIdent()
	if err != nil {
		return ColumnRef{}, fmt.Errorf("%w: %v", ErrParse, err)
	}
	if p.tz.MatchSymbol(".") {
		col, err := p.tz.ExpectIdent()
		if err != nil {
			return ColumnRef{}, fmt.Errorf("%w: %v", ErrParse, err)
		}
		return ColumnRef{Qualifier: name, Name: col}, nil
	}
	return ColumnRef{Name: name}, nil
}

func (p *parser) parseOrderBy() ([]OrderItem, error) {
	var out []OrderItem
	for {
		var item OrderItem
		if p.tz.Cur().Kind == sqllex.Number {
			n, err := strconv.Atoi(p.tz.Advance().Text)
			if err != nil || n < 1 {
				return nil, p.errorf("invalid ORDER BY position")
			}
			item.Position = n
		} else {
			ref, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			item.Column = &ref
		}
		if p.tz.MatchKeyword("desc") {
			item.Desc = true
		} else {
			p.tz.MatchKeyword("asc")
		}
		out = append(out, item)
		if !p.tz.MatchSymbol(",") {
			return out, nil
		}
	}
}

// ---- statements other than SELECT ----

func (p *parser) parseCreate() (Statement, error) {
	p.tz.Advance() // create
	switch {
	case p.tz.MatchKeyword("view"):
		name, err := p.tz.ExpectIdent()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrParse, err)
		}
		if err := p.tz.ExpectKeyword("as"); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrParse, err)
		}
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &CreateView{Name: name, Query: q}, nil
	case p.tz.MatchKeyword("table"):
		name, err := p.tz.ExpectIdent()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrParse, err)
		}
		if p.tz.MatchKeyword("as") {
			q, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			return &CreateTableAs{Name: name, Query: q}, nil
		}
		if err := p.tz.ExpectSymbol("("); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrParse, err)
		}
		ct := &CreateTable{Name: name}
		for {
			if p.tz.MatchKeywords("primary", "key") {
				if err := p.tz.ExpectSymbol("("); err != nil {
					return nil, fmt.Errorf("%w: %v", ErrParse, err)
				}
				cols, err := p.parseIdentList()
				if err != nil {
					return nil, err
				}
				if err := p.tz.ExpectSymbol(")"); err != nil {
					return nil, fmt.Errorf("%w: %v", ErrParse, err)
				}
				if len(ct.PrimaryKey) > 0 {
					return nil, p.errorf("duplicate PRIMARY KEY")
				}
				ct.PrimaryKey = cols
			} else {
				col, err := p.tz.ExpectIdent()
				if err != nil {
					return nil, fmt.Errorf("%w: %v", ErrParse, err)
				}
				// Optional type name, accepted and ignored (dynamic typing).
				if p.tz.Cur().Kind == sqllex.Ident && !p.tz.Cur().IsKeyword("primary") {
					next := p.tz.Peek(1)
					if next.IsSymbol(",") || next.IsSymbol(")") {
						p.tz.Advance()
					}
				}
				ct.Columns = append(ct.Columns, col)
			}
			if p.tz.MatchSymbol(",") {
				continue
			}
			if err := p.tz.ExpectSymbol(")"); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrParse, err)
			}
			break
		}
		if len(ct.Columns) == 0 {
			return nil, p.errorf("CREATE TABLE needs at least one column")
		}
		return ct, nil
	default:
		return nil, p.errorf("expected TABLE or VIEW after CREATE, found %s", p.tz.Cur())
	}
}

func (p *parser) parseInsert() (Statement, error) {
	p.tz.Advance() // insert
	if err := p.tz.ExpectKeyword("into"); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrParse, err)
	}
	name, err := p.tz.ExpectIdent()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrParse, err)
	}
	ins := &Insert{Table: name}
	if p.tz.MatchSymbol("(") {
		cols, err := p.parseIdentList()
		if err != nil {
			return nil, err
		}
		if err := p.tz.ExpectSymbol(")"); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrParse, err)
		}
		ins.Columns = cols
	}
	if err := p.tz.ExpectKeyword("values"); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrParse, err)
	}
	for {
		if err := p.tz.ExpectSymbol("("); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrParse, err)
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.tz.MatchSymbol(",") {
				break
			}
		}
		if err := p.tz.ExpectSymbol(")"); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrParse, err)
		}
		ins.Rows = append(ins.Rows, row)
		if !p.tz.MatchSymbol(",") {
			return ins, nil
		}
	}
}

func (p *parser) parseUpdate() (Statement, error) {
	p.tz.Advance() // update
	name, err := p.tz.ExpectIdent()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrParse, err)
	}
	if err := p.tz.ExpectKeyword("set"); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrParse, err)
	}
	upd := &Update{Table: name}
	for {
		col, err := p.tz.ExpectIdent()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrParse, err)
		}
		if err := p.tz.ExpectSymbol("="); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrParse, err)
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Set = append(upd.Set, SetClause{Column: col, Value: e})
		if !p.tz.MatchSymbol(",") {
			break
		}
	}
	if p.tz.MatchKeyword("where") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Where = e
	}
	return upd, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.tz.Advance() // delete
	if err := p.tz.ExpectKeyword("from"); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrParse, err)
	}
	name, err := p.tz.ExpectIdent()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrParse, err)
	}
	del := &Delete{Table: name}
	if p.tz.MatchKeyword("where") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = e
	}
	return del, nil
}

func (p *parser) parseDrop() (Statement, error) {
	p.tz.Advance() // drop
	if !p.tz.MatchKeyword("table") && !p.tz.MatchKeyword("view") {
		return nil, p.errorf("expected TABLE or VIEW after DROP")
	}
	drop := &Drop{}
	if p.tz.MatchKeywords("if", "exists") {
		drop.IfExists = true
	}
	name, err := p.tz.ExpectIdent()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrParse, err)
	}
	drop.Name = name
	return drop, nil
}

// ---- expressions ----

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tz.MatchKeyword("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.tz.MatchKeyword("and") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.tz.Cur().IsKeyword("not") && !p.tz.Peek(1).IsKeyword("exists") {
		p.tz.Advance()
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return UnaryExpr{Op: "NOT", E: e}, nil
	}
	return p.parseComparison()
}

var comparisonOps = map[string]string{
	"=": "=", "<>": "<>", "!=": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.tz.MatchKeyword("is") {
		negated := p.tz.MatchKeyword("not")
		if err := p.tz.ExpectKeyword("null"); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrParse, err)
		}
		return IsNullExpr{E: l, Negated: negated}, nil
	}
	// [NOT] IN
	negated := false
	if p.tz.Cur().IsKeyword("not") && p.tz.Peek(1).IsKeyword("in") {
		p.tz.Advance()
		negated = true
	}
	if p.tz.MatchKeyword("in") {
		if err := p.tz.ExpectSymbol("("); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrParse, err)
		}
		if p.tz.Cur().IsKeyword("select") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.tz.ExpectSymbol(")"); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrParse, err)
			}
			return InExpr{Left: l, Sub: sub, Negated: negated}, nil
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.tz.MatchSymbol(",") {
				break
			}
		}
		if err := p.tz.ExpectSymbol(")"); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrParse, err)
		}
		return InExpr{Left: l, List: list, Negated: negated}, nil
	}
	tok := p.tz.Cur()
	if tok.Kind == sqllex.Symbol {
		if op, ok := comparisonOps[tok.Text]; ok {
			p.tz.Advance()
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return BinaryExpr{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.tz.Cur().IsSymbol("+"):
			op = "+"
		case p.tz.Cur().IsSymbol("-"):
			op = "-"
		case p.tz.Cur().IsSymbol("||"):
			op = "||"
		default:
			return l, nil
		}
		p.tz.Advance()
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		if op == "||" {
			op = "+" // string concatenation lowers to +
		}
		l = BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.tz.Cur().IsSymbol("*"):
			op = "*"
		case p.tz.Cur().IsSymbol("/"):
			op = "/"
		case p.tz.Cur().IsSymbol("%"):
			op = "%"
		default:
			return l, nil
		}
		p.tz.Advance()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.tz.MatchSymbol("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return UnaryExpr{Op: "-", E: e}, nil
	}
	if p.tz.MatchSymbol("+") {
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	tok := p.tz.Cur()
	switch {
	case tok.Kind == sqllex.Number:
		p.tz.Advance()
		if i, err := strconv.ParseInt(tok.Text, 10, 64); err == nil {
			return Literal{Value: value.Int(i)}, nil
		}
		f, err := strconv.ParseFloat(tok.Text, 64)
		if err != nil {
			return nil, p.errorf("invalid number %q", tok.Text)
		}
		return Literal{Value: value.Float(f)}, nil
	case tok.Kind == sqllex.String:
		p.tz.Advance()
		return Literal{Value: value.Str(tok.Text)}, nil
	case tok.IsKeyword("null"):
		p.tz.Advance()
		return Literal{Value: value.Null()}, nil
	case tok.IsKeyword("true"):
		p.tz.Advance()
		return Literal{Value: value.Bool(true)}, nil
	case tok.IsKeyword("false"):
		p.tz.Advance()
		return Literal{Value: value.Bool(false)}, nil
	case tok.IsKeyword("exists") && p.tz.Peek(1).IsSymbol("("):
		p.tz.Advance()
		p.tz.Advance()
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.tz.ExpectSymbol(")"); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrParse, err)
		}
		return ExistsExpr{Sub: sub}, nil
	case tok.IsKeyword("not") && p.tz.Peek(1).IsKeyword("exists"):
		p.tz.Advance()
		p.tz.Advance()
		if err := p.tz.ExpectSymbol("("); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrParse, err)
		}
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.tz.ExpectSymbol(")"); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrParse, err)
		}
		return ExistsExpr{Sub: sub, Negated: true}, nil
	case tok.IsSymbol("("):
		p.tz.Advance()
		if p.tz.Cur().IsKeyword("select") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.tz.ExpectSymbol(")"); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrParse, err)
			}
			return SubqueryExpr{Sub: sub}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.tz.ExpectSymbol(")"); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrParse, err)
		}
		return e, nil
	case tok.Kind == sqllex.Ident || tok.Kind == sqllex.QuotedIdent:
		// Function call? Keywords name no function.
		if _, kw := keyword(tok.Text); tok.Kind == sqllex.Ident && !kw && p.tz.Peek(1).IsSymbol("(") {
			name := p.tz.Advance().Text
			p.tz.Advance() // (
			fc := FuncCall{Name: strings.Map(lowerASCII, name)}
			if p.tz.MatchSymbol("*") {
				fc.Star = true
			} else {
				if p.tz.MatchKeyword("distinct") {
					fc.Distinct = true
				}
				if !p.tz.Cur().IsSymbol(")") {
					for {
						arg, err := p.parseExpr()
						if err != nil {
							return nil, err
						}
						fc.Args = append(fc.Args, arg)
						if !p.tz.MatchSymbol(",") {
							break
						}
					}
				}
			}
			if err := p.tz.ExpectSymbol(")"); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrParse, err)
			}
			if fc.Distinct && len(fc.Args) == 0 {
				return nil, p.errorf("%s(DISTINCT) needs an argument", fc.Name)
			}
			return fc, nil
		}
		return p.parseColumnRef()
	default:
		return nil, p.errorf("expected an expression, found %s", tok)
	}
}
