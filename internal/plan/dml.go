package plan

// Compile-once templates for UPDATE/DELETE statements, plus their
// component-touch analysis, and the constant rows of INSERT. A DML
// statement's dynamic parts are row expressions — the SET values and the
// WHERE predicate — which may contain subqueries; like SELECT templates they
// compile once against a representative catalog and bind per world (in the
// naive engine) or per piece of the target relation (in the compact engine),
// and both engines run the same row rewrite (Apply). Components returns the
// decomposition components those expressions read through their
// subqueries, which is what decides whether a compact UPDATE/DELETE can
// rewrite the target relation piece-by-piece (certain part and
// per-alternative contributions independently) or must first merge the
// involved components: a statement whose expressions touch no component
// applies the same row rewrite in every world, so it distributes over the
// certain ∪ per-component structure exactly like a monotone-decomposable
// query.

import (
	"fmt"

	"maybms/internal/expr"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

// PreparedDML is a compiled UPDATE or DELETE template: the target
// relation's compile-time schema, resolved SET column indexes, and the
// SET/WHERE row expressions, lowered against that schema and stripped of
// tuples.
type PreparedDML struct {
	sch      *schema.Schema
	del      bool
	setIdx   []int
	setExprs []expr.Expr
	pred     expr.Expr
}

// PrepareUpdateStmt compiles an UPDATE against the target schema sch and
// catalog cat once; Bind instantiates it per catalog.
func PrepareUpdateStmt(st *sqlparse.Update, sch *schema.Schema, cat Catalog) (*PreparedDML, error) {
	prepares.Add(1)
	p := &PreparedDML{
		sch:      sch,
		setIdx:   make([]int, len(st.Set)),
		setExprs: make([]expr.Expr, len(st.Set)),
	}
	for j, sc := range st.Set {
		idx, err := sch.Resolve("", sc.Column)
		if err != nil {
			return nil, err
		}
		low, err := lowerIn(sc.Value, sch, cat)
		if err != nil {
			return nil, err
		}
		p.setIdx[j], p.setExprs[j] = idx, stripExprTemplate(low)
	}
	return p.where(st.Where, cat)
}

// PrepareDeleteStmt compiles a DELETE against the target schema sch and
// catalog cat once; Bind instantiates it per catalog.
func PrepareDeleteStmt(st *sqlparse.Delete, sch *schema.Schema, cat Catalog) (*PreparedDML, error) {
	prepares.Add(1)
	p := &PreparedDML{sch: sch, del: true}
	return p.where(st.Where, cat)
}

// where lowers the WHERE predicate into p (none: every row matches).
func (p *PreparedDML) where(e sqlparse.Expr, cat Catalog) (*PreparedDML, error) {
	if e != nil {
		low, err := lowerIn(e, p.sch, cat)
		if err != nil {
			return nil, err
		}
		p.pred = stripExprTemplate(low)
	}
	return p, nil
}

// Schema returns the compile-time schema of the target relation.
func (p *PreparedDML) Schema() *schema.Schema { return p.sch }

// Components returns the sorted set of decomposition components the
// statement's SET/WHERE expressions touch through their subqueries (the
// target relation itself is not included — callers know it). An empty
// result means the row rewrite is identical in every world.
func (p *PreparedDML) Components(cc ComponentCatalog) ([]int, error) {
	exprs := p.setExprs
	if p.pred != nil {
		exprs = append(exprs[:len(exprs):len(exprs)], p.pred)
	}
	out, err := exprComps(cc, exprs...)
	return append([]int(nil), out...), err
}

// BoundDML is a template instantiated against one catalog. Instances do
// not share subquery iteration state, but a single instance must be used
// sequentially (Apply evaluates its expressions row by row, like the
// naive engine's per-world pass).
type BoundDML struct {
	sch       *schema.Schema
	del       bool
	setIdx    []int
	setExprs  []expr.Expr
	pred      expr.Expr
	interrupt func() error
}

// Bind instantiates the template against cat; it fails with ErrRebind when
// cat lacks a table or a column the expressions' subqueries were compiled
// against. interrupt, when non-nil, is threaded into the row-expression
// contexts so subquery scans poll it.
func (p *PreparedDML) Bind(cat Catalog, interrupt func() error) (*BoundDML, error) {
	bd := &binding{cat: cat}
	setExprs, err := rebindExprs(p.setExprs, bd)
	if err != nil {
		return nil, err
	}
	b := &BoundDML{sch: p.sch, del: p.del, setIdx: p.setIdx, setExprs: setExprs, interrupt: interrupt}
	if p.pred != nil {
		if b.pred, _, err = rebindExpr(p.pred, bd); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Apply runs the row rewrite over tuples: UPDATE rewrites matching rows
// in place (cloned), DELETE drops them. Row order is preserved exactly as
// in the naive engine's per-world pass; changed counts the affected rows.
func (b *BoundDML) Apply(tuples []tuple.Tuple) (out []tuple.Tuple, changed int, err error) {
	out = make([]tuple.Tuple, 0, len(tuples))
	for _, t := range tuples {
		ctx := &expr.Context{Schema: b.sch, Tuple: t, Interrupt: b.interrupt}
		match := true
		if b.pred != nil {
			v, err := b.pred.Eval(ctx)
			if err != nil {
				return nil, 0, err
			}
			match = v.Truth()
		}
		if !match {
			out = append(out, t)
			continue
		}
		changed++
		if b.del {
			continue
		}
		nt := t.Clone()
		for j := range b.setExprs {
			v, err := b.setExprs[j].Eval(ctx)
			if err != nil {
				return nil, 0, err
			}
			nt[b.setIdx[j]] = v
		}
		out = append(out, nt)
	}
	return out, changed, nil
}

// ConstInsertRows evaluates an INSERT statement's value rows against the
// target table's schema: every expression must be constant (literals,
// arithmetic on literals, unary minus — INSERT rows are
// world-independent), and an explicit column list reorders the values and
// NULL-fills the unnamed columns. Both engines share this so the
// semantics cannot drift.
func ConstInsertRows(st *sqlparse.Insert, sch *schema.Schema) ([]tuple.Tuple, error) {
	var positions []int
	if len(st.Columns) > 0 {
		var err error
		positions, err = sch.IndexesOf(st.Columns)
		if err != nil {
			return nil, err
		}
	}
	noRelations := CatalogFunc(func(name string) (*relation.Relation, error) {
		return nil, fmt.Errorf("INSERT values must be constant; relation %q referenced", name)
	})
	constValue := func(e sqlparse.Expr) (value.Value, error) {
		low, err := lowerIn(e, schema.New(), noRelations)
		if err != nil {
			return value.Null(), err
		}
		return low.Eval(&expr.Context{Schema: schema.New(), Tuple: tuple.Tuple{}})
	}
	rows := make([]tuple.Tuple, len(st.Rows))
	for i, exprRow := range st.Rows {
		var t tuple.Tuple
		if positions == nil {
			if len(exprRow) != sch.Len() {
				return nil, fmt.Errorf("INSERT row has %d values, table %s has %d columns", len(exprRow), st.Table, sch.Len())
			}
			t = make(tuple.Tuple, sch.Len())
			for j, ex := range exprRow {
				v, err := constValue(ex)
				if err != nil {
					return nil, err
				}
				t[j] = v
			}
		} else {
			if len(exprRow) != len(positions) {
				return nil, fmt.Errorf("INSERT row has %d values for %d columns", len(exprRow), len(positions))
			}
			t = make(tuple.Tuple, sch.Len())
			for j := range t {
				t[j] = value.Null()
			}
			for j, ex := range exprRow {
				v, err := constValue(ex)
				if err != nil {
					return nil, err
				}
				t[positions[j]] = v
			}
		}
		rows[i] = t
	}
	return rows, nil
}
