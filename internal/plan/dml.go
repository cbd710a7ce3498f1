package plan

// Compile-once templates for UPDATE/DELETE statements, plus their
// component-touch analysis, and the constant rows of INSERT. A DML
// statement's dynamic parts are row expressions — the SET values and the
// WHERE predicate — which may contain subqueries; like SELECT templates they
// compile once against a representative catalog and bind per world (in the
// naive engine) or per piece of the target relation (in the compact engine),
// and both engines run the same row rewrite (Apply) over the relation's
// batch. Apply has no evaluator of its own: it is the operators' kernels
// composed — the WHERE predicate selects the matching rows as a Filter does
// (algebra.Select), the SET values are evaluated over those rows as a
// Project does (algebra.Values), and colbatch writes the result, so a
// rewrite and a query evaluate an expression alike, column-at-a-time or
// row by row, with one error order. Components returns the decomposition
// components those expressions read through their subqueries, which is what
// decides whether a compact UPDATE/DELETE can rewrite the target relation
// piece-by-piece (certain part and per-alternative contributions
// independently) or must first merge the involved components: a statement
// whose expressions touch no component applies the same row rewrite in
// every world, so it distributes over the certain ∪ per-component structure
// exactly like a monotone-decomposable query.

import (
	"fmt"

	"maybms/internal/algebra"
	"maybms/internal/colbatch"
	"maybms/internal/expr"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

// PreparedDML is a compiled UPDATE or DELETE template: the target
// relation's compile-time schema, resolved SET column indexes, and the
// SET/WHERE row expressions, lowered against that schema.
type PreparedDML struct {
	sch      *schema.Schema
	del      bool
	setIdx   []int
	setExprs []expr.Expr
	setSch   *schema.Schema // of the SET values' batch: a column per SET
	pred     expr.Expr
	reads
}

// PrepareUpdateStmt compiles an UPDATE of st.Table against catalog cat
// once; Bind instantiates it per catalog. The row expressions see the
// target row under the table's name, as a FROM binding, so a subquery can
// correlate to it past its own columns (B.X).
func PrepareUpdateStmt(st *sqlparse.Update, cat Catalog) (*PreparedDML, error) {
	p, rec, err := prepareDML(st.Table, cat)
	if err != nil {
		return nil, err
	}
	p.setIdx, p.setExprs = make([]int, len(st.Set)), make([]expr.Expr, len(st.Set))
	names := make([]string, len(st.Set))
	for j, sc := range st.Set {
		idx, err := p.sch.Resolve("", sc.Column)
		if err != nil {
			return nil, err
		}
		low, err := lowerIn(sc.Value, p.sch.Qualify(st.Table), rec)
		if err != nil {
			return nil, err
		}
		p.setIdx[j], p.setExprs[j], names[j] = idx, low, sc.Column
	}
	p.setSch = schema.New(names...)
	return p.where(st.Table, st.Where, rec)
}

// PrepareDeleteStmt compiles a DELETE of st.Table against catalog cat
// once; Bind instantiates it per catalog.
func PrepareDeleteStmt(st *sqlparse.Delete, cat Catalog) (*PreparedDML, error) {
	p, rec, err := prepareDML(st.Table, cat)
	if err != nil {
		return nil, err
	}
	p.del = true
	return p.where(st.Table, st.Where, rec)
}

// prepareDML starts the template of a statement writing table: the
// target's schema, read through the recorder that compiles the rest.
func prepareDML(table string, cat Catalog) (*PreparedDML, *recorder, error) {
	prepares.Add(1)
	rec := &recorder{cat: cat}
	target, err := rec.Lookup(table)
	if err != nil {
		return nil, nil, err
	}
	return &PreparedDML{sch: target.Schema}, rec, nil
}

// where lowers the WHERE predicate into p (none: TRUE, every row matches)
// and hands p the tables rec read.
func (p *PreparedDML) where(table string, e sqlparse.Expr, rec *recorder) (*PreparedDML, error) {
	p.pred = expr.Const{Value: value.Bool(true)}
	if e != nil {
		low, err := lowerIn(e, p.sch.Qualify(table), rec)
		if err != nil {
			return nil, err
		}
		p.pred = low
	}
	p.reads = rec.reads
	return p, nil
}

// Components returns the sorted set of decomposition components the
// statement's SET/WHERE expressions touch through their subqueries (the
// target relation itself is not included — callers know it). An empty
// result means the row rewrite is identical in every world.
func (p *PreparedDML) Components(cc ComponentCatalog) ([]int, error) {
	out, err := exprComps(cc, append(p.setExprs[:len(p.setExprs):len(p.setExprs)], p.pred)...)
	return append([]int(nil), out...), err
}

// Reads names the tables the template read: the target and every table
// its SET and WHERE subqueries scan. A world's rewrite depends on their
// instances only.
func (p *PreparedDML) Reads() []string {
	names := make([]string, len(p.reads))
	for i, t := range p.reads {
		names[i] = t.name
	}
	return names
}

// BoundDML is a template instantiated against one catalog. Instances do
// not share subquery iteration state, but a single instance must be used
// sequentially.
type BoundDML struct {
	sch      *schema.Schema
	del      bool
	setIdx   []int
	setExprs []expr.Expr
	setSch   *schema.Schema
	pred     expr.Expr
	outer    *expr.Context
	ev       algebra.RowEval
}

// Bind instantiates the template against cat, sharing through memo; it
// fails with ErrRebind when cat lacks a table or a column the expressions'
// subqueries were compiled against. The row expressions evaluate under
// outer, the statement's root context (nil: none), so subquery scans poll
// its interrupt hook and count into its trace.
func (p *PreparedDML) Bind(cat Catalog, outer *expr.Context, memo *Memo) (*BoundDML, error) {
	bd := &binding{cat: cat, memo: memo}
	setExprs, err := rebindExprs(p.setExprs, bd)
	if err != nil {
		return nil, err
	}
	pred, _, err := rebindExpr(p.pred, bd)
	if err != nil {
		return nil, err
	}
	b := &BoundDML{sch: p.sch, del: p.del, setIdx: p.setIdx, setExprs: setExprs, setSch: p.setSch,
		pred: pred, outer: outer}
	b.ev.Reset(b.sch, outer)
	return b, nil
}

// Apply runs the row rewrite over a batch: UPDATE rewrites the matching
// rows, DELETE drops them, and changed counts them. The result keeps the
// input's row order and form, and an error is the one the row-at-a-time
// rewrite meets first: rows in order, the predicate before the SET values,
// the SET values in order.
//
// The predicate selects the matching rows (algebra.Select); DELETE gathers
// the complement, and UPDATE evaluates the SET values over the gathered
// matching rows (algebra.Values) and writes them into fresh copies of the
// SET columns, or of the matching tuples of a row-form input, sharing the
// rest with the input (colbatch.Batch.Update). The input is never
// modified, and when no row matches the input itself is returned, so a
// caller can keep the relation it came from.
func (b *BoundDML) Apply(in *colbatch.Batch) (out *colbatch.Batch, changed int, err error) {
	sel, predErr := algebra.Select(b.pred, in, &b.ev, make([]int32, 0, in.Len()))
	// A SET error at a matching row precedes any predicate error: the
	// selection stops at the first row whose predicate failed.
	var vals *colbatch.Batch
	if !b.del && len(sel) > 0 {
		matched := in
		if len(sel) < in.Len() {
			matched = in.Gather(sel)
		}
		if vals, _, err = algebra.Values(b.setExprs, matched, &b.ev, b.setSch); err != nil {
			return nil, 0, err
		}
	}
	switch {
	case predErr != nil:
		return nil, 0, predErr
	case len(sel) == 0:
		return in, 0, nil
	case b.del:
		return in.Gather(complement(sel, in.Len())), len(sel), nil
	}
	return in.Update(sel, b.setIdx, vals), len(sel), nil
}

// complement returns the rows of [0, n) not in the ascending sel.
func complement(sel []int32, n int) []int32 {
	out := make([]int32, 0, n-len(sel))
	k := 0
	for i := 0; i < n; i++ {
		if k < len(sel) && int(sel[k]) == i {
			k++
			continue
		}
		out = append(out, int32(i))
	}
	return out
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
