package plan

// Compile-once templates for UPDATE/DELETE statements, plus their
// component-touch analysis, and the constant rows of INSERT. A DML
// statement's dynamic parts are row expressions — the SET values and the
// WHERE predicate — which may contain subqueries; like SELECT templates they
// compile once against a representative catalog and bind per world (in the
// naive engine) or per piece of the target relation (in the compact engine),
// and both engines run the same row rewrite (Apply) over the relation's
// batch. Apply returns a batch: a columnar input's untouched columns are
// shared with the result, only the SET columns (UPDATE) or the kept rows
// (DELETE) are copied, and an input no row of which matches comes back as
// is. Components returns the decomposition components those expressions
// read through their subqueries, which is what decides whether a compact
// UPDATE/DELETE can rewrite the target relation piece-by-piece (certain
// part and per-alternative contributions independently) or must first
// merge the involved components: a statement whose expressions touch no
// component applies the same row rewrite in every world, so it distributes
// over the certain ∪ per-component structure exactly like a
// monotone-decomposable query.

import (
	"fmt"

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
	for j, sc := range st.Set {
		idx, err := p.sch.Resolve("", sc.Column)
		if err != nil {
			return nil, err
		}
		low, err := lowerIn(sc.Value, p.sch.Qualify(st.Table), rec)
		if err != nil {
			return nil, err
		}
		p.setIdx[j], p.setExprs[j] = idx, low
	}
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

// where lowers the WHERE predicate into p (none: every row matches) and
// hands p the tables rec read.
func (p *PreparedDML) where(table string, e sqlparse.Expr, rec *recorder) (*PreparedDML, error) {
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
// sequentially.
type BoundDML struct {
	sch      *schema.Schema
	del      bool
	setIdx   []int
	setExprs []expr.Expr
	pred     expr.Expr
	outer    *expr.Context
	// predVec and setVec record, once per instance, which expressions
	// EvalVec handles; the others (subqueries) run row by row.
	predVec bool
	setVec  []bool
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
	b := &BoundDML{sch: p.sch, del: p.del, setIdx: p.setIdx, setExprs: setExprs, outer: outer,
		setVec: make([]bool, len(setExprs))}
	for j, e := range setExprs {
		b.setVec[j] = expr.Vectorizable(e)
	}
	if p.pred != nil {
		if b.pred, _, err = rebindExpr(p.pred, bd); err != nil {
			return nil, err
		}
		b.predVec = expr.Vectorizable(b.pred)
	}
	return b, nil
}

// Apply runs the row rewrite over a batch: UPDATE rewrites the matching
// rows, DELETE drops them, and changed counts them. The result keeps the
// input's row order, and an error is the one the row-at-a-time rewrite
// meets first: rows in order, the predicate before the SET values, the SET
// values in order.
//
// A columnar input stays columnar. The predicate becomes a selection
// vector; DELETE gathers the complement, and UPDATE evaluates the SET
// values over the gathered matching rows and scatters them into fresh
// copies of the SET columns, sharing every other column with the input
// (colbatch.Batch.Update). A row-form input — the tiny relations INSERT
// builds and a split contributes — is rewritten tuple by tuple. Either way the input is never modified, and when no
// row matches the input itself is returned, so a caller can keep the
// relation it came from.
func (b *BoundDML) Apply(in *colbatch.Batch) (out *colbatch.Batch, changed int, err error) {
	if in.RowBacked() {
		return b.applyRows(in)
	}
	sel, predErr := b.match(in)
	// A SET error at a matching row precedes any predicate error: the
	// selection stops at the first row whose predicate failed.
	var cols []colbatch.Col
	if !b.del {
		if cols, err = b.setValues(in, sel); err != nil {
			return nil, 0, err
		}
	}
	if predErr != nil {
		return nil, 0, predErr
	}
	if len(sel) == 0 {
		return in, 0, nil
	}
	if b.del {
		return in.Gather(complement(sel, in.Len())), len(sel), nil
	}
	return in.Update(sel, b.setIdx, cols), len(sel), nil
}

// applyRows is Apply over a row-form batch: the row loop, one context per
// row, each updated row a fresh clone.
func (b *BoundDML) applyRows(in *colbatch.Batch) (*colbatch.Batch, int, error) {
	tuples := in.Rows()
	out := make([]tuple.Tuple, 0, len(tuples))
	changed := 0
	for _, t := range tuples {
		ctx := &expr.Context{Schema: b.sch, Tuple: t, Outer: b.outer}
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
	if changed == 0 {
		return in, 0, nil
	}
	return colbatch.FromRows(in.Schema, out), changed, nil
}

// match returns the ascending rows of in the predicate holds on, up to the
// first row it fails on, and that failure.
func (b *BoundDML) match(in *colbatch.Batch) ([]int32, error) {
	n := in.Len()
	sel := make([]int32, 0, n)
	switch {
	case b.pred == nil:
		for i := 0; i < n; i++ {
			sel = append(sel, int32(i))
		}
	case b.predVec:
		v := expr.EvalVec(b.pred, in)
		bools, nulls := v.Col.Bools, v.Col.Nulls
		typed := !v.Const && v.Col.Kind == value.KindBool && v.Col.Any == nil
		for i := 0; i < n; i++ {
			if err := v.ErrAt(i); err != nil {
				return sel, err
			}
			if typed {
				if bools[i] && (nulls == nil || !nulls[i]) {
					sel = append(sel, int32(i))
				}
			} else if v.At(i).Truth() {
				sel = append(sel, int32(i))
			}
		}
	default:
		rc := b.rowContext(in)
		for i := 0; i < n; i++ {
			v, err := rc.eval(b.pred, i)
			if err != nil {
				return sel, err
			}
			if v.Truth() {
				sel = append(sel, int32(i))
			}
		}
	}
	return sel, nil
}

// setValues evaluates the SET expressions at the rows sel of in, one column
// per expression with a cell per selected row. It returns the error the row
// loop meets first: the lowest row, then the lowest expression; later
// expressions stop short of the row an earlier one failed on.
func (b *BoundDML) setValues(in *colbatch.Batch, sel []int32) ([]colbatch.Col, error) {
	cols := make([]colbatch.Col, len(b.setExprs))
	limit := len(sel)
	var first error
	var matched *colbatch.Batch
	var rc *rowContext
	for j, e := range b.setExprs {
		if b.setVec[j] {
			if matched == nil {
				matched = in
				if len(sel) < in.Len() {
					matched = in.Gather(sel)
				}
			}
			v := expr.EvalVec(e, matched)
			for k := 0; k < limit; k++ {
				if err := v.ErrAt(k); err != nil {
					limit, first = k, err
					break
				}
			}
			cols[j] = vecCol(&v)
			continue
		}
		if rc == nil {
			rc = b.rowContext(in)
		}
		var cb colbatch.ColBuilder
		for k := 0; k < limit; k++ {
			v, err := rc.eval(e, int(sel[k]))
			if err != nil {
				limit, first = k, err
				break
			}
			cb.Append(v)
		}
		cols[j] = cb.Col()
	}
	return cols, first
}

// vecCol returns an evaluated vector as a column, broadcasting a constant.
func vecCol(v *expr.Vec) colbatch.Col {
	if !v.Const {
		return v.Col
	}
	var cb colbatch.ColBuilder
	for k := 0; k < v.N; k++ {
		cb.Append(v.CV)
	}
	return cb.Col()
}

// rowContext evaluates row expressions against single rows of a columnar
// batch: one context and one tuple buffer, refilled from the columns per
// row.
type rowContext struct {
	in  *colbatch.Batch
	ctx *expr.Context
}

func (b *BoundDML) rowContext(in *colbatch.Batch) *rowContext {
	return &rowContext{in: in, ctx: &expr.Context{Schema: b.sch, Tuple: make(tuple.Tuple, in.Width()), Outer: b.outer}}
}

func (rc *rowContext) eval(e expr.Expr, i int) (value.Value, error) {
	for j := range rc.ctx.Tuple {
		rc.ctx.Tuple[j] = rc.in.At(i, j)
	}
	return e.Eval(rc.ctx)
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
