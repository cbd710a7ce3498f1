// Package colbatch implements batches of tuples: the storage format of
// relations and the currency of every operator and closure builder. A Batch
// holds its rows in one of two forms. Columnar: one typed vector per column
// (int64 / float64 / string / bool payloads plus a null bitmap), with a
// generic value fallback for mixed-kind columns. Row form: the tuples
// themselves, fewer than Floor of them. Both support what batch operators
// need — concatenation of selected rows, zero-copy row slicing, canonical
// key encoding into a reusable byte arena — with identical answers: a
// batch's Rows() are value-for-value the rows it was built from, and
// AppendKey/AppendKeyOn produce exactly the bytes of tuple.Encode /
// tuple.KeyOn whatever the form.
//
// The form is decided here and nowhere else, by size: a batch built from
// rows stays in row form under Floor rows and is laid out as columns at
// Floor rows or more, a row-form batch that Append brings to Floor rows
// settles into columns, a view (Slice, Project, WithSchema) keeps its
// source's form, and a batch built from batches is in row form only when
// they all are and it holds fewer than Floor rows. Consumers read
// batches without asking which form they hold; only the size-selected inner
// loops (internal/algebra's operators, the tiny-DML rewrite, the wire
// encoder's row branch) test RowBacked.
//
// A batch is built once, by FromRows/FromCols/ColBuilder or Concat, or grown
// tuple by tuple (Append) while it is being built; Concat — a list of
// (batch, selection) parts — is the one code that copies cells from batches
// into a new batch, and Gather, GatherConcat and every accumulator above
// colbatch go through it. Batches are treated as immutable once handed to a
// consumer, and no published column is written in place. So vectors are
// shared freely: a stored batch sliced out of a larger one (factorized CTAS
// contributions, the import conflict groups' one gathered batch), an
// UPDATE's untouched columns, and a query answer that is a view of a stored
// batch (WithSchema, Project) all alias their source. Zero-copy slices are
// capacity-clamped, so an append through any of them reallocates instead of
// reaching the batch it shares.
package colbatch

import (
	"hash/maphash"
	"math"
	"slices"

	"maybms/internal/schema"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

// Floor is the row count below which a columnar batch does not pay for
// itself: its fixed cost (headers, one small slice per column, per-operator
// column work) outweighs what column-at-a-time work saves on so few rows.
// It is read in colbatch only: a row-form batch holds fewer than Floor rows,
// and every constructor and append keeps it so.
const Floor = 32

// Col is one typed column of a batch. Exactly one representation is active:
//
//   - Any != nil: the generic fallback — every cell is stored as a value,
//     used for mixed-kind columns. The other fields are ignored.
//   - Kind == value.KindNull (and Any == nil): every cell is NULL; no
//     payload storage at all.
//   - otherwise: the typed slice matching Kind holds the payloads, and
//     Nulls (when non-nil) marks NULL cells (their payload is the zero
//     value and must not be interpreted).
type Col struct {
	Kind   value.Kind
	Nulls  []bool
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool
	Any    []value.Value
}

// Value returns the cell at row i as a value.
func (c *Col) Value(i int) value.Value {
	if c.Any != nil {
		return c.Any[i]
	}
	if c.Kind == value.KindNull {
		return value.Null()
	}
	if c.Nulls != nil && c.Nulls[i] {
		return value.Null()
	}
	switch c.Kind {
	case value.KindInt:
		return value.Int(c.Ints[i])
	case value.KindFloat:
		return value.Float(c.Floats[i])
	case value.KindString:
		return value.Str(c.Strs[i])
	default:
		return value.Bool(c.Bools[i])
	}
}

// Null reports whether the cell at row i is NULL.
func (c *Col) Null(i int) bool {
	if c.Any != nil {
		return c.Any[i].IsNull()
	}
	if c.Kind == value.KindNull {
		return true
	}
	return c.Nulls != nil && c.Nulls[i]
}

// append adds v as cell n (the current length) of the column, degrading the
// representation as needed: an all-NULL column adopts the first non-NULL
// kind (backfilling nulls), and a kind mismatch degrades to the generic
// representation.
func (c *Col) append(n int, v value.Value) {
	if c.Any != nil {
		c.Any = append(c.Any, v)
		return
	}
	if v.IsNull() {
		if c.Kind == value.KindNull {
			return // still the all-NULL representation; length tracked by caller
		}
		c.appendNull(n)
		return
	}
	if c.Kind == value.KindNull {
		if n > 0 {
			// First non-NULL after n all-NULL cells: adopt the kind with a
			// backfilled null bitmap (plus the false entry for this cell).
			c.Nulls = make([]bool, n, n+1)
			for i := range c.Nulls {
				c.Nulls[i] = true
			}
			c.Nulls = append(c.Nulls, false)
		}
		c.Kind = v.Kind()
		c.grow(n)
		c.appendTyped(v)
		return
	}
	if v.Kind() != c.Kind {
		c.degrade(n)
		c.Any = append(c.Any, v)
		return
	}
	if c.Nulls != nil {
		c.Nulls = append(c.Nulls, false)
	}
	c.appendTyped(v)
}

func (c *Col) grow(n int) {
	switch c.Kind {
	case value.KindInt:
		c.Ints = append(c.Ints, make([]int64, n)...)
	case value.KindFloat:
		c.Floats = append(c.Floats, make([]float64, n)...)
	case value.KindString:
		c.Strs = append(c.Strs, make([]string, n)...)
	case value.KindBool:
		c.Bools = append(c.Bools, make([]bool, n)...)
	}
}

func (c *Col) appendTyped(v value.Value) {
	switch c.Kind {
	case value.KindInt:
		c.Ints = append(c.Ints, v.AsInt())
	case value.KindFloat:
		c.Floats = append(c.Floats, v.AsFloat())
	case value.KindString:
		c.Strs = append(c.Strs, v.AsStr())
	case value.KindBool:
		c.Bools = append(c.Bools, v.AsBool())
	}
}

func (c *Col) appendNull(n int) {
	if c.Nulls == nil {
		c.Nulls = make([]bool, n, n+1)
	}
	c.Nulls = append(c.Nulls, true)
	switch c.Kind {
	case value.KindInt:
		c.Ints = append(c.Ints, 0)
	case value.KindFloat:
		c.Floats = append(c.Floats, 0)
	case value.KindString:
		c.Strs = append(c.Strs, "")
	case value.KindBool:
		c.Bools = append(c.Bools, false)
	}
}

// degrade converts the first n cells to the generic representation.
func (c *Col) degrade(n int) {
	anyv := make([]value.Value, n, n+1)
	for i := 0; i < n; i++ {
		anyv[i] = c.Value(i)
	}
	*c = Col{Any: anyv}
}

// Slice returns a zero-copy view of rows [lo, hi). The sub-slices are
// capacity-clamped so a later append through the view reallocates instead
// of clobbering the parent's cells past hi — sliced views are safe to hand
// out as independent stored batches (copy-on-write).
func (c *Col) Slice(lo, hi int) Col {
	if c.Any != nil {
		return Col{Any: c.Any[lo:hi:hi]}
	}
	if c.Kind == value.KindNull {
		return Col{}
	}
	out := Col{Kind: c.Kind}
	if c.Nulls != nil {
		out.Nulls = c.Nulls[lo:hi:hi]
	}
	switch c.Kind {
	case value.KindInt:
		out.Ints = c.Ints[lo:hi:hi]
	case value.KindFloat:
		out.Floats = c.Floats[lo:hi:hi]
	case value.KindString:
		out.Strs = c.Strs[lo:hi:hi]
	case value.KindBool:
		out.Bools = c.Bools[lo:hi:hi]
	}
	return out
}

// appendKey appends the canonical value.Encode bytes of cell i to dst.
// The encoding is byte-identical to Col.Value(i).Encode(dst).
func (c *Col) appendKey(dst []byte, i int) []byte {
	if c.Any != nil {
		return c.Any[i].Encode(dst)
	}
	if c.Kind == value.KindNull || (c.Nulls != nil && c.Nulls[i]) {
		return append(dst, byte(value.KindNull))
	}
	dst = append(dst, byte(c.Kind))
	switch c.Kind {
	case value.KindInt:
		u := uint64(c.Ints[i])
		dst = append(dst, byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32), byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
	case value.KindFloat:
		u := math.Float64bits(c.Floats[i])
		dst = append(dst, byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32), byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
	case value.KindString:
		s := c.Strs[i]
		l := uint32(len(s))
		dst = append(dst, byte(l>>24), byte(l>>16), byte(l>>8), byte(l))
		dst = append(dst, s...)
	case value.KindBool:
		if c.Bools[i] {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// Batch is a fixed-schema batch of rows in one of two forms. Columnar
// (cols != nil): one typed column per schema column. Row form (cols == nil):
// rows holds the tuples, fewer than Floor of them — the Append that brings a
// row-form batch to Floor rows settles it into columns, and every
// constructor builds columns at Floor rows or more.
type Batch struct {
	Schema *schema.Schema
	cols   []Col
	n      int
	rows   []tuple.Tuple // the rows of a row-form batch
}

// New returns an empty row-form batch with the given schema, for Append to
// grow.
func New(sch *schema.Schema) *Batch {
	return &Batch{Schema: sch}
}

// FromRows builds a batch from rows (each of the schema's width), taking
// ownership of the slice: kept as it is in row form under Floor rows, laid
// out as columns at Floor rows or more. The caller must treat the rows as
// immutable.
func FromRows(sch *schema.Schema, rows []tuple.Tuple) *Batch {
	b := &Batch{Schema: sch, n: len(rows), rows: rows}
	if b.n >= Floor {
		b.settle()
	}
	return b
}

// Len returns the number of rows; a nil batch has none.
func (b *Batch) Len() int {
	if b == nil {
		return 0
	}
	return b.n
}

// RowBacked reports whether the batch is in row form: its Rows() are the
// stored tuples, returned without materialization, and it holds fewer than
// Floor of them.
func (b *Batch) RowBacked() bool { return b.cols == nil }

// settle lays a row-form batch of Floor rows or more out as columns of its
// length.
func (b *Batch) settle() {
	*b = *Concat(b.Schema, []Part{{B: b}})
}

// WithSchema returns b under a different schema of the same width, sharing
// its data as Slice does: appends through either batch never reach the
// other.
func (b *Batch) WithSchema(sch *schema.Schema) *Batch {
	out := b.Slice(0, b.n)
	out.Schema = sch
	return out
}

// Width returns the number of columns.
func (b *Batch) Width() int {
	if b.cols == nil {
		return b.Schema.Len()
	}
	return len(b.cols)
}

// Col returns column j. On a row-form batch the column is materialized
// generically on demand.
func (b *Batch) Col(j int) *Col {
	if b.cols == nil {
		anyv := make([]value.Value, b.n)
		for i, t := range b.rows {
			anyv[i] = t[j]
		}
		return &Col{Any: anyv}
	}
	return &b.cols[j]
}

// At returns the value at row i, column j.
func (b *Batch) At(i, j int) value.Value {
	if b.cols == nil {
		return b.rows[i][j]
	}
	return b.cols[j].Value(i)
}

// Append adds one row to the batch, taking ownership of the tuple while the
// batch stays in row form.
func (b *Batch) Append(t tuple.Tuple) {
	if b.cols == nil {
		b.rows = append(b.rows, t)
		if b.n++; b.n == Floor {
			b.settle()
		}
		return
	}
	for j := range b.cols {
		b.cols[j].append(b.n, t[j])
	}
	b.n++
}

// Part is the rows of batch B that Concat copies: B's rows at the indexes
// Sel, in Sel's order and repeats allowed, or every row of B when Sel is
// nil.
type Part struct {
	B   *Batch
	Sel []int32
}

// size returns the number of rows in the part.
func (p Part) size() int {
	if p.Sel == nil {
		return p.B.Len()
	}
	return len(p.Sel)
}

// row returns the index in B of the part's k-th row.
func (p Part) row(k int) int {
	if p.Sel == nil {
		return k
	}
	return int(p.Sel[k])
}

// Concat returns the rows of parts, in order, as one new batch under sch. It
// is the one copy from batches into a new batch: Gather, GatherConcat, a
// settling batch and every accumulator above colbatch go through it, and it
// copies each cell once into storage allocated at the total length.
//
// The result is in row form when every part's batch is and they hold fewer
// than Floor rows in all. Otherwise it is columnar, and each column's shape
// is decided once, from what the parts hold in it: all-NULL when they hold
// no non-NULL cell; typed when their non-NULL cells share a kind and no
// part's column is generic, with a null bitmap when some part's column has
// one or is all-NULL or a row-form part holds a NULL; generic otherwise. A
// columnar part counts by its column's metadata, whatever its Sel picks; a
// row-form part by the cells its Sel picks. The parts must have sch's width.
func Concat(sch *schema.Schema, parts []Part) *Batch {
	n, rows := 0, true
	for _, p := range parts {
		n += p.size()
		rows = rows && p.B.cols == nil
	}
	if rows && n < Floor {
		out := make([]tuple.Tuple, 0, n)
		for _, p := range parts {
			for k := range p.size() {
				out = append(out, p.B.rows[p.row(k)])
			}
		}
		return &Batch{Schema: sch, n: n, rows: out}
	}
	out := &Batch{Schema: sch, cols: make([]Col, sch.Len()), n: n}
	for j := range out.cols {
		out.cols[j] = concatCol(parts, j, n)
	}
	return out
}

// concatCol is column j of parts as one column of their n rows, in the
// shape Concat documents.
func concatCol(parts []Part, j, n int) Col {
	kind, nulls, generic := value.KindNull, false, false
	see := func(k value.Kind) {
		if kind == value.KindNull {
			kind = k
		} else if k != kind {
			generic = true
		}
	}
	for _, p := range parts {
		if p.B.cols == nil {
			for k := range p.size() {
				if v := p.B.rows[p.row(k)][j]; v.IsNull() {
					nulls = true
				} else {
					see(v.Kind())
				}
			}
			continue
		}
		switch c := &p.B.cols[j]; {
		case c.Any != nil:
			generic = true
		case c.Kind == value.KindNull:
			nulls = true
		default:
			see(c.Kind)
			nulls = nulls || c.Nulls != nil
		}
	}
	var out Col
	switch {
	case generic:
		out.Any = make([]value.Value, 0, n)
		for _, p := range parts {
			for k := range p.size() {
				out.Any = append(out.Any, p.B.At(p.row(k), j))
			}
		}
		return out
	case kind == value.KindNull:
		return out
	}
	out.Kind = kind
	if nulls {
		out.Nulls = make([]bool, n)
	}
	switch kind {
	case value.KindInt:
		out.Ints = make([]int64, n)
	case value.KindFloat:
		out.Floats = make([]float64, n)
	case value.KindString:
		out.Strs = make([]string, n)
	case value.KindBool:
		out.Bools = make([]bool, n)
	}
	at := 0
	for _, p := range parts {
		m := p.size()
		if p.B.cols == nil {
			for k := range m {
				out.set(at+k, p.B.rows[p.row(k)][j])
			}
			at += m
			continue
		}
		c := &p.B.cols[j]
		if c.Kind == value.KindNull {
			for k := range m {
				out.Nulls[at+k] = true
			}
			at += m
			continue
		}
		if c.Nulls != nil {
			put(out.Nulls[at:at+m], c.Nulls, p.Sel)
		}
		switch kind {
		case value.KindInt:
			put(out.Ints[at:at+m], c.Ints, p.Sel)
		case value.KindFloat:
			put(out.Floats[at:at+m], c.Floats, p.Sel)
		case value.KindString:
			put(out.Strs[at:at+m], c.Strs, p.Sel)
		case value.KindBool:
			put(out.Bools[at:at+m], c.Bools, p.Sel)
		}
		at += m
	}
	return out
}

// put copies src's cells at the rows sel (all of them when sel is nil) into
// dst, one per cell of dst.
func put[T any](dst, src []T, sel []int32) {
	if sel == nil {
		copy(dst, src)
		return
	}
	for i, s := range sel {
		dst[i] = src[s]
	}
}

// set writes v as cell i of a typed column allocated at its length: the
// payload, or the null bit of a NULL.
func (c *Col) set(i int, v value.Value) {
	if v.IsNull() {
		c.Nulls[i] = true
		return
	}
	switch c.Kind {
	case value.KindInt:
		c.Ints[i] = v.AsInt()
	case value.KindFloat:
		c.Floats[i] = v.AsFloat()
	case value.KindString:
		c.Strs[i] = v.AsStr()
	case value.KindBool:
		c.Bools[i] = v.AsBool()
	}
}

// Extend returns the batch extended with a trailing column c (one cell per
// row) under the given output schema: the closure builders' conf column, a
// conditional relation's cond column. A columnar batch shares its existing
// vectors; a row-form one extends row-wise into one value slab.
func (b *Batch) Extend(out *schema.Schema, c Col) *Batch {
	if b.cols == nil {
		w := out.Len()
		slab := make([]value.Value, b.n*w)
		rows := make([]tuple.Tuple, b.n)
		for i, t := range b.rows {
			row := slab[i*w : (i+1)*w : (i+1)*w]
			copy(row, t)
			row[w-1] = c.Value(i)
			rows[i] = tuple.Tuple(row)
		}
		return &Batch{Schema: out, n: b.n, rows: rows}
	}
	cols := make([]Col, len(b.cols)+1)
	copy(cols, b.cols)
	cols[len(b.cols)] = c
	return &Batch{Schema: out, cols: cols, n: b.n}
}

// Slice returns a zero-copy view of rows [lo, hi), in b's form.
func (b *Batch) Slice(lo, hi int) *Batch {
	if b.cols == nil {
		return &Batch{Schema: b.Schema, n: hi - lo, rows: b.rows[lo:hi:hi]}
	}
	out := &Batch{Schema: b.Schema, cols: make([]Col, len(b.cols)), n: hi - lo}
	for j := range b.cols {
		out.cols[j] = b.cols[j].Slice(lo, hi)
	}
	return out
}

// SliceInto writes the zero-copy sub-batch [lo, hi) into out, reusing
// out's column storage: the allocation-free form of Slice for operators
// that chunk a batch repeatedly. The result aliases b's vectors and is
// only valid until the next SliceInto on the same out — callers hand it
// to consumers that fully process one batch before requesting the next.
func (b *Batch) SliceInto(out *Batch, lo, hi int) *Batch {
	cols := out.cols[:0]
	*out = Batch{Schema: b.Schema, n: hi - lo}
	if b.cols == nil {
		out.rows = b.rows[lo:hi:hi]
		return out
	}
	if cap(cols) < len(b.cols) {
		cols = make([]Col, len(b.cols))
	}
	out.cols = cols[:len(b.cols)]
	for j := range b.cols {
		out.cols[j] = b.cols[j].Slice(lo, hi)
	}
	return out
}

// Project returns a batch holding the selected columns under the given
// output schema, in b's form: zero-copy over columns, the projected tuples
// in one value slab over rows.
func (b *Batch) Project(idx []int, out *schema.Schema) *Batch {
	if b.cols == nil {
		w := len(idx)
		slab := make([]value.Value, b.n*w)
		rows := make([]tuple.Tuple, b.n)
		for i, t := range b.rows {
			row := slab[i*w : (i+1)*w : (i+1)*w]
			for j, src := range idx {
				row[j] = t[src]
			}
			rows[i] = tuple.Tuple(row)
		}
		return &Batch{Schema: out, n: b.n, rows: rows}
	}
	res := &Batch{Schema: out, cols: make([]Col, len(idx)), n: b.n}
	for j, src := range idx {
		res.cols[j] = b.cols[src].Slice(0, b.n)
	}
	return res
}

// Gather returns a new batch holding the selected rows, in sel order: the
// Concat of the one part (b, sel).
func (b *Batch) Gather(sel []int32) *Batch {
	return Concat(b.Schema, []Part{{B: b, Sel: picked(sel)}})
}

// picked returns sel as a Part's selection of those rows: a nil sel, no
// rows, is not the Part of every row.
func picked(sel []int32) []int32 {
	if sel == nil {
		return []int32{}
	}
	return sel
}

// Pick returns a new batch holding the selected rows, in sel order, in the
// form FromRows gives that many rows whatever b's form: row form under
// Floor rows, columns at Floor or more. The split builders store their
// alternatives through it, so a one-row alternative picked from a columnar
// source is one tuple, not a header per column.
func (b *Batch) Pick(sel []int32) *Batch {
	if b.cols == nil || len(sel) >= Floor {
		return b.Gather(sel)
	}
	rows := make([]tuple.Tuple, len(sel))
	for i, s := range sel {
		rows[i] = b.Row(int(s))
	}
	return &Batch{Schema: b.Schema, n: len(sel), rows: rows}
}

// Update returns b with, for each t in order, the cells of column idx[t] at
// the rows sel (ascending) replaced by column t of vals — one row of vals
// per selected row — so a later t overwrites an earlier one on the same
// column. b's form is kept. Over columns the updated columns are fresh
// copies and every other column is shared zero-copy with b behind a
// capacity-clamped slice, as Slice shares it; over rows each selected tuple
// is a fresh clone and every other tuple is shared. Either way an append to
// either batch never reaches the other.
func (b *Batch) Update(sel []int32, idx []int, vals *Batch) *Batch {
	if b.cols == nil {
		rows := slices.Clone(b.rows)
		for k, s := range sel {
			t := rows[s].Clone()
			for c, j := range idx {
				t[j] = vals.At(k, c)
			}
			rows[s] = t
		}
		return &Batch{Schema: b.Schema, n: b.n, rows: rows}
	}
	out := b.Slice(0, b.n)
	for t, j := range idx {
		out.cols[j] = out.cols[j].scatter(b.n, sel, vals.Col(t))
	}
	return out
}

// scatter returns a copy of c's n cells with the cells at rows sel replaced
// by src's cells 0..len(sel)-1. Typed columns of one kind copy and overwrite
// their payloads; any other pair is rebuilt cell by cell, degrading as
// Append does.
func (c *Col) scatter(n int, sel []int32, src *Col) Col {
	if c.Any != nil || src.Any != nil || c.Kind != src.Kind || c.Kind == value.KindNull {
		var out Col
		k := 0
		for i := 0; i < n; i++ {
			if k < len(sel) && int(sel[k]) == i {
				out.append(i, src.Value(k))
				k++
			} else {
				out.append(i, c.Value(i))
			}
		}
		return out
	}
	out := Col{Kind: c.Kind}
	if c.Nulls != nil || src.Nulls != nil {
		out.Nulls = make([]bool, n)
		if c.Nulls != nil {
			copy(out.Nulls, c.Nulls[:n])
		}
		for k, s := range sel {
			out.Nulls[s] = src.Nulls != nil && src.Nulls[k]
		}
	}
	switch c.Kind {
	case value.KindInt:
		out.Ints = append([]int64(nil), c.Ints[:n]...)
		for k, s := range sel {
			out.Ints[s] = src.Ints[k]
		}
	case value.KindFloat:
		out.Floats = append([]float64(nil), c.Floats[:n]...)
		for k, s := range sel {
			out.Floats[s] = src.Floats[k]
		}
	case value.KindString:
		out.Strs = append([]string(nil), c.Strs[:n]...)
		for k, s := range sel {
			out.Strs[s] = src.Strs[k]
		}
	case value.KindBool:
		out.Bools = append([]bool(nil), c.Bools[:n]...)
		for k, s := range sel {
			out.Bools[s] = src.Bools[k]
		}
	}
	return out
}

// GatherConcat builds the join-output batch: for each i, the row l[lsel[i]]
// concatenated with r[rsel[i]], under schema out. Two row-form sides give
// row-form output under Floor rows, the concatenated tuples laid out in one
// value slab; otherwise the output is columnar.
func GatherConcat(out *schema.Schema, l *Batch, lsel []int32, r *Batch, rsel []int32) *Batch {
	lw, rw := l.Width(), r.Width()
	if l.cols == nil && r.cols == nil && len(lsel) < Floor {
		w := lw + rw
		slab := make([]value.Value, len(lsel)*w)
		rows := make([]tuple.Tuple, len(lsel))
		for i := range lsel {
			row := slab[i*w : (i+1)*w : (i+1)*w]
			copy(row, l.rows[lsel[i]])
			copy(row[lw:], r.rows[rsel[i]])
			rows[i] = tuple.Tuple(row)
		}
		return &Batch{Schema: out, n: len(rows), rows: rows}
	}
	res := &Batch{Schema: out, cols: make([]Col, lw+rw), n: len(lsel)}
	lp, rp := []Part{{B: l, Sel: picked(lsel)}}, []Part{{B: r, Sel: picked(rsel)}}
	for j := range lw {
		res.cols[j] = concatCol(lp, j, res.n)
	}
	for j := range rw {
		res.cols[lw+j] = concatCol(rp, j, res.n)
	}
	return res
}

// Rows materializes the batch as row tuples. For columnar batches the
// values are laid out in one slab, with each row a capacity-clamped
// sub-slice, so downstream appends reallocate rather than overlap. For
// row-form batches the stored rows are returned as-is.
func (b *Batch) Rows() []tuple.Tuple {
	if b.cols == nil {
		return b.rows
	}
	n, w := b.n, len(b.cols)
	rows := make([]tuple.Tuple, n)
	if w == 0 {
		for i := range rows {
			rows[i] = tuple.Tuple{}
		}
		return rows
	}
	slab := make([]value.Value, n*w)
	for j := range b.cols {
		c := &b.cols[j]
		switch {
		case c.Any != nil:
			for i := 0; i < n; i++ {
				slab[i*w+j] = c.Any[i]
			}
		case c.Kind == value.KindNull:
			// slab zero value is already NULL
		case c.Kind == value.KindInt:
			for i := 0; i < n; i++ {
				if c.Nulls == nil || !c.Nulls[i] {
					slab[i*w+j] = value.Int(c.Ints[i])
				}
			}
		case c.Kind == value.KindFloat:
			for i := 0; i < n; i++ {
				if c.Nulls == nil || !c.Nulls[i] {
					slab[i*w+j] = value.Float(c.Floats[i])
				}
			}
		case c.Kind == value.KindString:
			for i := 0; i < n; i++ {
				if c.Nulls == nil || !c.Nulls[i] {
					slab[i*w+j] = value.Str(c.Strs[i])
				}
			}
		case c.Kind == value.KindBool:
			for i := 0; i < n; i++ {
				if c.Nulls == nil || !c.Nulls[i] {
					slab[i*w+j] = value.Bool(c.Bools[i])
				}
			}
		}
	}
	for i := range rows {
		rows[i] = tuple.Tuple(slab[i*w : (i+1)*w : (i+1)*w])
	}
	return rows
}

// Row returns row i: the stored tuple of a row-form batch, a fresh one
// materialized from columns otherwise.
func (b *Batch) Row(i int) tuple.Tuple {
	if b.cols == nil {
		return b.rows[i]
	}
	out := make(tuple.Tuple, len(b.cols))
	for j := range b.cols {
		out[j] = b.cols[j].Value(i)
	}
	return out
}

// AppendKeyOn appends the canonical encoding (tuple.KeyOn) of row i
// restricted to cols to dst, reusing dst's capacity — the byte-arena
// replacement for per-tuple Key() strings on hash and dedup paths.
func (b *Batch) AppendKeyOn(dst []byte, cols []int, i int) []byte {
	if b.cols == nil {
		t := b.rows[i]
		for _, j := range cols {
			dst = t[j].Encode(dst)
		}
		return dst
	}
	for _, j := range cols {
		dst = b.cols[j].appendKey(dst, i)
	}
	return dst
}

// HashKeysOn sets hashes[k] to a 64-bit hash of row rows[k] restricted to
// cols, computed column at a time. Rows whose AppendKeyOn encodings are
// equal hash alike: a typed cell hashes by its payload, a NULL as one
// constant, a generic or row-form cell by its kind's payload. Rows of one
// hash may still differ; SameKeyOn tells.
func (b *Batch) HashKeysOn(cols []int, rows []int32, hashes []uint64) {
	clear(hashes)
	for _, j := range cols {
		if b.cols == nil {
			for k, r := range rows {
				hashes[k] = mixHash(hashes[k], valueHash(b.rows[r][j]))
			}
			continue
		}
		b.cols[j].hashInto(rows, hashes)
	}
}

// hashInto folds the hashes of c's cells at rows into hashes.
func (c *Col) hashInto(rows []int32, hashes []uint64) {
	null := func(r int32) bool { return c.Nulls != nil && c.Nulls[r] }
	switch {
	case c.Any != nil:
		for k, r := range rows {
			hashes[k] = mixHash(hashes[k], valueHash(c.Any[r]))
		}
	case c.Kind == value.KindNull:
		for k := range rows {
			hashes[k] = mixHash(hashes[k], nullHash)
		}
	case c.Kind == value.KindInt:
		for k, r := range rows {
			x := uint64(c.Ints[r])
			if null(r) {
				x = nullHash
			}
			hashes[k] = mixHash(hashes[k], x)
		}
	case c.Kind == value.KindFloat:
		for k, r := range rows {
			x := math.Float64bits(c.Floats[r])
			if null(r) {
				x = nullHash
			}
			hashes[k] = mixHash(hashes[k], x)
		}
	case c.Kind == value.KindString:
		for k, r := range rows {
			x := uint64(nullHash)
			if !null(r) {
				x = maphash.String(keySeed, c.Strs[r])
			}
			hashes[k] = mixHash(hashes[k], x)
		}
	default:
		for k, r := range rows {
			x := uint64(0)
			if null(r) {
				x = nullHash
			} else if c.Bools[r] {
				x = 1
			}
			hashes[k] = mixHash(hashes[k], x)
		}
	}
}

// keySeed seeds the hashes of TEXT cells.
var keySeed = maphash.MakeSeed()

// nullHash is the payload hash of a NULL cell.
const nullHash = 0x6e756c6c

// valueHash hashes v as hashInto hashes a typed cell of its kind.
func valueHash(v value.Value) uint64 {
	switch v.Kind() {
	case value.KindInt:
		return uint64(v.AsInt())
	case value.KindFloat:
		return math.Float64bits(v.AsFloat())
	case value.KindString:
		return maphash.String(keySeed, v.AsStr())
	case value.KindBool:
		if v.AsBool() {
			return 1
		}
		return 0
	}
	return nullHash
}

// mixHash folds the hash x of one more key cell into the row hash h.
func mixHash(h, x uint64) uint64 {
	h = (h ^ x) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// SameKeyOn reports whether rows i and j have equal AppendKeyOn encodings
// on cols, compared cell by cell: both NULL, or of one kind and payload,
// floats by their bits.
func (b *Batch) SameKeyOn(cols []int, i, j int) bool {
	for _, c := range cols {
		if b.cols == nil {
			if !sameValue(b.rows[i][c], b.rows[j][c]) {
				return false
			}
		} else if !b.cols[c].sameCell(i, j) {
			return false
		}
	}
	return true
}

// sameCell reports whether c's cells i and j encode alike.
func (c *Col) sameCell(i, j int) bool {
	if c.Any != nil {
		return sameValue(c.Any[i], c.Any[j])
	}
	if ni, nj := c.Null(i), c.Null(j); ni || nj {
		return ni == nj
	}
	switch c.Kind {
	case value.KindInt:
		return c.Ints[i] == c.Ints[j]
	case value.KindFloat:
		return math.Float64bits(c.Floats[i]) == math.Float64bits(c.Floats[j])
	case value.KindString:
		return c.Strs[i] == c.Strs[j]
	}
	return c.Bools[i] == c.Bools[j]
}

// sameValue reports whether a and b encode alike (value.Encode): one kind
// and payload, floats compared by their bits.
func sameValue(a, b value.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case value.KindInt:
		return a.AsInt() == b.AsInt()
	case value.KindFloat:
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
	case value.KindString:
		return a.AsStr() == b.AsStr()
	case value.KindBool:
		return a.AsBool() == b.AsBool()
	}
	return true
}

// AppendKey appends the canonical full-row encoding (tuple.Encode) of row i
// to dst.
func (b *Batch) AppendKey(dst []byte, i int) []byte {
	if b.cols == nil {
		return b.rows[i].Encode(dst)
	}
	for j := range b.cols {
		dst = b.cols[j].appendKey(dst, i)
	}
	return dst
}

// HasNullAt reports whether row i is NULL in any of the given columns.
func (b *Batch) HasNullAt(cols []int, i int) bool {
	if b.cols == nil {
		for _, j := range cols {
			if b.rows[i][j].IsNull() {
				return true
			}
		}
		return false
	}
	for _, j := range cols {
		if b.cols[j].Null(i) {
			return true
		}
	}
	return false
}

// ColBuilder accumulates values into a column, degrading representation as
// values demand (the same logic Batch.Append uses per column).
type ColBuilder struct {
	col Col
	n   int
}

// Append adds v as the next cell.
func (cb *ColBuilder) Append(v value.Value) {
	cb.col.append(cb.n, v)
	cb.n++
}

// AppendInt adds the INTEGER x as the next cell: straight onto the payload
// vector of an integer column, else as Append(value.Int(x)) does.
func (cb *ColBuilder) AppendInt(x int64) {
	c := &cb.col
	if c.Kind != value.KindInt || c.Any != nil {
		cb.Append(value.Int(x))
		return
	}
	if c.Nulls != nil {
		c.Nulls = append(c.Nulls, false)
	}
	c.Ints = append(c.Ints, x)
	cb.n++
}

// AppendStr adds the TEXT s as the next cell, as AppendInt does.
func (cb *ColBuilder) AppendStr(s string) {
	c := &cb.col
	if c.Kind != value.KindString || c.Any != nil {
		cb.Append(value.Str(s))
		return
	}
	if c.Nulls != nil {
		c.Nulls = append(c.Nulls, false)
	}
	c.Strs = append(c.Strs, s)
	cb.n++
}

// Grow makes room for n more cells in the column's vectors, so that a
// loader that can estimate its row count sizes its columns once. An
// all-NULL column, whose kind is not known yet, has no vectors to grow.
func (cb *ColBuilder) Grow(n int) {
	c := &cb.col
	switch {
	case c.Any != nil:
		c.Any = slices.Grow(c.Any, n)
	case c.Kind == value.KindInt:
		c.Ints = slices.Grow(c.Ints, n)
	case c.Kind == value.KindFloat:
		c.Floats = slices.Grow(c.Floats, n)
	case c.Kind == value.KindString:
		c.Strs = slices.Grow(c.Strs, n)
	case c.Kind == value.KindBool:
		c.Bools = slices.Grow(c.Bools, n)
	}
	if c.Nulls != nil {
		c.Nulls = slices.Grow(c.Nulls, n)
	}
}

// SetStr sets cell i, appended as TEXT, to s: a loader can append a TEXT
// cell before the string that holds its bytes exists.
func (cb *ColBuilder) SetStr(i int, s string) {
	if c := &cb.col; c.Any != nil {
		c.Any[i] = value.Str(s)
	} else {
		c.Strs[i] = s
	}
}

// Col returns the built column.
func (cb *ColBuilder) Col() Col { return cb.col }

// Len returns the number of cells appended.
func (cb *ColBuilder) Len() int { return cb.n }

// FromCols assembles a columnar batch directly from built columns (each of
// length n).
func FromCols(sch *schema.Schema, cols []Col, n int) *Batch {
	if cols == nil {
		cols = []Col{}
	}
	return &Batch{Schema: sch, cols: cols, n: n}
}
