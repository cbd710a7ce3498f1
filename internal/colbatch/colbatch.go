// Package colbatch implements typed columnar batches of tuples: the storage
// format of relations and of the vectorized read path. A Batch holds one
// typed vector per column (int64 / float64 / string / bool payloads plus a
// null bitmap), with a generic value fallback for mixed-kind columns, and
// supports the operations batch operators need — batch-at-a-time append,
// zero-copy column projection and row slicing, selection-vector gather,
// slab-allocated row materialization, and canonical key encoding into a
// reusable byte arena.
//
// The batch is the truth; rows are a view. relation.Relation stores its
// contents as a Batch (columnar when built by the loaders and closure
// builders, row-backed via FromRowsShared when built tuple-at-a-time), and
// Rows() materializes tuples only when a row path asks: a batch's Rows()
// are value-for-value identical to the rows it was built from, and
// AppendKeyOn produces exactly the bytes of tuple.KeyOn / value.Encode.
// Batches are treated as immutable once handed to a consumer; builders
// append, consumers only read. Zero-copy slices are capacity-clamped, so a
// stored batch sliced out of a larger one (factorized CTAS contributions,
// import conflict groups) never aliases appends with its parent.
//
// Since the batch-native closure seam landed, batches are also the currency
// past algebra.CollectBatch: the wsd closure builders union/dedup/merge on
// AppendKey arena keys and assemble outputs with AppendBatch/AppendGather,
// materializing rows once at the very end (one Rows() slab) instead of per
// evaluation. Row-backed batches (FromRowsShared) are the lazy row view of
// that seam — they wrap already-materialized tuples with zero copying, their
// Rows() is free, and AppendKey degrades to tuple.Encode on the shared rows,
// so row-backed and columnar answers, and the naive engine's, run through
// the same closure code with identical bytes.
package colbatch

import (
	"math"

	"maybms/internal/schema"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

// Floor is the row count below which a columnar batch does not pay for
// itself: its fixed cost (headers, one small slice per column, per-operator
// column work) outweighs what column-at-a-time work saves on so few rows.
// It is read in one place: algebra's Scan emits the columnar form of a
// relation of at least Floor rows and the relation's store as it is
// otherwise, and every other operator follows the representation it is
// handed.
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

// gather returns a new column holding c's cells at the selected rows.
func (c *Col) gather(sel []int32) Col {
	n := len(sel)
	if c.Any != nil {
		out := make([]value.Value, n)
		for i, s := range sel {
			out[i] = c.Any[s]
		}
		return Col{Any: out}
	}
	if c.Kind == value.KindNull {
		return Col{}
	}
	out := Col{Kind: c.Kind}
	if c.Nulls != nil {
		out.Nulls = make([]bool, n)
		for i, s := range sel {
			out.Nulls[i] = c.Nulls[s]
		}
	}
	switch c.Kind {
	case value.KindInt:
		out.Ints = make([]int64, n)
		for i, s := range sel {
			out.Ints[i] = c.Ints[s]
		}
	case value.KindFloat:
		out.Floats = make([]float64, n)
		for i, s := range sel {
			out.Floats[i] = c.Floats[s]
		}
	case value.KindString:
		out.Strs = make([]string, n)
		for i, s := range sel {
			out.Strs[i] = c.Strs[s]
		}
	case value.KindBool:
		out.Bools = make([]bool, n)
		for i, s := range sel {
			out.Bools[i] = c.Bools[s]
		}
	}
	return out
}

// slice returns a zero-copy view of rows [lo, hi). The sub-slices are
// capacity-clamped so a later append through the view reallocates instead
// of clobbering the parent's cells past hi — sliced views are safe to hand
// out as independent stored batches (copy-on-write).
func (c *Col) slice(lo, hi int) Col {
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

// appendAll appends all n cells of src to c (whose current length is at).
func (c *Col) appendAll(at int, src *Col, n int) {
	if src.Any != nil || c.Any != nil || (c.Kind != value.KindNull && src.Kind != value.KindNull && c.Kind != src.Kind) {
		// Mixed shapes: degrade to generic and copy cell-wise.
		if c.Any == nil {
			c.degrade(at)
		}
		for i := 0; i < n; i++ {
			c.Any = append(c.Any, src.Value(i))
		}
		return
	}
	if src.Kind == value.KindNull {
		if c.Kind == value.KindNull {
			return
		}
		for i := 0; i < n; i++ {
			c.appendNull(at + i)
		}
		return
	}
	if c.Kind == value.KindNull {
		if at > 0 {
			c.Nulls = make([]bool, at)
			for i := range c.Nulls {
				c.Nulls[i] = true
			}
		}
		c.Kind = src.Kind
		c.grow(at)
	}
	if c.Nulls != nil || src.Nulls != nil {
		if c.Nulls == nil {
			c.Nulls = make([]bool, at)
		}
		if src.Nulls != nil {
			c.Nulls = append(c.Nulls, src.Nulls[:n]...)
		} else {
			c.Nulls = append(c.Nulls, make([]bool, n)...)
		}
	}
	switch c.Kind {
	case value.KindInt:
		c.Ints = append(c.Ints, src.Ints[:n]...)
	case value.KindFloat:
		c.Floats = append(c.Floats, src.Floats[:n]...)
	case value.KindString:
		c.Strs = append(c.Strs, src.Strs[:n]...)
	case value.KindBool:
		c.Bools = append(c.Bools, src.Bools[:n]...)
	}
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

// Batch is a fixed-schema batch of rows in columnar form. rows, when
// non-nil, is a row-backed batch (produced by FromRowsShared): columns are
// materialized lazily and Rows() is free.
type Batch struct {
	Schema *schema.Schema
	cols   []Col
	n      int
	rows   []tuple.Tuple // non-nil for row-backed batches
}

// New returns an empty batch with the given schema.
func New(sch *schema.Schema) *Batch {
	return &Batch{Schema: sch, cols: make([]Col, sch.Len())}
}

// FromRows builds a columnar batch from rows (each of the schema's width).
func FromRows(sch *schema.Schema, rows []tuple.Tuple) *Batch {
	b := New(sch)
	for _, t := range rows {
		b.Append(t)
	}
	return b
}

// FromRowsShared wraps already materialized rows as a row-backed batch
// without columnarizing: Rows() returns the slice as-is. The caller must
// treat the rows as immutable.
func FromRowsShared(sch *schema.Schema, rows []tuple.Tuple) *Batch {
	if rows == nil {
		// A nil slice would make the batch look columnar (RowBacked is
		// rows != nil); pin the row-backed representation with an empty one.
		rows = make([]tuple.Tuple, 0)
	}
	return &Batch{Schema: sch, n: len(rows), rows: rows}
}

// Len returns the number of rows.
func (b *Batch) Len() int { return b.n }

// RowBacked reports whether the batch is a row-backed view (FromRowsShared):
// its Rows() are the original tuples, returned without materialization.
func (b *Batch) RowBacked() bool { return b.rows != nil }

// WithSchema returns a shallow view of the batch under a different schema of
// the same width (the columnar counterpart of Relation.WithSchema).
func (b *Batch) WithSchema(sch *schema.Schema) *Batch {
	out := *b
	out.Schema = sch
	return &out
}

// Width returns the number of columns.
func (b *Batch) Width() int {
	if b.rows != nil {
		return b.Schema.Len()
	}
	return len(b.cols)
}

// Col returns column j. On a row-backed batch the column is materialized
// generically on demand.
func (b *Batch) Col(j int) *Col {
	if b.rows != nil {
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
	if b.rows != nil {
		return b.rows[i][j]
	}
	return b.cols[j].Value(i)
}

// Append adds one row to the batch.
func (b *Batch) Append(t tuple.Tuple) {
	if b.rows != nil {
		b.rows = append(b.rows, t)
		b.n++
		return
	}
	for j := range b.cols {
		b.cols[j].append(b.n, t[j])
	}
	b.n++
}

// AppendBatch appends all rows of src to b. The schemas must have the same
// width.
func (b *Batch) AppendBatch(src *Batch) {
	if b.rows != nil {
		b.rows = append(b.rows, src.Rows()...)
		b.n += src.n
		return
	}
	if src.rows != nil {
		for _, t := range src.rows {
			b.Append(t)
		}
		return
	}
	for j := range b.cols {
		b.cols[j].appendAll(b.n, &src.cols[j], src.n)
	}
	b.n += src.n
}

// AppendGather appends src's rows at the selected indexes to b, in sel
// order — the gather-append the closure builders use to keep only
// first-appearance rows without materializing an intermediate batch. The
// schemas must have the same width.
func (b *Batch) AppendGather(src *Batch, sel []int32) {
	if b.rows != nil {
		if src.rows != nil {
			for _, s := range sel {
				b.rows = append(b.rows, src.rows[s])
			}
		} else {
			for _, s := range sel {
				b.rows = append(b.rows, src.Row(int(s)))
			}
		}
		b.n += len(sel)
		return
	}
	if src.rows != nil {
		for _, s := range sel {
			b.Append(src.rows[s])
		}
		return
	}
	for j := range b.cols {
		b.cols[j].appendGather(b.n, &src.cols[j], sel)
	}
	b.n += len(sel)
}

// appendGather appends src's cells at the selected rows to c (whose current
// length is at).
func (c *Col) appendGather(at int, src *Col, sel []int32) {
	if src.Any != nil || c.Any != nil || (c.Kind != value.KindNull && src.Kind != value.KindNull && c.Kind != src.Kind) {
		// Mixed shapes: degrade to generic and copy cell-wise.
		if c.Any == nil {
			c.degrade(at)
		}
		for _, s := range sel {
			c.Any = append(c.Any, src.Value(int(s)))
		}
		return
	}
	if src.Kind == value.KindNull {
		if c.Kind == value.KindNull {
			return
		}
		for i := range sel {
			c.appendNull(at + i)
		}
		return
	}
	if c.Kind == value.KindNull {
		if at > 0 {
			c.Nulls = make([]bool, at)
			for i := range c.Nulls {
				c.Nulls[i] = true
			}
		}
		c.Kind = src.Kind
		c.grow(at)
	}
	if c.Nulls != nil || src.Nulls != nil {
		if c.Nulls == nil {
			c.Nulls = make([]bool, at)
		}
		if src.Nulls != nil {
			for _, s := range sel {
				c.Nulls = append(c.Nulls, src.Nulls[s])
			}
		} else {
			c.Nulls = append(c.Nulls, make([]bool, len(sel))...)
		}
	}
	switch c.Kind {
	case value.KindInt:
		for _, s := range sel {
			c.Ints = append(c.Ints, src.Ints[s])
		}
	case value.KindFloat:
		for _, s := range sel {
			c.Floats = append(c.Floats, src.Floats[s])
		}
	case value.KindString:
		for _, s := range sel {
			c.Strs = append(c.Strs, src.Strs[s])
		}
	case value.KindBool:
		for _, s := range sel {
			c.Bools = append(c.Bools, src.Bools[s])
		}
	}
}

// ExtendFloat returns the batch extended with a trailing float column (the
// closure builders' conf column), under the given output schema. vals must
// have one entry per row. Row-backed batches extend row-wise (each output
// row is a fresh tuple); columnar batches share their existing vectors.
func (b *Batch) ExtendFloat(out *schema.Schema, vals []float64) *Batch {
	if b.rows != nil {
		rows := make([]tuple.Tuple, b.n)
		for i, t := range b.rows {
			rows[i] = append(t.Clone(), value.Float(vals[i]))
		}
		return &Batch{Schema: out, n: b.n, rows: rows}
	}
	cols := make([]Col, len(b.cols)+1)
	copy(cols, b.cols)
	cols[len(b.cols)] = Col{Kind: value.KindFloat, Floats: vals}
	return &Batch{Schema: out, cols: cols, n: b.n}
}

// Slice returns a zero-copy view of rows [lo, hi).
func (b *Batch) Slice(lo, hi int) *Batch {
	if b.rows != nil {
		return &Batch{Schema: b.Schema, n: hi - lo, rows: b.rows[lo:hi:hi]}
	}
	out := &Batch{Schema: b.Schema, cols: make([]Col, len(b.cols)), n: hi - lo}
	for j := range b.cols {
		out.cols[j] = b.cols[j].slice(lo, hi)
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
	if b.rows != nil {
		out.rows = b.rows[lo:hi:hi]
		return out
	}
	if cap(cols) < len(b.cols) {
		cols = make([]Col, len(b.cols))
	}
	out.cols = cols[:len(b.cols)]
	for j := range b.cols {
		out.cols[j] = b.cols[j].slice(lo, hi)
	}
	return out
}

// Project returns a zero-copy batch holding the selected columns under the
// given output schema.
func (b *Batch) Project(idx []int, out *schema.Schema) *Batch {
	res := &Batch{Schema: out, cols: make([]Col, len(idx)), n: b.n}
	for j, src := range idx {
		res.cols[j] = *b.Col(src)
	}
	return res
}

// Gather returns a new batch holding the selected rows, in sel order.
func (b *Batch) Gather(sel []int32) *Batch {
	if b.rows != nil {
		rows := make([]tuple.Tuple, len(sel))
		for i, s := range sel {
			rows[i] = b.rows[s]
		}
		return &Batch{Schema: b.Schema, n: len(sel), rows: rows}
	}
	out := &Batch{Schema: b.Schema, cols: make([]Col, len(b.cols)), n: len(sel)}
	for j := range b.cols {
		out.cols[j] = b.cols[j].gather(sel)
	}
	return out
}

// Update returns b with, for each t in order, the cells of column idx[t] at
// the rows sel (ascending) replaced by the cells of cols[t] — one per
// selected row — so a later t overwrites an earlier one on the same column.
// The updated columns are fresh copies; every other column is shared
// zero-copy with b behind a capacity-clamped slice, as Slice shares it, so
// an append to either batch never reaches the other. b must be columnar.
func (b *Batch) Update(sel []int32, idx []int, cols []Col) *Batch {
	out := b.Slice(0, b.n)
	for t, j := range idx {
		out.cols[j] = out.cols[j].scatter(b.n, sel, &cols[t])
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
// concatenated with r[rsel[i]], under schema out. Two row-backed sides give
// row-backed output, the concatenated tuples laid out in one value slab;
// otherwise the output is columnar.
func GatherConcat(out *schema.Schema, l *Batch, lsel []int32, r *Batch, rsel []int32) *Batch {
	lw, rw := l.Width(), r.Width()
	if l.rows != nil && r.rows != nil {
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
	for j := 0; j < lw; j++ {
		res.cols[j] = l.gatherCol(j, lsel)
	}
	for j := 0; j < rw; j++ {
		res.cols[lw+j] = r.gatherCol(j, rsel)
	}
	return res
}

// gatherCol returns column j's cells at the selected rows as a new column.
func (b *Batch) gatherCol(j int, sel []int32) Col {
	if b.rows == nil {
		return b.cols[j].gather(sel)
	}
	var c Col
	for i, s := range sel {
		c.append(i, b.rows[s][j])
	}
	return c
}

// Rows materializes the batch as row tuples. For columnar batches the
// values are laid out in one slab, with each row a capacity-clamped
// sub-slice, so downstream appends reallocate rather than overlap. For
// row-backed batches the underlying rows are returned as-is.
func (b *Batch) Rows() []tuple.Tuple {
	if b.rows != nil {
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

// Row materializes the single row i as a fresh tuple.
func (b *Batch) Row(i int) tuple.Tuple {
	if b.rows != nil {
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
	if b.rows != nil {
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

// AppendKey appends the canonical full-row encoding (tuple.Encode) of row i
// to dst.
func (b *Batch) AppendKey(dst []byte, i int) []byte {
	if b.rows != nil {
		return b.rows[i].Encode(dst)
	}
	for j := range b.cols {
		dst = b.cols[j].appendKey(dst, i)
	}
	return dst
}

// HasNullAt reports whether row i is NULL in any of the given columns.
func (b *Batch) HasNullAt(cols []int, i int) bool {
	if b.rows != nil {
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

// Col returns the built column.
func (cb *ColBuilder) Col() Col { return cb.col }

// Len returns the number of cells appended.
func (cb *ColBuilder) Len() int { return cb.n }

// FromCols assembles a batch directly from built columns (each of length n).
func FromCols(sch *schema.Schema, cols []Col, n int) *Batch {
	return &Batch{Schema: sch, cols: cols, n: n}
}
