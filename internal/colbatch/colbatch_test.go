package colbatch

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"maybms/internal/schema"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

func mixedRows() []tuple.Tuple {
	return []tuple.Tuple{
		{value.Int(1), value.Float(1.5), value.Str("a"), value.Bool(true)},
		{value.Int(-2), value.Float(math.Inf(-1)), value.Str(""), value.Bool(false)},
		{value.Null(), value.Null(), value.Null(), value.Null()},
		{value.Int(1 << 40), value.Float(0), value.Str("Ü\x00z"), value.Bool(true)},
	}
}

func mixedBatch() *Batch {
	return columnar(schema.New("i", "f", "s", "b"), mixedRows())
}

// columnar builds a columnar batch of rows whatever their number, so a test
// of column behaviour holds under Floor too.
func columnar(sch *schema.Schema, rows []tuple.Tuple) *Batch {
	b := FromCols(sch, make([]Col, sch.Len()), 0)
	for _, t := range rows {
		b.Append(t)
	}
	return b
}

// TestAppendKeyMatchesTupleEncode: the batch key bytes are the contract
// that lets columnar and row-backed batches share hash tables and dedup sets
// keyed by tuple.Encode — they must match byte for byte.
func TestAppendKeyMatchesTupleEncode(t *testing.T) {
	b := mixedBatch()
	for i, row := range mixedRows() {
		want := string(row.Encode(nil))
		if got := string(b.AppendKey(nil, i)); got != want {
			t.Errorf("row %d: AppendKey = %q, want %q", i, got, want)
		}
		// Column-subset keys match the projected tuple's encoding.
		sub := []int{2, 0}
		wantSub := string(tuple.Tuple{row[2], row[0]}.Encode(nil))
		if got := string(b.AppendKeyOn(nil, sub, i)); got != wantSub {
			t.Errorf("row %d: AppendKeyOn(%v) = %q, want %q", i, sub, got, wantSub)
		}
	}
}

// TestRoundTrip: At, Row and Rows reproduce the appended tuples exactly.
func TestRoundTrip(t *testing.T) {
	b := mixedBatch()
	rows := mixedRows()
	if b.Len() != len(rows) || b.Width() != 4 {
		t.Fatalf("shape = %d×%d", b.Len(), b.Width())
	}
	for i, row := range rows {
		if got := string(b.Row(i).Encode(nil)); got != string(row.Encode(nil)) {
			t.Errorf("Row(%d) = %v, want %v", i, b.Row(i), row)
		}
		for j, v := range row {
			if got := b.At(i, j); !value.Equal(got, v) && !(got.IsNull() && v.IsNull()) {
				t.Errorf("At(%d,%d) = %v, want %v", i, j, got, v)
			}
		}
	}
	for i, r := range b.Rows() {
		if got := string(r.Encode(nil)); got != string(rows[i].Encode(nil)) {
			t.Errorf("Rows()[%d] = %v, want %v", i, r, rows[i])
		}
	}
	// The Rows slab is append-safe: growing one row must not clobber the
	// next row's cells (3-index slicing).
	grown := append(b.Rows()[0], value.Int(99))
	_ = grown
	if got := string(b.Rows()[1].Encode(nil)); got != string(rows[1].Encode(nil)) {
		t.Error("appending to one slab row corrupted its neighbour")
	}
}

// TestNullAdoption: a column that starts with NULLs adopts the kind of the
// first non-NULL cell with a backfilled bitmap that stays in sync (the
// bitmap must include an entry for the adopting cell itself).
func TestNullAdoption(t *testing.T) {
	b := columnar(schema.New("x"), []tuple.Tuple{{value.Null()}, {value.Null()}, {value.Int(7)}, {value.Null()}})
	want := []value.Value{value.Null(), value.Null(), value.Int(7), value.Null()}
	for i, w := range want {
		got := b.At(i, 0)
		if w.IsNull() != got.IsNull() || (!w.IsNull() && !value.Equal(got, w)) {
			t.Errorf("At(%d) = %v, want %v", i, got, w)
		}
	}
	// The adoption bug regression: slicing after adoption must not walk a
	// short null bitmap.
	s := b.Slice(1, 4)
	if s.Len() != 3 || !s.At(0, 0).IsNull() || s.At(1, 0).AsInt() != 7 {
		t.Errorf("slice after adoption = %v", s.Rows())
	}
}

// TestDegrade: a kind conflict degrades the column to boxed values without
// losing cells.
func TestDegrade(t *testing.T) {
	b := columnar(schema.New("x"), []tuple.Tuple{{value.Int(1)}, {value.Str("two")}, {value.Null()}})
	if got := b.At(0, 0); got.AsInt() != 1 {
		t.Errorf("cell 0 = %v", got)
	}
	if got := b.At(1, 0); got.AsStr() != "two" {
		t.Errorf("cell 1 = %v", got)
	}
	if !b.At(2, 0).IsNull() {
		t.Error("cell 2 lost its NULL")
	}
}

// TestSliceInto: the reusable window aliases the parent without
// allocating per call, and rewriting it moves the window.
func TestSliceInto(t *testing.T) {
	b := mixedBatch()
	var chunk Batch
	w1 := b.SliceInto(&chunk, 0, 2)
	if w1.Len() != 2 || w1.At(0, 0).AsInt() != 1 {
		t.Fatalf("first window = %v", w1.Rows())
	}
	w2 := b.SliceInto(&chunk, 2, 4)
	if w2 != &chunk || w2.Len() != 2 || !w2.At(0, 0).IsNull() {
		t.Fatalf("second window = %v", w2.Rows())
	}
}

// TestGatherConcat joins selected halves of two batches side by side.
func TestGatherConcat(t *testing.T) {
	l, r := mixedBatch(), mixedBatch()
	out := GatherConcat(l.Schema.Concat(r.Schema), l, []int32{3, 0}, r, []int32{1, 2})
	if out.Len() != 2 || out.Width() != 8 {
		t.Fatalf("shape = %d×%d", out.Len(), out.Width())
	}
	rows := mixedRows()
	want := string(append(rows[3].Clone(), rows[1]...).Encode(nil))
	if got := string(out.Row(0).Encode(nil)); got != want {
		t.Errorf("row 0 = %q, want %q", got, want)
	}
}

// TestFromRowsOwnership: under Floor rows FromRows keeps the caller's
// slice and tuples as they are, without copying; at Floor rows it lays them
// out as columns.
func TestFromRowsOwnership(t *testing.T) {
	sch := schema.New("i", "f", "s", "b")
	rows := mixedRows()
	b := FromRows(sch, rows)
	if got := b.Rows(); !b.RowBacked() || &got[0] != &rows[0] || &got[0][0] != &rows[0][0] {
		t.Error("FromRows copied its input under Floor")
	}
	many := make([]tuple.Tuple, Floor)
	for i := range many {
		many[i] = rows[i%len(rows)]
	}
	if b := FromRows(sch, many); b.RowBacked() || b.Len() != Floor {
		t.Errorf("FromRows of %d rows: row form %v, %d rows", Floor, b.RowBacked(), b.Len())
	}
}

// TestWithSchemaDoesNotAlias: a renamed batch shares its parent's data the
// way Slice does, so appends through the parent and through the renamed
// batch never reach each other, in either form.
func TestWithSchemaDoesNotAlias(t *testing.T) {
	sch := schema.New("x")
	row := func(v int64) tuple.Tuple { return tuple.Tuple{value.Int(v)} }
	for _, form := range []struct {
		name  string
		build func() *Batch
	}{
		{"columnar", func() *Batch { return columnar(sch, nil) }},
		{"rows", func() *Batch { return New(sch) }},
	} {
		parent := form.build()
		for v := range int64(3) { // three appends leave spare capacity
			parent.Append(row(v + 1))
		}
		renamed := parent.WithSchema(schema.New("y"))
		renamed.Append(row(4))
		parent.Append(row(5))
		if got := fmt.Sprint(parent.Rows()); got != "[(1) (2) (3) (5)]" {
			t.Errorf("%s: parent reads %s, want [(1) (2) (3) (5)]", form.name, got)
		}
		if got := fmt.Sprint(renamed.Rows()); got != "[(1) (2) (3) (4)]" {
			t.Errorf("%s: renamed batch reads %s, want [(1) (2) (3) (4)]", form.name, got)
		}
	}
}

func TestColBuilder(t *testing.T) {
	var cb ColBuilder
	for i := 0; i < 3; i++ {
		cb.Append(value.Int(int64(i)))
	}
	cb.Append(value.Null())
	col := cb.Col()
	b := FromCols(schema.New("n"), []Col{col}, cb.Len())
	want := "(0) (1) (2) (NULL)"
	got := fmt.Sprintf("%v %v %v %v", b.Row(0), b.Row(1), b.Row(2), b.Row(3))
	if got != want {
		t.Errorf("builder column = %s, want %s", got, want)
	}
}

// TestColBuilderTyped checks the typed appends against Append: the same
// cells and the same representation, through a NULL backfill and a kind
// change that degrades the column, with room made by Grow on the way and
// TEXT cells appended as "" and set by SetStr.
func TestColBuilderTyped(t *testing.T) {
	for _, vals := range [][]value.Value{
		{value.Int(1), value.Int(-2), value.Null(), value.Int(3)},
		{value.Null(), value.Null(), value.Float(0.5), value.Float(-1)},
		{value.Str("a"), value.Null(), value.Str("b")},
		{value.Int(1), value.Float(1), value.Str("x"), value.Null(), value.Int(2)},
		{value.Str("a"), value.Int(7), value.Str("b"), value.Bool(true)},
	} {
		var typed, ref ColBuilder
		var text []int
		for i, v := range vals {
			ref.Append(v)
			switch v.Kind() {
			case value.KindInt:
				typed.AppendInt(v.AsInt())
			case value.KindString:
				typed.AppendStr("")
				text = append(text, i)
			default:
				typed.Append(v)
			}
			typed.Grow(2)
		}
		for _, i := range text {
			typed.SetStr(i, vals[i].AsStr())
		}
		got, want := typed.Col(), ref.Col()
		if got.Kind != want.Kind || (got.Any == nil) != (want.Any == nil) || (got.Nulls == nil) != (want.Nulls == nil) {
			t.Errorf("%v: typed column is kind %s (generic %v), want %s (generic %v)", vals, got.Kind, got.Any != nil, want.Kind, want.Any != nil)
		}
		for i := range vals {
			if g, w := got.Value(i), want.Value(i); string(g.Encode(nil)) != string(w.Encode(nil)) {
				t.Errorf("%v: cell %d = %v, want %v", vals, i, g, w)
			}
		}
	}
}

// TestConcatKeepsAppendRepresentation: Concat keeps the shape rule it
// documents, for row-form and columnar parts in any order and with nil,
// empty and repeating selections. A column is all-NULL when no part holds a
// non-NULL cell in it; typed when the non-NULL cells share a kind and no
// columnar part's column is generic, with a null bitmap when a columnar
// part's column has one or is all-NULL or a row-form part's picked cells
// hold a NULL; generic otherwise. A columnar part counts by its column
// whatever it picks, a row-form part by the cells it picks. The result is in
// row form exactly when every part is and they pick fewer than Floor rows.
func TestConcatKeepsAppendRepresentation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sch := schema.New("A", "B", "C")
	// A column class: 0 all NULL, 1 INTEGER, 2 INTEGER after a NULL first
	// row, 3 TEXT, 4 TEXT and INTEGER alternating (generic in columns).
	draw := func(class, i int) value.Value {
		switch {
		case class == 0, class == 2 && (i == 0 || i > 1 && rng.Intn(3) == 0):
			return value.Null()
		case class == 3, class == 4 && i%2 == 0:
			return value.Str("x")
		}
		return value.Int(int64(rng.Intn(9)))
	}
	kindOf := []value.Kind{value.KindNull, value.KindInt, value.KindInt, value.KindString}
	for trial := 0; trial < 400; trial++ {
		var parts []Part
		var classes [][]int
		var ref []tuple.Tuple
		rowForm := true
		for p := 1 + rng.Intn(4); p > 0; p-- {
			rows := make([]tuple.Tuple, rng.Intn(40))
			cls := []int{rng.Intn(5), rng.Intn(5), rng.Intn(5)}
			for i := range rows {
				rows[i] = tuple.Tuple{draw(cls[0], i), draw(cls[1], i), draw(cls[2], i)}
			}
			b := FromRows(sch, rows)
			if rng.Intn(3) == 0 {
				b = columnar(sch, rows)
			}
			var sel []int32
			switch rng.Intn(3) {
			case 0: // every row
			case 1:
				sel = []int32{}
			default:
				for range 1 + rng.Intn(40) {
					if len(rows) > 0 {
						sel = append(sel, int32(rng.Intn(len(rows))))
					}
				}
				if sel == nil {
					sel = []int32{}
				}
			}
			part := Part{B: b, Sel: sel}
			for k := range part.size() {
				ref = append(ref, rows[part.row(k)])
			}
			rowForm = rowForm && b.RowBacked()
			parts = append(parts, part)
			classes = append(classes, cls)
		}
		got := Concat(sch, parts)
		checkForm(t, got, ref)
		if want := rowForm && len(ref) < Floor; got.RowBacked() != want {
			t.Fatalf("trial %d: %d rows in row form %v, want %v", trial, len(ref), got.RowBacked(), want)
		}
		if got.RowBacked() {
			continue
		}
		for j := 0; j < sch.Len(); j++ {
			kind, nulls, generic := value.KindNull, false, false
			see := func(k value.Kind) {
				if kind == value.KindNull {
					kind = k
				} else if k != kind {
					generic = true
				}
			}
			for pi, p := range parts {
				cls := classes[pi][j]
				switch {
				case p.B.Len() == 0:
					cls = 0 // an empty column holds no kind
				case p.B.Len() == 1 && cls == 2:
					cls = 0 // its one cell is the NULL
				case p.B.Len() == 1 && cls == 4:
					cls = 3 // its one cell is the TEXT
				}
				switch {
				case p.B.RowBacked():
					for k := range p.size() {
						if v := p.B.At(p.row(k), j); v.IsNull() {
							nulls = true
						} else {
							see(v.Kind())
						}
					}
				case cls == 4:
					generic = true
				default:
					nulls = nulls || cls == 0 || cls == 2
					if cls != 0 {
						see(kindOf[cls])
					}
				}
			}
			c := got.Col(j)
			switch {
			case generic:
				if c.Any == nil {
					t.Fatalf("trial %d column %d: kind %s, want generic", trial, j, c.Kind)
				}
			case c.Any != nil || c.Kind != kind || (kind != value.KindNull && (c.Nulls != nil) != nulls):
				t.Fatalf("trial %d column %d: kind %s (generic %v, null bitmap %v), want %s (null bitmap %v)",
					trial, j, c.Kind, c.Any != nil, c.Nulls != nil, kind, nulls)
			}
		}
	}
}
