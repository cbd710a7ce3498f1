package colbatch

import (
	"bytes"
	"fmt"
	"testing"

	"maybms/internal/schema"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

// FuzzBatchForm runs random sequences of the batch constructors and
// operations — FromRows at and around Floor, Append, Concat of parts of
// mixed forms under nil, empty and repeating selections, Gather and Pick
// with repeated indexes, GatherConcat, Slice, WithSchema, Project, Extend and
// Update — beside a plain []tuple.Tuple reference of every batch, and checks
// after each step that a row-form batch holds fewer than Floor rows (and
// that Pick's form is FromRows' for its row count, Concat's row form only
// for row-form parts of fewer than Floor rows in all) and that Rows, At,
// AppendKey and AppendKeyOn equal the reference. The cells are drawn of
// every kind and NULL, so parts disagree on a column's kind.
func FuzzBatchForm(f *testing.F) {
	f.Add([]byte{0, 2, 1, 0, 3, 7, 2, 0, 1, 9})
	f.Add([]byte{0, 1, 0, 0, 4, 2, 1, 1, 0, 3, 1, 0, 40, 5, 6, 7})
	f.Add([]byte{0, 3, 0, 4, 2, 0, 1, 5, 1, 0, 60, 1, 2, 3, 8, 0, 5, 1, 2})
	f.Add([]byte{0, 5, 200, 6, 0, 3, 40, 10, 0, 2, 0, 5, 9, 0, 31})
	f.Add([]byte{9, 0, 1, 0, 1, 0, 1, 0, 1, 0, 2, 1, 0, 3, 1, 0, 35})
	// A columnar batch concatenated with a repeating selection of itself and
	// then whole: typed columns, one with a null bitmap.
	f.Add([]byte{0, 4, 4, 0, 10, 22, 16, 40, 22, 58, 28, 76, 34, 0, 40, 112, 46, 130, 52, 148, 58, 166, 64, 0, 70, 202, 76, 220, 82, 238, 88, 16, 94, 0, 100, 52, 106, 70, 112, 88, 118, 106, 124, 0, 130, 142, 136, 160, 142, 178, 148, 196, 154, 0, 160, 232, 166, 10, 172, 28, 178, 46, 184, 0, 190, 82, 196, 100, 2, 1, 0, 2, 5, 3, 1, 4, 1, 9, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzInput{data: data}
		sch := schema.New("a", "b")
		var pool []*Batch
		var refs [][]tuple.Tuple
		add := func(b *Batch, ref []tuple.Tuple) {
			checkForm(t, b, ref)
			if len(pool) < 6 {
				pool = append(pool, b)
				refs = append(refs, ref)
			}
		}
		pick := func() int { return in.int(len(pool)) }
		for steps := 0; steps < 40 && in.more(); steps++ {
			op := in.int(12)
			if len(pool) == 0 {
				op = 0
			}
			switch op {
			case 0: // FromRows
				rows := in.rows(in.size())
				add(FromRows(sch, rows), append([]tuple.Tuple(nil), rows...))
			case 1: // Append
				i, row := pick(), in.row()
				pool[i].Append(row)
				refs[i] = append(refs[i], row)
				checkForm(t, pool[i], refs[i])
			case 2, 3: // Concat of up to four parts, a batch repeatable
				var parts []Part
				var ref []tuple.Tuple
				rows := true
				for range 1 + in.int(4) {
					i := pick()
					p := Part{B: pool[i]}
					switch in.int(3) {
					case 1:
						p.Sel = []int32{}
					case 2:
						p.Sel = picked(in.sel(len(refs[i])))
					}
					if len(ref)+p.size() > maxRows {
						break
					}
					parts = append(parts, p)
					for k := range p.size() {
						ref = append(ref, refs[i][p.row(k)])
					}
					rows = rows && pool[i].RowBacked()
				}
				out := Concat(sch, parts)
				if want := rows && len(ref) < Floor; out.RowBacked() != want {
					t.Fatalf("Concat of %d rows: row form %v, want %v", len(ref), out.RowBacked(), want)
				}
				add(out, ref)
			case 4: // Gather, and Pick of the same rows
				i := pick()
				sel := in.sel(len(refs[i]))
				ref := gatherRef(refs[i], sel)
				picked := pool[i].Pick(sel)
				if picked.RowBacked() != (len(sel) < Floor) {
					t.Fatalf("Pick of %d rows: row form %v, want %v", len(sel), picked.RowBacked(), len(sel) < Floor)
				}
				checkForm(t, picked, ref)
				add(pool[i].Gather(sel), ref)
			case 5: // GatherConcat
				i, j := pick(), pick()
				lsel := in.sel(len(refs[i]))
				rsel := in.sel(len(refs[j]))
				n := min(len(lsel), len(rsel))
				lsel, rsel = lsel[:n], rsel[:n]
				out := GatherConcat(schema.New("a", "b", "c", "d"), pool[i], lsel, pool[j], rsel)
				ref := make([]tuple.Tuple, n)
				for k := range ref {
					ref[k] = refs[i][lsel[k]].Concat(refs[j][rsel[k]])
				}
				checkForm(t, out, ref)
			case 6: // Slice
				i := pick()
				lo := in.int(len(refs[i]) + 1)
				hi := lo + in.int(len(refs[i])-lo+1)
				add(pool[i].Slice(lo, hi), append([]tuple.Tuple(nil), refs[i][lo:hi]...))
			case 7: // WithSchema
				i := pick()
				add(pool[i].WithSchema(schema.New("x", "y")), append([]tuple.Tuple(nil), refs[i]...))
			case 8: // Extend
				i := pick()
				var cb ColBuilder
				ref := make([]tuple.Tuple, len(refs[i]))
				for k, t := range refs[i] {
					v := value.Float(float64(k) / 4)
					cb.Append(v)
					ref[k] = append(t.Clone(), v)
				}
				checkForm(t, pool[i].Extend(schema.New("a", "b", "conf"), cb.Col()), ref)
			case 9: // Update
				i := pick()
				var sel []int32
				for k := range refs[i] {
					if in.int(3) == 0 {
						sel = append(sel, int32(k))
					}
				}
				var cb ColBuilder
				ref := append([]tuple.Tuple(nil), refs[i]...)
				j := in.int(2)
				for _, s := range sel {
					v := in.value()
					cb.Append(v)
					ref[s] = ref[s].Clone()
					ref[s][j] = v
				}
				add(pool[i].Update(sel, []int{j}, FromCols(schema.New("v"), []Col{cb.Col()}, len(sel))), ref)
			case 10: // New
				add(New(sch), nil)
			case 11: // Project, columns swapped
				i := pick()
				ref := make([]tuple.Tuple, len(refs[i]))
				for k, t := range refs[i] {
					ref[k] = t.Project([]int{1, 0})
				}
				add(pool[i].Project([]int{1, 0}, schema.New("b", "a")), ref)
			}
		}
		for i := range pool {
			checkForm(t, pool[i], refs[i])
		}
	})
}

// maxRows bounds the batches the fuzz grows by appending.
const maxRows = 4000

// checkForm asserts the form invariant and b's contents against ref.
func checkForm(t *testing.T, b *Batch, ref []tuple.Tuple) {
	t.Helper()
	if b.RowBacked() && b.Len() >= Floor {
		t.Fatalf("row-form batch of %d rows (Floor %d)", b.Len(), Floor)
	}
	if b.Len() != len(ref) {
		t.Fatalf("Len %d, reference %d", b.Len(), len(ref))
	}
	rows := b.Rows()
	if len(rows) != len(ref) {
		t.Fatalf("Rows has %d rows, reference %d", len(rows), len(ref))
	}
	var got, want []byte
	for i, r := range ref {
		if got, want = rows[i].Encode(got[:0]), r.Encode(want[:0]); !bytes.Equal(got, want) {
			t.Fatalf("Rows()[%d] = %v, want %v", i, rows[i], r)
		}
		if got = b.AppendKey(got[:0], i); !bytes.Equal(got, want) {
			t.Fatalf("AppendKey(%d) = %x, want %x", i, got, want)
		}
		on := []int{len(r) - 1, 0}
		if got, want = b.AppendKeyOn(got[:0], on, i), r.EncodeOn(want[:0], on); !bytes.Equal(got, want) {
			t.Fatalf("AppendKeyOn(%d) = %x, want %x", i, got, want)
		}
		for j, v := range r {
			if got, want = b.At(i, j).Encode(got[:0]), v.Encode(want[:0]); !bytes.Equal(got, want) {
				t.Fatalf("At(%d, %d) = %v, want %v", i, j, b.At(i, j), v)
			}
		}
	}
	// Two rows have the same key exactly when their encodings are equal,
	// and the same key hashes alike.
	on := []int{1, 0}
	all := make([]int32, len(ref))
	for i := range all {
		all[i] = int32(i)
	}
	hashes := make([]uint64, len(ref))
	b.HashKeysOn(on, all, hashes)
	for i := range ref {
		for i2 := range ref {
			same := bytes.Equal(ref[i].EncodeOn(got[:0], on), ref[i2].EncodeOn(want[:0], on))
			if b.SameKeyOn(on, i, i2) != same || (same && hashes[i] != hashes[i2]) {
				t.Fatalf("rows %d and %d: SameKeyOn %v, encodings equal %v, hashes %x %x", i, i2, b.SameKeyOn(on, i, i2), same, hashes[i], hashes[i2])
			}
		}
	}
}

func gatherRef(ref []tuple.Tuple, sel []int32) []tuple.Tuple {
	out := make([]tuple.Tuple, len(sel))
	for k, s := range sel {
		out[k] = ref[s]
	}
	return out
}

// fuzzInput reads decisions off the fuzz bytes; past their end every
// decision is 0.
type fuzzInput struct {
	data []byte
	pos  int
}

func (in *fuzzInput) more() bool { return in.pos < len(in.data) }

func (in *fuzzInput) byte() byte {
	if in.pos >= len(in.data) {
		return 0
	}
	in.pos++
	return in.data[in.pos-1]
}

// int returns a decision in [0, n), 0 when n <= 0.
func (in *fuzzInput) int(n int) int {
	if n <= 0 {
		return 0
	}
	return int(in.byte()) % n
}

// size returns a row count: one of the sizes around Floor, or up to 2 000.
func (in *fuzzInput) size() int {
	sizes := []int{0, 1, Floor - 1, Floor, Floor + 1}
	if k := in.int(len(sizes) + 1); k < len(sizes) {
		return sizes[k]
	}
	return min(int(in.byte())*8, 2000)
}

// sel returns up to 70 indexes below n, repeats allowed.
func (in *fuzzInput) sel(n int) []int32 {
	if n == 0 {
		return nil
	}
	sel := make([]int32, in.int(71))
	for k := range sel {
		sel[k] = int32(in.int(n))
	}
	return sel
}

func (in *fuzzInput) value() value.Value {
	b := in.byte()
	switch b % 6 {
	case 0:
		return value.Null()
	case 1:
		return value.Str(fmt.Sprint("s", b/6))
	case 2:
		return value.Float(float64(b) / 3)
	case 3:
		return value.Bool(b%2 == 0)
	}
	return value.Int(int64(b / 6))
}

func (in *fuzzInput) row() tuple.Tuple { return tuple.Tuple{in.value(), in.value()} }

func (in *fuzzInput) rows(n int) []tuple.Tuple {
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		rows[i] = in.row()
	}
	return rows
}
