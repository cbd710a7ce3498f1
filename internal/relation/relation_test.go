package relation

import (
	"bytes"
	"encoding/csv"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"maybms/internal/schema"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

func row(vals ...any) tuple.Tuple {
	out := make(tuple.Tuple, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case int:
			out[i] = value.Int(int64(x))
		case float64:
			out[i] = value.Float(x)
		case string:
			out[i] = value.Str(x)
		case nil:
			out[i] = value.Null()
		default:
			panic("bad fixture")
		}
	}
	return out
}

func sample() *Relation {
	r := New(schema.New("A", "B"))
	r.MustAppend(row("a1", 10))
	r.MustAppend(row("a1", 15))
	r.MustAppend(row("a2", 14))
	return r
}

func TestAppendWidthCheck(t *testing.T) {
	r := New(schema.New("A", "B"))
	if err := r.Append(row(1)); err == nil {
		t.Error("width mismatch must error")
	}
	if err := r.Append(row(1, 2)); err != nil {
		t.Errorf("valid append failed: %v", err)
	}
}

func TestFromRows(t *testing.T) {
	r, err := FromRows(schema.New("A"), []tuple.Tuple{row(1), row(2)})
	if err != nil || r.Len() != 2 {
		t.Fatalf("FromRows = %v, %v", r, err)
	}
	if _, err := FromRows(schema.New("A"), []tuple.Tuple{row(1, 2)}); err == nil {
		t.Error("FromRows must validate width")
	}
}

func TestMustAppendPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAppend should panic on width mismatch")
		}
	}()
	New(schema.New("A")).MustAppend(row(1, 2))
}

func TestCloneIndependence(t *testing.T) {
	r := sample()
	c := r.Clone()
	c.MustAppend(row("a9", 99))
	if r.Len() != 3 || c.Len() != 4 {
		t.Error("Clone must not share the tuple slice header")
	}
}

func TestWithSchema(t *testing.T) {
	r := sample()
	alias := r.Schema.Qualify("i2")
	v := r.WithSchema(alias)
	if v.Schema.At(0).Qualifier != "i2" {
		t.Error("WithSchema did not take new schema")
	}
	if v.Len() != r.Len() {
		t.Error("WithSchema must share tuples")
	}
	defer func() {
		if recover() == nil {
			t.Error("WithSchema must panic on width mismatch")
		}
	}()
	r.WithSchema(schema.New("X"))
}

func TestDistinct(t *testing.T) {
	r := New(schema.New("A"))
	r.MustAppend(row(1))
	r.MustAppend(row(2))
	r.MustAppend(row(1))
	d := r.Distinct()
	if d.Len() != 2 {
		t.Errorf("Distinct len = %d", d.Len())
	}
	if d.Rows()[0][0].AsInt() != 1 || d.Rows()[1][0].AsInt() != 2 {
		t.Error("Distinct must preserve first-appearance order")
	}
}

// TestContains: a relation's key set holds the encoding of every tuple in
// it and of no other.
func TestContains(t *testing.T) {
	keys := keySet(sample())
	if _, ok := keys[string(row("a1", 15).Encode(nil))]; !ok {
		t.Error("key set missed present tuple")
	}
	if _, ok := keys[string(row("a1", 16).Encode(nil))]; ok {
		t.Error("key set found absent tuple")
	}
}

func TestSortCanonical(t *testing.T) {
	r := New(schema.New("A"))
	r.MustAppend(row(3))
	r.MustAppend(row(1))
	r.MustAppend(row(2))
	s := r.Sort()
	for i, want := range []int64{1, 2, 3} {
		if s.Rows()[i][0].AsInt() != want {
			t.Fatalf("Sort order wrong: %v", s.Rows())
		}
	}
	// original untouched
	if r.Rows()[0][0].AsInt() != 3 {
		t.Error("Sort must not mutate receiver")
	}
}

func TestFingerprintSetSemantics(t *testing.T) {
	a := New(schema.New("A", "B"))
	a.MustAppend(row(1, "x"))
	a.MustAppend(row(2, "y"))
	b := New(schema.New("A", "B"))
	b.MustAppend(row(2, "y"))
	b.MustAppend(row(1, "x"))
	b.MustAppend(row(1, "x")) // duplicate
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("Fingerprint must be order- and duplicate-insensitive")
	}
	c := New(schema.New("A", "B"))
	c.MustAppend(row(1, "x"))
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different sets must differ")
	}
	if !a.EqualSet(b) || a.EqualSet(c) {
		t.Error("EqualSet disagrees with Fingerprint")
	}
}

func TestIntersect(t *testing.T) {
	a := New(schema.New("A"))
	a.MustAppend(row(1))
	a.MustAppend(row(2))
	b := New(schema.New("A"))
	b.MustAppend(row(2))
	b.MustAppend(row(3))

	i := Intersect(a, b)
	if i.Len() != 1 || i.Rows()[0][0].AsInt() != 2 {
		t.Errorf("Intersect = %v", i.Rows())
	}
}

func TestIntersectDedupsReceiver(t *testing.T) {
	a := New(schema.New("A"))
	a.MustAppend(row(1))
	a.MustAppend(row(1))
	b := New(schema.New("A"))
	b.MustAppend(row(1))
	if got := Intersect(a, b).Len(); got != 1 {
		t.Errorf("Intersect must produce a set, got %d tuples", got)
	}
}

func TestStringRendering(t *testing.T) {
	r := sample()
	s := r.String()
	if !strings.Contains(s, "A") || !strings.Contains(s, "a1") {
		t.Errorf("table rendering missing content:\n%s", s)
	}
	e := New(schema.New("X"))
	if !strings.Contains(e.String(), "(empty)") {
		t.Error("empty relation should say (empty)")
	}
}

// writeCSV writes r as CSV with a header row, tuples in canonical order.
func writeCSV(w io.Writer, r *Relation) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Schema.Names()); err != nil {
		return err
	}
	rec := make([]string, r.Schema.Len())
	for _, t := range r.Sort().Rows() {
		for i, v := range t {
			rec[i] = v.String()
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func TestCSVRoundTrip(t *testing.T) {
	r := New(schema.New("A", "B", "C"))
	r.MustAppend(row("a1", 10, 2.5))
	r.MustAppend(row("a2", 20, nil))
	var buf bytes.Buffer
	if err := writeCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualSet(r) {
		t.Errorf("CSV round trip mismatch:\n%s\nvs\n%s", got, r)
	}
	if got.Schema.Names()[2] != "C" {
		t.Error("header lost")
	}
}

// TestReadCSVColumnarEquivalence checks the columnar fast path against a
// reference row-at-a-time loader: identical schema, tuple order and values
// (mixed types per column force the generic column representation too), and
// the loaded relation must carry a columnar view whose keys match the
// materialized tuples byte for byte.
func TestReadCSVColumnarEquivalence(t *testing.T) {
	const src = "A,B,C\n" +
		"a1,10,2.5\n" +
		"a2,20,NULL\n" +
		"a3,true,x\n" + // B flips int→generic, C float→generic
		"a1,10,2.5\n" + // duplicate row preserved
		",0,-3\n"
	got, err := ReadCSV(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}

	// Reference loader: parse each record into a tuple, no batch involved.
	header, rows, err := oracleReadCSV(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	want := New(schema.New(header...))
	for _, tp := range rows {
		want.MustAppend(tp)
	}

	if got.Schema.String() != want.Schema.String() {
		t.Fatalf("schema = %s, want %s", got.Schema, want.Schema)
	}
	if len(got.Rows()) != len(want.Rows()) {
		t.Fatalf("loaded %d tuples, want %d", len(got.Rows()), len(want.Rows()))
	}
	var gk, wk []byte
	for i := range want.Rows() {
		gk = got.Rows()[i].Encode(gk[:0])
		wk = want.Rows()[i].Encode(wk[:0])
		if string(gk) != string(wk) {
			t.Fatalf("tuple %d: %v, want %v", i, got.Rows()[i], want.Rows()[i])
		}
	}
	bv := got.Batch()
	if bv.RowBacked() {
		t.Fatal("ReadCSV result should carry a columnar batch")
	}
	for i := range want.Rows() {
		gk = bv.AppendKey(gk[:0], i)
		wk = want.Rows()[i].Encode(wk[:0])
		if string(gk) != string(wk) {
			t.Fatalf("batch key %d diverges from tuple encoding", i)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty input must error")
	}
	if _, err := ReadCSV(strings.NewReader("A,B\n1")); err == nil {
		t.Error("ragged row must error")
	}
}

func TestQuickFingerprintPermutationInvariant(t *testing.T) {
	f := func(vals []int8, seed int64) bool {
		a := New(schema.New("X"))
		for _, v := range vals {
			a.MustAppend(row(int(v)))
		}
		b := a.Clone()
		r := rand.New(rand.NewSource(seed))
		r.Shuffle(len(b.Rows()), func(i, j int) {
			b.Rows()[i], b.Rows()[j] = b.Rows()[j], b.Rows()[i]
		})
		return a.Fingerprint() == b.Fingerprint() && a.EqualSet(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDistinctIdempotent(t *testing.T) {
	f := func(vals []uint8) bool {
		a := New(schema.New("X"))
		for _, v := range vals {
			a.MustAppend(row(int(v % 4)))
		}
		d1 := a.Distinct()
		d2 := d1.Distinct()
		return d1.Len() == d2.Len() && d1.EqualSet(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
