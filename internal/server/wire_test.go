package server

// wire_test.go: the answer encoder against the boxed reference it
// replaced (FuzzEncodeAnswer), the non-finite float error over both
// transports, and the allocation benchmark the CI gate reads.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"maybms/internal/colbatch"
	"maybms/internal/core"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

// The reference encoder: every cell boxed into an any, the Response built
// as a tree of [][]any and marshalled by encoding/json. This is what the
// server wrote before the append encoder, kept here as the oracle.

func oracleCell(v value.Value) any {
	switch v.Kind() {
	case value.KindNull:
		return nil
	case value.KindBool:
		return v.AsBool()
	case value.KindInt:
		return v.AsInt()
	case value.KindFloat:
		return v.AsFloat()
	default:
		return v.String()
	}
}

func oracleRows(rel *relation.Relation, maxRows int) Rows {
	out := Rows{Columns: rel.Schema.Names(), Rows: [][]any{}}
	for _, t := range rel.Rows() {
		if maxRows >= 0 && len(out.Rows) >= maxRows {
			out.Truncated = true
			break
		}
		row := make([]any, len(t))
		for i, v := range t {
			row[i] = oracleCell(v)
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

func oracleResponse(session string, res *core.Result, maxRows int, render bool) *Response {
	out := &Response{OK: true, Session: session}
	switch res.Kind {
	case core.ResultOK:
		out.Kind = "ok"
		out.Msg = res.Msg
	case core.ResultPerWorld:
		out.Kind = "worlds"
		for _, wr := range res.PerWorld {
			enc := WorldRows{World: wr.World, Prob: wr.Prob, Rows: oracleRows(wr.Rel, maxRows)}
			out.Truncated = out.Truncated || enc.Rows.Truncated
			out.Worlds = append(out.Worlds, enc)
		}
	case core.ResultClosed:
		out.Kind = "closed"
		for _, g := range res.Groups {
			enc := GroupRows{Worlds: g.Worlds, Prob: g.Prob, Rows: oracleRows(g.Rel, maxRows)}
			out.Truncated = out.Truncated || enc.Rows.Truncated
			out.Groups = append(out.Groups, enc)
		}
	}
	if render && !out.Truncated {
		out.Text = res.String()
	}
	return out
}

// oracleLine is the reference line of res, or the error the new encoder
// must report instead: json.Marshal refuses the answer exactly when an
// encoded probability or cell is NaN or infinite, and the first such value
// in document order is the one named.
func oracleLine(session string, res *core.Result, maxRows int, render bool) ([]byte, string) {
	resp := oracleResponse(session, res, maxRows, render)
	b, err := json.Marshal(resp)
	if err == nil {
		return append(b, '\n'), ""
	}
	bad := func(f float64) bool { return math.IsNaN(f) || math.IsInf(f, 0) }
	msg := func(what string, f float64) string {
		return fmt.Sprintf("cannot encode answer: %s holds %s, which JSON cannot represent", what, fmt.Sprint(f))
	}
	check := func(prob float64, rows Rows) string {
		if bad(prob) {
			return msg(`field "prob"`, prob)
		}
		for _, row := range rows.Rows {
			for j, c := range row {
				if f, ok := c.(float64); ok && bad(f) {
					return msg(fmt.Sprintf("column %q", rows.Columns[j]), f)
				}
			}
		}
		return ""
	}
	for _, w := range resp.Worlds {
		if m := check(w.Prob, w.Rows); m != "" {
			return nil, m
		}
	}
	for _, g := range resp.Groups {
		if m := check(g.Prob, g.Rows); m != "" {
			return nil, m
		}
	}
	return nil, "json.Marshal failed without a non-finite float: " + err.Error()
}

// newLine is the line the server writes for res, or its error.
func newLine(session string, res *core.Result, maxRows int, render bool) ([]byte, string) {
	resp, line, err := encodeResult(nil, session, res, maxRows, render)
	if err == nil {
		line, err = appendTail(line, resp)
	}
	if err != nil {
		return nil, err.Error()
	}
	return line, ""
}

// fuzzReader hands out the fuzz input a byte at a time, then zeros.
type fuzzReader struct{ data []byte }

func (r *fuzzReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *fuzzReader) intn(n int) int { return int(r.byte()) % n }

var (
	fuzzFloats = []float64{
		0, math.Copysign(0, -1), 1, -1.5, 0.1, 1e-6, math.Nextafter(1e-6, 0), -1e-6,
		1e-7, 1e21, math.Nextafter(1e21, 0), -1e21, 1e22, 5e-324, math.SmallestNonzeroFloat64 * 3,
		2.2250738585072014e-308, math.MaxFloat64, 1e-300, 123456789.125, 0.4444444444444444,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	fuzzStrings = []string{
		"", "a", "A b", "<script>", "a&b", `"q"`, `back\slash`, "\x00\x01\x1f\x7f", "\t\n\r",
		"line\u2028sep\u2029", "\xff\xfe", "é ü 中", "\xed\xa0\x80", "c0=1 ∧ c2=0", "ok\x80",
	}
)

func (r *fuzzReader) float() float64 {
	if i := r.intn(64); i < len(fuzzFloats) {
		return fuzzFloats[i]
	}
	var b [8]byte
	for i := range b {
		b[i] = r.byte()
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

func (r *fuzzReader) string() string {
	if i := r.intn(32); i < len(fuzzStrings) {
		return fuzzStrings[i]
	}
	b := make([]byte, r.intn(6))
	for i := range b {
		b[i] = r.byte()
	}
	return string(b)
}

// The column kinds of a fuzzed relation.
const (
	fuzzInt = iota
	fuzzFloat
	fuzzText
	fuzzBool
	fuzzNull
	fuzzMixed
	fuzzKinds
)

func (r *fuzzReader) value(kind int) value.Value {
	if kind == fuzzMixed {
		kind = r.intn(fuzzMixed)
	}
	if kind != fuzzNull && r.intn(5) == 0 {
		return value.Null()
	}
	switch kind {
	case fuzzInt:
		return value.Int(int64(int8(r.byte())) * int64(1+r.intn(1<<7)<<r.intn(50)))
	case fuzzFloat:
		return value.Float(r.float())
	case fuzzText:
		return value.Str(r.string())
	case fuzzBool:
		return value.Bool(r.byte()&1 == 1)
	default:
		return value.Null()
	}
}

// relation builds a random relation, columnar or row-backed.
func (r *fuzzReader) relation() *relation.Relation {
	width := r.intn(6)
	names := make([]string, width)
	kinds := make([]int, width)
	for j := range names {
		names[j] = r.string()
		kinds[j] = r.intn(fuzzKinds)
	}
	sch := schema.New(names...)
	rows := make([]tuple.Tuple, r.intn(12))
	for i := range rows {
		rows[i] = make(tuple.Tuple, width)
		for j := range rows[i] {
			rows[i][j] = r.value(kinds[j])
		}
	}
	if r.byte()&1 == 0 {
		return relation.FromBatch(colbatch.FromRows(sch, rows))
	}
	return columnarRel(sch, rows)
}

// columnarRel builds a relation of rows in columnar form whatever their
// number.
func columnarRel(sch *schema.Schema, rows []tuple.Tuple) *relation.Relation {
	b := colbatch.FromCols(sch, make([]colbatch.Col, sch.Len()), 0)
	for _, t := range rows {
		b.Append(t)
	}
	return relation.FromBatch(b)
}

// result builds a random statement result.
func (r *fuzzReader) result() *core.Result {
	res := &core.Result{Kind: core.ResultKind(r.intn(3)), Weighted: r.byte()&1 == 1}
	n := r.intn(4)
	switch res.Kind {
	case core.ResultOK:
		res.Msg = r.string()
	case core.ResultPerWorld:
		for i := 0; i < n; i++ {
			res.PerWorld = append(res.PerWorld, core.WorldRows{World: r.string(), Prob: r.float(), Rel: r.relation()})
		}
	case core.ResultClosed:
		for i := 0; i < n; i++ {
			var worlds []string
			for k := r.intn(3); k > 0; k-- {
				worlds = append(worlds, r.string())
			}
			res.Groups = append(res.Groups, core.GroupRows{Worlds: worlds, Prob: r.float(), Rel: r.relation()})
		}
	}
	return res
}

// fuzzSeeds are inputs that reach every column kind, both batch forms,
// truncation, render, and each non-finite float.
var fuzzSeeds = [][]byte{
	{},
	{1, 1, 0, 0, 1, 2, 5, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0},
	{2, 0, 5, 2, 0, 2, 3, 1, 2, 5, 9, 3, 4, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 1},
	{1, 1, 0, 5, 4, 3, 4, 5, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 1},
	{1, 0, 0, 0, 20, 1, 1, 1, 0, 1, 1, 0, 1, 2, 3, 1},
	{1, 0, 0, 0, 21, 1, 1, 1, 0, 1, 1, 0, 1, 2, 3, 0},
	{2, 1, 3, 0, 22, 1, 1, 1, 5, 8, 2, 9, 1, 1, 1, 1},
	{2, 1, 3, 2, 1, 2, 3, 2, 8, 2, 9, 2, 10, 6, 7, 11, 12, 13, 14, 1, 1},
	{1, 1, 3, 5, 3, 6, 1, 9, 10, 11, 12, 13, 14, 0, 8, 7, 6, 5, 4, 3, 2, 1, 0},
}

// integralFloats are the floats around appendFloat's integer fast path:
// the zeros, small integers, a fraction, the edges of 2^53, and integers
// past it whose shortest form is not their digits (2^60 prints as
// 1152921504606847000).
var integralFloats = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1<<53 - 1, 1 << 53, 1<<53 + 2, 1e20, 1 << 60}

// floatSeed is a fuzz input whose answer is one closed group holding f as
// the one cell of a columnar relation.
func floatSeed(f float64) []byte {
	s := []byte{0, 0, byte(core.ResultClosed), 1, 1, 0, 2, 1, 1, fuzzFloat, 1, 1, 63}
	s = binary.LittleEndian.AppendUint64(s, math.Float64bits(f))
	return append(s, 1)
}

// TestFloatSeedsHoldTheirFloat: each floatSeed decodes to the answer it
// is meant to, so FuzzEncodeAnswer's seeds reach the fast path's edges.
func TestFloatSeedsHoldTheirFloat(t *testing.T) {
	for _, f := range integralFloats {
		r := &fuzzReader{data: floatSeed(f)}
		r.intn(14)
		r.byte()
		res := r.result()
		if len(res.Groups) != 1 || res.Groups[0].Rel.Len() != 1 || res.Groups[0].Rel.Batch().RowBacked() {
			t.Fatalf("seed of %v decodes to %+v", f, res)
		}
		got := res.Groups[0].Rel.Batch().At(0, 0)
		if got.Kind() != value.KindFloat || math.Float64bits(got.AsFloat()) != math.Float64bits(f) {
			t.Fatalf("seed of %v holds %v", f, got)
		}
	}
}

// FuzzEncodeAnswer: for any answer — columnar or row-backed relations over
// int, float, text, bool, all-NULL and mixed-kind columns, any row bound,
// with or without render — the server's line is byte for byte the boxed
// reference's, and an answer holding a non-finite float is the same
// error on both sides.
func FuzzEncodeAnswer(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	for _, x := range integralFloats {
		f.Add(floatSeed(x))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		maxRows := r.intn(14) - 1
		render := r.byte()&1 == 1
		res := r.result()
		want, wantErr := oracleLine("s", res, maxRows, render)
		got, gotErr := newLine("s", res, maxRows, render)
		if gotErr != wantErr {
			t.Fatalf("error %q, want %q", gotErr, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("line\n got %s\nwant %s", got, want)
		}
	})
}

// TestNonFiniteAnswerIsAnError: an answer with NaN or ±Inf is an ok:false
// response naming the column and the value, over TCP (the connection stays
// usable) and HTTP (422), and counts as a request error.
func TestNonFiniteAnswerIsAnError(t *testing.T) {
	srv := New(Config{TCPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	csv := filepath.Join(t.TempDir(), "inf.csv")
	if err := os.WriteFile(csv, []byte("K,A\n1,2.5\n2,+Inf\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	want := func(column, val string) string {
		return fmt.Sprintf("cannot encode answer: column %q holds %s, which JSON cannot represent", column, val)
	}
	type probe struct{ session, query, err string }
	probes := []probe{
		{"nf", "select A * 10 from T", want("col1", "+Inf")},
		{"nf", "select A * -10 as Y from T", want("Y", "-Inf")},
		{"nf", "select A * 10 - A * 10 from T", want("col1", "NaN")},
		{"nfc", "select * from X", want("A", "+Inf")},
	}

	c := dialTCP(t, srv.TCPAddr().String())
	defer c.close()
	c.exec(t, "nf", "create table T (A)")
	c.exec(t, "nf", "insert into T values (1e308)")
	if resp, err := c.roundTrip(Request{Session: "nfc", Backend: "compact", Query: fmt.Sprintf("import into X from '%s'", csv)}); err != nil || !resp.OK {
		t.Fatalf("import: %v %+v", err, resp)
	}
	before := requestErrors.Value()
	for _, p := range probes {
		resp, err := c.roundTrip(Request{Session: p.session, Query: p.query})
		if err != nil {
			t.Fatalf("tcp %q: %v", p.query, err)
		}
		if resp.OK || resp.Error != p.err || resp.Session != p.session {
			t.Errorf("tcp %q = %+v, want error %q", p.query, resp, p.err)
		}
		// The connection carries on.
		if got := c.exec(t, p.session, "select count(*) from "+p.query[strings.LastIndex(p.query, " ")+1:]); len(got.Worlds)+len(got.Groups) != 1 {
			t.Errorf("tcp follow-up after %q = %+v", p.query, got)
		}
	}

	base := "http://" + srv.HTTPAddr().String() + "/v1/query"
	for _, p := range probes {
		body, _ := json.Marshal(Request{Session: p.session, Query: p.query})
		httpResp, err := http.Post(base, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var resp Response
		err = json.NewDecoder(httpResp.Body).Decode(&resp)
		httpResp.Body.Close()
		if err != nil {
			t.Fatalf("http %q: %v", p.query, err)
		}
		if httpResp.StatusCode != http.StatusUnprocessableEntity || resp.OK || resp.Error != p.err {
			t.Errorf("http %q = %d %+v, want 422 and %q", p.query, httpResp.StatusCode, resp, p.err)
		}
	}
	if got := requestErrors.Value() - before; got < uint64(2*len(probes)) {
		t.Errorf("request errors grew by %d, want at least %d", got, 2*len(probes))
	}
}

// encodeAnswerResult is a one-world answer of n rows over the given
// columns, columnar or row-backed.
func encodeAnswerResult(n int, kinds []int, columnar bool) *core.Result {
	names := make([]string, len(kinds))
	for j := range names {
		names[j] = fmt.Sprintf("c%d", j)
	}
	sch := schema.New(names...)
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		rows[i] = make(tuple.Tuple, len(kinds))
		for j, k := range kinds {
			switch {
			case i%17 == j:
				rows[i][j] = value.Null()
			case k == fuzzInt:
				rows[i][j] = value.Int(int64(i * 7919))
			case k == fuzzFloat:
				rows[i][j] = value.Float(float64(i) / 7)
			case k == fuzzText:
				rows[i][j] = value.Str(fmt.Sprintf("name-%d", i))
			default:
				rows[i][j] = value.Bool(i%2 == 0)
			}
		}
	}
	rel := relation.FromBatch(colbatch.FromRows(sch, rows))
	if columnar {
		rel = columnarRel(sch, rows)
	}
	return &core.Result{Kind: core.ResultPerWorld, PerWorld: []core.WorldRows{{World: "w1", Prob: 1, Rel: rel}}}
}

// BenchmarkEncodeAnswer encodes a 10 000 × 6 columnar answer and a 31 × 4
// row-form one (the most rows a row-form batch holds) into a reused buffer,
// as a TCP connection does.
// scripts/check_batch_allocs.sh gates its allocs/op: the encoder allocates
// per relation, never per row or cell.
func BenchmarkEncodeAnswer(b *testing.B) {
	for _, bc := range []struct {
		name string
		res  *core.Result
	}{
		{"columnar", encodeAnswerResult(10000, []int{fuzzInt, fuzzFloat, fuzzText, fuzzBool, fuzzInt, fuzzText}, true)},
		{"rows", encodeAnswerResult(colbatch.Floor-1, []int{fuzzInt, fuzzText, fuzzFloat, fuzzBool}, false)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			encode := func(buf []byte) []byte {
				resp, line, err := encodeResult(buf[:0], "s", bc.res, -1, false)
				if err == nil {
					line, err = appendTail(line, resp)
				}
				if err != nil {
					b.Fatal(err)
				}
				return line
			}
			buf := encode(nil) // grown once, as a connection's buffer is
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			for b.Loop() {
				buf = encode(buf)
			}
		})
	}
}
