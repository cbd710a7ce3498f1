package server

// compact_test.go: the decomposition-aware compact backend — cross-session
// plan-cache reuse, INSERT column lists, and the merge-free componentwise
// execution path (including workloads whose component merge would exceed
// the expansion limit, which only the componentwise path can answer).

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"maybms/internal/plan"
	"maybms/internal/wsd"
)

// compactScript is a statement sequence fully supported by the compact
// backend, exercising DDL, inserts, repair, asserts and all three
// closures.
var compactScript = []string{
	"create table R (A, B, C, D)",
	"insert into R values ('a1',10,'c1',2),('a1',15,'c2',6),('a2',14,'c3',4),('a2',20,'c4',5),('a3',20,'c5',6)",
	"create table I as select * from R repair by key A weight D",
	"create table HighB as select A, B from I where B >= 14",
	"select possible A, B from I",
	"select certain A from I",
	"select conf, A, B from HighB",
	"select possible I.A, R.C from I, R where I.B = R.B",
	"assert exists (select * from R where B = 10)",
}

// TestCompactSharedPlanCacheCrossSessionHits mirrors the naive backend's
// acceptance check for the process-wide cache: a second compact session
// executing the statements a first compact session already compiled
// performs zero new template compilations.
func TestCompactSharedPlanCacheCrossSessionHits(t *testing.T) {
	srv := New(Config{})
	for _, stmt := range compactScript {
		handleOK(t, srv, Request{Session: "cfirst", Backend: "compact", Query: stmt})
	}
	prepares := plan.PrepareCount()
	hits := plan.SharedCache().Stats().Hits
	for _, stmt := range compactScript {
		handleOK(t, srv, Request{Session: "csecond", Backend: "compact", Query: stmt})
	}
	if got := plan.PrepareCount(); got != prepares {
		t.Errorf("second compact session compiled %d new templates, want 0 (shared cache miss)", got-prepares)
	}
	if got := plan.SharedCache().Stats().Hits; got <= hits {
		t.Errorf("second compact session produced no shared-cache hits (hits %d -> %d)", hits, got)
	}
	// And the answers are identical.
	a := handleOK(t, srv, Request{Session: "cfirst", Backend: "compact", Query: "select conf, A, B from HighB", Render: true})
	b := handleOK(t, srv, Request{Session: "csecond", Backend: "compact", Query: "select conf, A, B from HighB", Render: true})
	if a.Text != b.Text || a.Text == "" {
		t.Fatalf("cross-session compact answers diverge: %q vs %q", a.Text, b.Text)
	}
}

// TestInsertColumnListsBothBackends: INSERT INTO t (cols) VALUES … is
// reordered and NULL-filled identically by the naive and compact backends.
func TestInsertColumnListsBothBackends(t *testing.T) {
	script := []string{
		"create table T (A, B, C)",
		"insert into T (C, A) values (3, 1), (30, 10)",
		"insert into T (B) values (42)",
		"insert into T values (7, 8, 9)",
	}
	srv := New(Config{})
	for _, backend := range []string{"naive", "compact"} {
		sess := backend + "-cols"
		for _, stmt := range script {
			handleOK(t, srv, Request{Session: sess, Backend: backend, Query: stmt})
		}
	}
	want := [][]any{
		{1.0, nil, 3.0},
		{10.0, nil, 30.0},
		{nil, 42.0, nil},
		{7.0, 8.0, 9.0},
	}
	for _, backend := range []string{"naive", "compact"} {
		resp := handleOK(t, srv, Request{Session: backend + "-cols", Backend: backend, Query: "select certain A, B, C from T"})
		if len(resp.Groups) != 1 {
			t.Fatalf("%s: groups = %+v", backend, resp.Groups)
		}
		if got := resp.Groups[0].Rows.Rows; !reflect.DeepEqual(got, want) {
			t.Errorf("%s rows = %#v, want %#v", backend, got, want)
		}
	}
	// Bad column lists fail cleanly on both backends.
	for _, backend := range []string{"naive", "compact"} {
		sess := backend + "-cols"
		for _, bad := range []string{
			"insert into T (Z) values (1)",
			"insert into T (A, B) values (1)",
		} {
			resp := srv.Handle(context.Background(), &Request{Session: sess, Backend: backend, Query: bad})
			if resp.OK {
				t.Errorf("%s accepted %q", backend, bad)
			}
		}
	}
}

// TestCompactComponentwiseBeyondMergeLimit: a CONF query over a relation
// fed by more components than the merge limit can multiply out is
// answerable only componentwise — the merge path refuses it, the
// componentwise path answers it with zero merges and the representation
// untouched. This is the "widened subset without partial expansion"
// acceptance at the server layer.
func TestCompactComponentwiseBeyondMergeLimit(t *testing.T) {
	const k = 17 // 2^17 > the default merge limit of 2^16
	b := wsd.New(true)
	mustExec := func(q string) {
		t.Helper()
		if _, err := b.Exec(q); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
	}
	mustExec("create table R (K, V)")
	var rows []string
	for i := 0; i < k; i++ {
		rows = append(rows, fmt.Sprintf("('k%02d', 0), ('k%02d', 1)", i, i))
	}
	mustExec("insert into R values " + strings.Join(rows, ", "))
	mustExec("create table I as select * from R repair by key K")

	// The merge path cannot answer this: a grouped core correlates the
	// components, and 2^17 alternatives exceed the expansion limit.
	if _, err := b.Exec("select conf, K, V from I group by K, V"); err == nil {
		t.Fatal("merge path must refuse a 2^17-alternative expansion")
	}

	// The componentwise path answers the ungrouped query exactly, with no
	// merge and the decomposition untouched.
	res, err := b.Exec("select conf, K, V from I")
	if err != nil {
		t.Fatal(err)
	}
	if b.MergeCount() != 0 {
		t.Errorf("componentwise conf merged %d times", b.MergeCount())
	}
	if b.ComponentCount() != k {
		t.Errorf("components = %d, want %d untouched", b.ComponentCount(), k)
	}
	rel := res.Groups[0].Rel
	if rel.Len() != 2*k {
		t.Fatalf("conf rows = %d, want %d", rel.Len(), 2*k)
	}
	for _, tp := range rel.Rows() {
		if c := tp[len(tp)-1].AsFloat(); math.Abs(c-0.5) > 1e-9 {
			t.Fatalf("conf = %v, want 0.5", c)
		}
	}

	// Joins against certain relations stay merge-free too.
	mustExec("create table L (V, Y)")
	mustExec("insert into L values (0, 'lo'), (1, 'hi')")
	res, err = b.Exec("select possible I.K, L.Y from I, L where I.V = L.V")
	if err != nil {
		t.Fatal(err)
	}
	if b.MergeCount() != 0 {
		t.Errorf("certain join merged %d times", b.MergeCount())
	}
	if got := res.Groups[0].Rel.Len(); got != 2*k {
		t.Errorf("join rows = %d, want %d", got, 2*k)
	}

	// UPDATE/DELETE over the 2^17-world decomposition rewrite each
	// alternative's contribution separately — no merge possible at this
	// scale, none needed.
	mustExec("update I set V = V + 10 where V = 1")
	mustExec("delete from I where V = 0")
	if b.MergeCount() != 0 {
		t.Errorf("componentwise DML merged %d times", b.MergeCount())
	}
	res, err = b.Exec("select conf, K, V from I")
	if err != nil {
		t.Fatal(err)
	}
	rel = res.Groups[0].Rel
	if rel.Len() != k {
		t.Fatalf("post-DML conf rows = %d, want %d", rel.Len(), k)
	}
	for _, tp := range rel.Rows() {
		if v := tp[1].AsInt(); v != 11 {
			t.Fatalf("post-DML V = %d, want 11", v)
		}
		if c := tp[len(tp)-1].AsFloat(); math.Abs(c-0.5) > 1e-9 {
			t.Fatalf("post-DML conf = %v, want 0.5", c)
		}
	}

	// GROUP WORLDS BY over the same decomposition: grouping by a
	// two-alternative choice relation splits 2^18 worlds into two groups
	// via the per-component fingerprint fold — still zero merges.
	mustExec("create table G (A, B)")
	mustExec("insert into G values (10, 0), (20, 1)")
	mustExec("create table P as select * from G choice of A")
	res, err = b.Exec("select possible K, V from I group worlds by (select B from P)")
	if err != nil {
		t.Fatal(err)
	}
	if b.MergeCount() != 0 {
		t.Errorf("group worlds by merged %d times", b.MergeCount())
	}
	if len(res.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(res.Groups))
	}
	for gi, g := range res.Groups {
		if math.Abs(g.Prob-0.5) > 1e-9 {
			t.Errorf("group %d prob = %g, want 0.5", gi, g.Prob)
		}
		if g.Rel.Len() != k {
			t.Errorf("group %d rows = %d, want %d", gi, g.Rel.Len(), k)
		}
	}
}

// closedRows returns the rows of a closed answer in one canonical order: a
// closure is a set, which the naive backend lists in world-enumeration order
// and the compact one in representation order. A row listed twice stays twice.
func closedRows(rows [][]any) [][]any {
	out := append([][]any(nil), rows...)
	sort.Slice(out, func(i, j int) bool { return fmt.Sprint(out[i]) < fmt.Sprint(out[j]) })
	return out
}

// rowsApproxEqual compares result rows cell by cell, allowing the
// last-ulp float drift between the naive product over worlds and the
// compact per-component fold (conf columns).
func rowsApproxEqual(a, b [][]any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			fa, aok := a[i][j].(float64)
			fb, bok := b[i][j].(float64)
			if aok && bok {
				if math.Abs(fa-fb) > 1e-9 {
					return false
				}
				continue
			}
			if !reflect.DeepEqual(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestCompactQuerySourceRepairRoundTrip drives the conditional-
// decomposition statement forms — repair/choice over filtered and
// projected sources (transient materialization) and a durable ASSERT
// inside CREATE TABLE AS — through the full server Handle path, and
// cross-checks every closure answer against a naive session running the
// identical script.
func TestCompactQuerySourceRepairRoundTrip(t *testing.T) {
	script := []string{
		"create table R (K, V, W)",
		"insert into R values (0, 1, 1), (0, 2, 3), (1, 5, 2), (1, 6, 2), (2, 7, 1)",
		// repair over a filtered + projected source
		"create table I as select K, V from R where V < 7 repair by key K weight V",
		// repair whose weight column is outside the select list (the
		// paper's Figure 1 shape): the split reads the source rows, so the
		// weight rides the transient materialization and is stripped after
		"create table J as select K, V from R repair by key K weight W",
		// choice over a filtered source
		"create table P as select K, W from R where V >= 5 choice of K weight W",
		// durable assert inside CREATE TABLE AS: filter + renormalize the
		// world-set, then materialize the query on the survivors
		"create table X as select * from I assert exists (select * from I where V = 1)",
	}
	queries := []string{
		"select possible K, V from I",
		"select certain K, V from I",
		"select conf, K, V from I",
		"select possible K, W from P",
		"select conf, K, W from P",
		"select possible K, V from J",
		"select conf, K, V from J",
		"select possible K, V from X",
		"select certain K, V from X",
		"select conf, K, V from X",
	}
	srv := New(Config{})
	for _, backend := range []string{"naive", "compact"} {
		sess := backend + "-qsrc"
		for _, stmt := range script {
			handleOK(t, srv, Request{Session: sess, Backend: backend, Query: stmt})
		}
	}
	for _, q := range queries {
		naive := handleOK(t, srv, Request{Session: "naive-qsrc", Query: q})
		compact := handleOK(t, srv, Request{Session: "compact-qsrc", Query: q})
		if len(naive.Groups) != 1 || len(compact.Groups) != 1 {
			t.Errorf("%q: %d groups vs %d", q, len(compact.Groups), len(naive.Groups))
			continue
		}
		if !rowsApproxEqual(closedRows(naive.Groups[0].Rows.Rows), closedRows(compact.Groups[0].Rows.Rows)) {
			t.Errorf("%q:\ncompact %v\nnaive   %v", q,
				compact.Groups[0].Rows.Rows, naive.Groups[0].Rows.Rows)
		}
	}
	// The transient source materializations must not leak relations: only
	// the five created tables remain visible.
	for _, name := range []string{"__src__I", "__src__J", "__src__P"} {
		resp := srv.Handle(context.Background(), &Request{Session: "compact-qsrc", Backend: "compact", Query: "select certain K from " + name})
		if resp.OK {
			t.Errorf("transient source %s leaked into the catalog", name)
		}
	}
	// The stripped weight column must not leak into J's schema.
	resp := srv.Handle(context.Background(), &Request{Session: "compact-qsrc", Backend: "compact", Query: "select possible W from J"})
	if resp.OK {
		t.Errorf("weight column W leaked into J's schema")
	}
	// Sources that look across rows don't commute with the split: the
	// refusal names the construct.
	resp = srv.Handle(context.Background(), &Request{Session: "compact-qsrc", Backend: "compact",
		Query: "create table D as select distinct K, V from R repair by key K weight V"})
	if resp.OK || !strings.Contains(resp.Error, "DISTINCT") {
		t.Errorf("distinct split source: ok=%v err=%q, want refusal naming DISTINCT", resp.OK, resp.Error)
	}
}

// TestCompactDMLAndGroupWorldsRoundTrip drives the new statement forms
// through the full server Handle path on a compact session and
// cross-checks every answer against a naive session running the identical
// script.
func TestCompactDMLAndGroupWorldsRoundTrip(t *testing.T) {
	script := []string{
		"create table R (K, V, W)",
		"insert into R values (0, 1, 1), (0, 2, 3), (1, 5, 1), (1, 6, 1)",
		"create table I as select * from R repair by key K weight W",
		"create table C (A, B)",
		"insert into C values (10, 0), (20, 1)",
		"create table P as select * from C choice of A",
		"update I set V = V + 100 where K = 0",
		"delete from I where V = 5",
		"update R set W = 9 where K = 1",
	}
	queries := []string{
		"select possible K, V from I",
		"select certain K, V from I",
		"select conf, K, V from I",
		"select possible K, V from I group worlds by (select B from P)",
		"select conf, K, V from I group worlds by (select B from P)",
	}
	srv := New(Config{})
	for _, backend := range []string{"naive", "compact"} {
		sess := backend + "-dml"
		for _, stmt := range script {
			handleOK(t, srv, Request{Session: sess, Backend: backend, Query: stmt})
		}
	}
	for _, q := range queries {
		naive := handleOK(t, srv, Request{Session: "naive-dml", Query: q})
		compact := handleOK(t, srv, Request{Session: "compact-dml", Query: q})
		if len(naive.Groups) != len(compact.Groups) {
			t.Errorf("%q: %d groups vs %d", q, len(compact.Groups), len(naive.Groups))
			continue
		}
		for gi := range naive.Groups {
			if !reflect.DeepEqual(closedRows(naive.Groups[gi].Rows.Rows), closedRows(compact.Groups[gi].Rows.Rows)) {
				t.Errorf("%q group %d:\ncompact %v\nnaive   %v", q, gi,
					compact.Groups[gi].Rows.Rows, naive.Groups[gi].Rows.Rows)
			}
			if math.Abs(naive.Groups[gi].Prob-compact.Groups[gi].Prob) > 1e-9 {
				t.Errorf("%q group %d: prob %g vs %g", q, gi, compact.Groups[gi].Prob, naive.Groups[gi].Prob)
			}
		}
	}
}
