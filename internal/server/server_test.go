package server

// server_test.go: white-box tests of the request handling, registry,
// deadlines, bounded encoding and the compact translation layer. The
// multi-client network tests live in integration_test.go.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"maybms/internal/core"
	"maybms/internal/plan"
)

// figure1Setup loads Figure 1 and materializes Example 2.4's repair.
var figure1Setup = []string{
	"create table R (A, B, C, D)",
	"insert into R values ('a1',10,'c1',2),('a1',15,'c2',6),('a2',14,'c3',4),('a2',20,'c4',5),('a3',20,'c5',6)",
	"create table S (C, E)",
	"insert into S values ('c2','e1'),('c4','e1'),('c4','e2')",
	"create table I as select A, B, C from R repair by key A weight D",
}

// paperQueries are the read-only statements of Examples 2.1 and 2.6–2.10
// (plus per-tuple conf, group-worlds-by and a hypothetical assert), safe
// to run concurrently against one session.
var paperQueries = []string{
	"select * from I where A = 'a3'",
	"select * from S choice of E",
	"select * from R choice of A weight D",
	"select possible sum(B) from I",
	"select certain E from S choice of C",
	"select conf from I where 50 > (select sum(B) from I)",
	"select B, conf from I where A = 'a1'",
	"select possible B from I group worlds by (select sum(B) from I)",
	"select * from I assert not exists(select * from I where C = 'c1')",
}

// embeddedTranscript executes the statements on a fresh embedded engine
// session and returns each result's exact rendering.
func embeddedTranscript(t *testing.T, stmts []string) []string {
	t.Helper()
	s := core.NewSession(true)
	out := make([]string, len(stmts))
	for i, stmt := range stmts {
		res, err := s.Exec(stmt)
		if err != nil {
			t.Fatalf("embedded %q: %v", stmt, err)
		}
		out[i] = res.String()
	}
	return out
}

// decoded reads resp the way every client does, by decoding its line:
// Handle writes answer cells only there.
func decoded(t testing.TB, resp *Response) *Response {
	t.Helper()
	var out Response
	if err := json.Unmarshal(resp.Line(), &out); err != nil {
		t.Fatalf("response line %q: %v", resp.Line(), err)
	}
	return &out
}

// handleOK runs req and returns its decoded line, failing on ok:false.
func handleOK(t *testing.T, srv *Server, req Request) *Response {
	t.Helper()
	resp := decoded(t, srv.Handle(context.Background(), &req))
	if !resp.OK {
		t.Fatalf("request %+v failed: %s", req, resp.Error)
	}
	return resp
}

func TestHandleMatchesEmbeddedEngine(t *testing.T) {
	stmts := append(append([]string{}, figure1Setup...), paperQueries...)
	want := embeddedTranscript(t, stmts)
	srv := New(Config{})
	for i, stmt := range stmts {
		resp := handleOK(t, srv, Request{Session: "a", Query: stmt, Render: true})
		if resp.Text != want[i] {
			t.Fatalf("statement %q:\nserver:\n%s\nembedded:\n%s", stmt, resp.Text, want[i])
		}
	}
}

func TestHandleOps(t *testing.T) {
	srv := New(Config{})
	if resp := srv.Handle(context.Background(), &Request{Op: OpPing}); !resp.OK || resp.Kind != "pong" {
		t.Fatalf("ping = %+v", resp)
	}
	handleOK(t, srv, Request{Session: "x", Query: "create table T (A)"})
	resp := srv.Handle(context.Background(), &Request{Op: OpList})
	if len(resp.Sessions) != 1 || resp.Sessions[0].Name != "x" || resp.Sessions[0].Backend != "naive" {
		t.Fatalf("list = %+v", resp.Sessions)
	}
	if resp := srv.Handle(context.Background(), &Request{Op: OpClose, Session: "x"}); !resp.OK {
		t.Fatalf("close failed: %s", resp.Error)
	}
	if resp := srv.Handle(context.Background(), &Request{Op: OpClose, Session: "x"}); resp.OK {
		t.Fatal("closing a closed session must fail")
	}
	// The name is reusable with a fresh database.
	handleOK(t, srv, Request{Session: "x", Query: "create table T (A)"})

	if resp := srv.Handle(context.Background(), &Request{Query: "   "}); resp.OK {
		t.Fatal("empty query must fail")
	}
	if resp := srv.Handle(context.Background(), &Request{Op: "mystery"}); resp.OK {
		t.Fatal("unknown op must fail")
	}
	if resp := srv.Handle(context.Background(), &Request{Session: "y", Backend: "mystery", Query: "select 1"}); resp.OK {
		t.Fatal("unknown backend must fail")
	}
	if resp := srv.Handle(context.Background(), &Request{Session: strings.Repeat("s", 200), Query: "select 1"}); resp.OK {
		t.Fatal("oversized session name must fail")
	}
}

func TestMaxRowsTruncation(t *testing.T) {
	srv := New(Config{})
	handleOK(t, srv, Request{Query: "create table T (A)"})
	handleOK(t, srv, Request{Query: "insert into T values (1), (2), (3), (4), (5)"})
	resp := handleOK(t, srv, Request{Query: "select * from T", MaxRows: 2})
	if !resp.Truncated || len(resp.Worlds) != 1 || len(resp.Worlds[0].Rows.Rows) != 2 {
		t.Fatalf("truncated response = %+v", resp)
	}
	// -1 lifts the bound.
	resp = handleOK(t, srv, Request{Query: "select * from T", MaxRows: -1})
	if resp.Truncated || len(resp.Worlds[0].Rows.Rows) != 5 {
		t.Fatalf("unbounded response = %+v", resp)
	}
	// Values arrive as JSON-typed cells.
	if v, ok := resp.Worlds[0].Rows.Rows[0][0].(float64); !ok || v != 1 {
		t.Fatalf("cell = %#v", resp.Worlds[0].Rows.Rows[0][0])
	}
	// Render honours the bound too: a truncated response omits Text
	// instead of rendering the unbounded relation.
	resp = handleOK(t, srv, Request{Query: "select * from T", MaxRows: 2, Render: true})
	if !resp.Truncated || resp.Text != "" {
		t.Fatalf("truncated render = %+v", resp)
	}
	if resp = handleOK(t, srv, Request{Query: "select * from T", Render: true}); resp.Text == "" {
		t.Fatal("within-bound render must include Text")
	}
}

func TestSessionLimit(t *testing.T) {
	srv := New(Config{MaxSessions: 2})
	handleOK(t, srv, Request{Session: "a", Query: "select 1"})
	handleOK(t, srv, Request{Session: "b", Query: "select 1"})
	if resp := srv.Handle(context.Background(), &Request{Session: "c", Query: "select 1"}); resp.OK {
		t.Fatal("third session must be rejected")
	}
	srv.Handle(context.Background(), &Request{Op: OpClose, Session: "a"})
	handleOK(t, srv, Request{Session: "c", Query: "select 1"})
}

func TestIdleEviction(t *testing.T) {
	srv := New(Config{})
	now := time.Now()
	srv.reg.now = func() time.Time { return now }
	handleOK(t, srv, Request{Session: "a", Query: "create table T (A)"})
	handleOK(t, srv, Request{Session: "b", Query: "create table T (A)"})
	now = now.Add(time.Minute)
	handleOK(t, srv, Request{Session: "b", Query: "insert into T values (1)"})
	if n := srv.reg.evictIdle(30 * time.Second); n != 1 {
		t.Fatalf("evicted %d sessions, want 1 (a)", n)
	}
	if srv.reg.lookup("a") != nil || srv.reg.lookup("b") == nil {
		t.Fatal("wrong session evicted")
	}
	// a comes back as a fresh database: T can be created again.
	handleOK(t, srv, Request{Session: "a", Query: "create table T (A)"})
}

func TestRequestDeadlineCancelsStatement(t *testing.T) {
	srv := New(Config{})
	// 4096 worlds make the conf query's per-world pass long enough for a
	// 1ms deadline to fire mid-statement.
	handleOK(t, srv, Request{Session: "big", Query: "create table R (K, V)"})
	var rows []string
	for i := 0; i < 12; i++ {
		rows = append(rows, fmt.Sprintf("('k%d', 0), ('k%d', 1)", i, i))
	}
	handleOK(t, srv, Request{Session: "big", Query: "insert into R values " + strings.Join(rows, ", ")})
	handleOK(t, srv, Request{Session: "big", Query: "create table I as select * from R repair by key K"})
	resp := srv.Handle(context.Background(), &Request{
		Session: "big", TimeoutMs: 1,
		Query: "select conf from I where exists (select * from I where V = 1)",
	})
	if resp.OK || !strings.Contains(resp.Error, "deadline") {
		t.Fatalf("deadline response = %+v", resp)
	}
	// The session serializes behind the aborting statement and stays
	// usable.
	resp = handleOK(t, srv, Request{Session: "big", Query: "select certain K from I where V = 0"})
	if resp.Kind != "closed" {
		t.Fatalf("follow-up = %+v", resp)
	}
	// A pre-cancelled context is rejected before executing anything.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if resp := srv.Handle(ctx, &Request{Session: "big", Query: "select 1"}); resp.OK {
		t.Fatal("cancelled context must fail")
	}
}

// TestDeadlineCancelsSingleWorldEval: the algebra iterators poll the
// interrupt hook every few hundred rows, so a deadlined request no longer
// holds its admission-gate slot for a whole single-world evaluation (one
// huge cross join in one world used to be uninterruptible).
func TestDeadlineCancelsSingleWorldEval(t *testing.T) {
	srv := New(Config{})
	naive := func(q string, timeoutMs int) *Response {
		return srv.Handle(context.Background(), &Request{Session: "sw", Query: q, TimeoutMs: timeoutMs})
	}
	if resp := naive("create table B (X)", 0); !resp.OK {
		t.Fatal(resp.Error)
	}
	var rows []string
	for i := 0; i < 600; i++ {
		rows = append(rows, fmt.Sprintf("(%d)", i))
	}
	if resp := naive("insert into B values "+strings.Join(rows, ", "), 0); !resp.OK {
		t.Fatal(resp.Error)
	}
	// One world, 600^3 = 2.16e8 join rows: far beyond a 1ms deadline, and
	// cancellable only from inside the iterators.
	resp := naive("select count(*) from B b1, B b2, B b3", 1)
	if resp.OK || !strings.Contains(resp.Error, "deadline") {
		t.Fatalf("single-world deadline response = %+v", resp)
	}
	// The gate slot came back: the next statement runs promptly.
	if resp := naive("select count(*) from B where X < 5", 0); !resp.OK {
		t.Fatal(resp.Error)
	}
}

// TestDeadlineCancelsCompactMerge: component merges poll the interrupt
// hook, so a deadlined compact statement frees its gate slot instead of
// grinding through the whole partial expansion.
func TestDeadlineCancelsCompactMerge(t *testing.T) {
	srv := New(Config{MaxWorlds: 1 << 20})
	compact := func(q string, timeoutMs int) *Response {
		return srv.Handle(context.Background(), &Request{Session: "m", Backend: "compact", Query: q, TimeoutMs: timeoutMs})
	}
	if resp := compact("create table R (K, V)", 0); !resp.OK {
		t.Fatal(resp.Error)
	}
	var rows []string
	for i := 0; i < 17; i++ {
		rows = append(rows, fmt.Sprintf("('k%d', 0), ('k%d', 1)", i, i))
	}
	if resp := compact("insert into R values "+strings.Join(rows, ", "), 0); !resp.OK {
		t.Fatal(resp.Error)
	}
	// 17 components of 2 alternatives; querying across them merges into a
	// 2^17-alternative component — long enough for a 1ms deadline.
	if resp := compact("create table I as select * from R repair by key K", 0); !resp.OK {
		t.Fatal(resp.Error)
	}
	resp := compact("select conf from I where exists (select * from I where V = 1)", 1)
	if resp.OK || !strings.Contains(resp.Error, "deadline") {
		t.Fatalf("compact deadline response = %+v", resp)
	}
	// The gate slot came back: the next statement runs promptly.
	if resp := compact("select count(*) from R", 0); !resp.OK {
		t.Fatal(resp.Error)
	}
}

// TestSharedPlanCacheCrossSessionHits is the acceptance check for the
// process-wide cache: a second session executing the statements a first
// session already compiled performs zero new compilations.
func TestSharedPlanCacheCrossSessionHits(t *testing.T) {
	srv := New(Config{})
	script := append(append([]string{}, figure1Setup...), paperQueries...)
	for _, stmt := range script {
		handleOK(t, srv, Request{Session: "first", Query: stmt})
	}
	prepares := plan.PrepareCount()
	hits := plan.SharedCache().Stats().Hits
	for _, stmt := range script {
		handleOK(t, srv, Request{Session: "second", Query: stmt})
	}
	if got := plan.PrepareCount(); got != prepares {
		t.Errorf("second session compiled %d new templates, want 0 (shared cache miss)", got-prepares)
	}
	if got := plan.SharedCache().Stats().Hits; got <= hits {
		t.Errorf("second session produced no shared-cache hits (hits %d -> %d)", hits, got)
	}
	// And the answers are identical.
	a := handleOK(t, srv, Request{Session: "first", Query: paperQueries[5], Render: true})
	b := handleOK(t, srv, Request{Session: "second", Query: paperQueries[5], Render: true})
	if a.Text != b.Text || a.Text == "" {
		t.Fatalf("cross-session answers diverge: %q vs %q", a.Text, b.Text)
	}
}

func TestCompactBackend(t *testing.T) {
	srv := New(Config{})
	sess := func(q string) *Response {
		return decoded(t, srv.Handle(context.Background(), &Request{Session: "c", Backend: "compact", Query: q}))
	}
	mustOK := func(q string) *Response {
		t.Helper()
		resp := sess(q)
		if !resp.OK {
			t.Fatalf("compact %q: %s", q, resp.Error)
		}
		return resp
	}
	mustOK("create table R (A, B, C, D)")
	mustOK("insert into R values ('a1',10,'c1',2),('a1',15,'c2',6),('a2',14,'c3',4),('a2',20,'c4',5),('a3',20,'c5',6)")
	mustOK("create table I as select * from R repair by key A weight D")

	// 4 worlds, represented compactly.
	list := srv.Handle(context.Background(), &Request{Op: OpList})
	if len(list.Sessions) != 1 || list.Sessions[0].Backend != "compact" || list.Sessions[0].Worlds != "4" {
		t.Fatalf("sessions = %+v", list.Sessions)
	}

	// Example 2.10's confidence, computed by partial expansion.
	resp := mustOK("select conf from I where 50 > (select sum(B) from I)")
	if len(resp.Groups) != 1 || len(resp.Groups[0].Rows.Rows) != 1 {
		t.Fatalf("conf response = %+v", resp)
	}
	if got := resp.Groups[0].Rows.Rows[0][0].(float64); math.Abs(got-4.0/9) > 1e-9 {
		t.Fatalf("conf = %v, want 4/9", got)
	}

	// Possible / certain closures.
	resp = mustOK("select possible B from I")
	if n := len(resp.Groups[0].Rows.Rows); n != 4 {
		t.Fatalf("possible B rows = %d, want 4", n)
	}
	resp = mustOK("select certain A from I")
	if n := len(resp.Groups[0].Rows.Rows); n != 3 {
		t.Fatalf("certain A rows = %d, want 3", n)
	}

	// Plain SQL over certain relations answers directly.
	resp = mustOK("select count(*) from R")
	if v := resp.Groups[0].Rows.Rows[0][0].(float64); v != 5 {
		t.Fatalf("count = %g", v)
	}

	// Materialization by partial expansion, then assert (Example 2.5's
	// statement form): worlds containing c1 are dropped and renormalized.
	mustOK("create table J as select A, B from I where B < 16")
	mustOK("assert not exists (select * from I where C = 'c1')")
	resp = mustOK("select conf from I where (select sum(B) from I) = 49")
	if got := resp.Groups[0].Rows.Rows[0][0].(float64); math.Abs(got-4.0/9) > 1e-9 {
		t.Fatalf("post-assert conf = %v, want 4/9", got)
	}

	// A plain SELECT over uncertain data answers as a conditional relation:
	// a trailing cond column names each row's alternative path.
	resp = mustOK("select * from I")
	if cols := resp.Groups[0].Rows.Columns; cols[len(cols)-1] != "cond" {
		t.Fatalf("conditional relation columns = %v, want trailing cond", cols)
	}

	// Unsupported forms fail with the marker error, not silently.
	for _, q := range []string{
		"select sum(B) from I",                // per-world answers that do not decompose
		"select * from I choice of A",         // split inside plain select
		"create table K (A, primary key (A))", // declared keys
	} {
		if resp := sess(q); resp.OK || !strings.Contains(resp.Error, "unsupported by the compact backend") {
			t.Fatalf("%q: expected unsupported error, got %+v", q, resp)
		}
	}

	// Drop works for certain and uncertain relations alike; the worlds stay.
	mustOK("drop table I")
	if resp := sess("select possible * from I"); resp.OK {
		t.Fatal("I should be gone")
	}
	mustOK("drop table R")
	if resp := sess("select count(*) from R"); resp.OK {
		t.Fatal("R should be gone")
	}
}

func TestHTTPEndpoints(t *testing.T) {
	srv := New(Config{HTTPAddr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	base := "http://" + srv.HTTPAddr().String()

	postBody := func(body string, wantStatus int) *Response {
		t.Helper()
		httpResp, err := http.Post(base+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer httpResp.Body.Close()
		var out Response
		if err := json.NewDecoder(httpResp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if wantStatus != 0 && httpResp.StatusCode != wantStatus {
			t.Errorf("status = %d, want %d (%s)", httpResp.StatusCode, wantStatus, out.Error)
		}
		return &out
	}
	post := func(req Request) *Response {
		t.Helper()
		body, _ := json.Marshal(req)
		return postBody(string(body), 0)
	}
	if resp := post(Request{Session: "h", Query: "create table T (A)"}); !resp.OK {
		t.Fatalf("create over http: %s", resp.Error)
	}
	if resp := post(Request{Session: "h", Query: "insert into T values (1), (2)"}); !resp.OK {
		t.Fatalf("insert over http: %s", resp.Error)
	}
	resp := post(Request{Session: "h", Query: "select possible A from T choice of A"})
	if !resp.OK || resp.Kind != "closed" || len(resp.Groups[0].Rows.Rows) != 2 {
		t.Fatalf("query over http = %+v", resp)
	}
	// Errors map to 422 + ok:false.
	if resp := post(Request{Session: "h", Query: "select nonsense from nowhere"}); resp.OK {
		t.Fatal("bad query must fail")
	}
	// A body is one request object of at most maxRequestBytes, like a TCP
	// line: a larger one gets 413, data after the object 400, and the server
	// goes on serving.
	head, tail := `{"session":"h","query":"select '`, `'"}`
	huge := head + strings.Repeat("a", maxRequestBytes+1-len(head)-len(tail)) + tail
	for body, status := range map[string]int{
		huge:                                    http.StatusRequestEntityTooLarge,
		`{"session":"h","query":"select 1"} x`:  http.StatusBadRequest,
		`{"session":"h","query":"select 1"} {}`: http.StatusBadRequest,
	} {
		if resp := postBody(body, status); resp.OK || !strings.HasPrefix(resp.Error, "bad request") {
			t.Errorf("body of %d bytes: ok=%v, error %q", len(body), resp.OK, resp.Error)
		}
	}
	if resp := postBody(`{"session":"h","query":"select A from T"}`+"\n", http.StatusOK); !resp.OK {
		t.Errorf("after the refusals: %+v", resp)
	}

	healthResp, err := http.Get(base + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer healthResp.Body.Close()
	var h Health
	if err := json.NewDecoder(healthResp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Sessions != 1 || h.Workers < 1 || h.Gate < 1 {
		t.Fatalf("health = %+v", h)
	}
}
