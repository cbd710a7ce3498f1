package server

// stats_test.go: the /v1/stats observability surface (per-session backend
// counters + shared-plan-cache traffic) and compact statement forms driven
// through a session's engine.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"maybms/internal/wsd"
)

// TestStatsOpReportsCounters: the "stats" protocol op reports per-session
// backends, world counts, and compact merge and route counters next to
// the process-wide health payload.
func TestStatsOpReportsCounters(t *testing.T) {
	srv := New(Config{})
	handleOK(t, srv, Request{Session: "n", Query: "create table R (A)"})
	for _, stmt := range []string{
		"create table R (K, V, W)",
		"insert into R values (0,0,1),(0,1,1),(1,0,1),(1,1,1)",
		"create table I as select * from R repair by key K",
		"select possible K, V from I",                          // componentwise: flat decomposition
		"create table J as select * from I repair by key K, V", // nests children
		"select possible K, V from J",                          // conditional tree fold
	} {
		handleOK(t, srv, Request{Session: "c", Backend: "compact", Query: stmt})
	}

	resp := srv.Handle(context.Background(), &Request{Op: OpStats})
	if !resp.OK || resp.Kind != "stats" || resp.Stats == nil {
		t.Fatalf("stats op = %+v", resp)
	}
	if !resp.Stats.Server.OK || resp.Stats.Server.Sessions != 2 {
		t.Fatalf("stats server payload = %+v", resp.Stats.Server)
	}
	byName := map[string]SessionInfo{}
	for _, si := range resp.Stats.Sessions {
		byName[si.Name] = si
	}
	n, ok := byName["n"]
	if !ok || n.Backend != "naive" || n.Compact != nil {
		t.Fatalf("naive session info = %+v", n)
	}
	c, ok := byName["c"]
	if !ok || c.Backend != "compact" || c.Compact == nil {
		t.Fatalf("compact session info = %+v", c)
	}
	if c.Worlds != "4" {
		t.Errorf("compact session worlds = %q, want 4", c.Worlds)
	}
	if c.Compact.Merges != 0 {
		t.Errorf("chained repair merged %d times", c.Compact.Merges)
	}
	if got := c.Compact.Routes["componentwise"]; got != 1 {
		t.Errorf("componentwise routes = %d after one componentwise closure, want 1", got)
	}
	if got := c.Compact.Routes["conditional"]; got != 2 {
		t.Errorf("conditional routes = %d after a nesting split and a tree-fold closure, want 2", got)
	}
}

// TestStatsHTTPEndpoint: GET /v1/stats serves the same payload over HTTP.
func TestStatsHTTPEndpoint(t *testing.T) {
	srv := New(Config{HTTPAddr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	handleOK(t, srv, Request{Session: "c", Backend: "compact", Query: "create table R (K, V)"})

	resp, err := http.Get(fmt.Sprintf("http://%s/v1/stats", srv.HTTPAddr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stats status = %d", resp.StatusCode)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if !st.Server.OK || st.Server.Sessions != 1 || len(st.Sessions) != 1 {
		t.Fatalf("stats payload = %+v", st)
	}
	if st.Sessions[0].Backend != "compact" || st.Sessions[0].Compact == nil {
		t.Fatalf("session payload = %+v", st.Sessions[0])
	}
}

// TestCompactCTASClosedAndGrouped: the formerly refused CREATE TABLE AS
// over closed and grouped queries now executes on the compact backend,
// and the stored tables answer further closures.
func TestCompactCTASClosedAndGrouped(t *testing.T) {
	b := wsd.New(true)
	for _, stmt := range []string{
		"create table R (K, V, W)",
		"insert into R values (0,0,1),(0,1,1),(1,0,1),(1,1,1)",
		"create table C (A, B)",
		"insert into C values (10,0),(20,1)",
		"create table I as select * from R repair by key K",
		"create table P as select * from C choice of A",
		"create table Closed as select possible K, V from I",
		"create table Grouped as select conf, K, V from I group worlds by (select B from P)",
	} {
		if _, err := b.Exec(stmt); err != nil {
			t.Fatalf("%q: %v", stmt, err)
		}
	}
	res, err := b.Exec("select certain K, V from Closed")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Groups[0].Rel.Len(); got != 4 {
		t.Errorf("closed CTAS rows = %d, want 4", got)
	}
	// Grouped is fed by P's component: per-world content is its group's
	// conf answer, scaled by the group's probability.
	res, err = b.Exec("select possible * from Grouped")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Groups[0].Rel.Len(); got != 4 {
		t.Errorf("grouped CTAS possible rows = %d, want 4", got)
	}
	if b.MergeCount() != 0 {
		t.Errorf("closed/grouped CTAS merged %d times", b.MergeCount())
	}
}

// TestGroupWorldsDeepISQLRefused: I-SQL nested inside a grouping
// subquery's own subqueries is refused up front (deep walk), not
// surfaced as an internal planner-contract error.
func TestGroupWorldsDeepISQLRefused(t *testing.T) {
	b := wsd.New(true)
	for _, stmt := range []string{
		"create table R (K, V)",
		"insert into R values (0,0),(0,1)",
		"create table I as select * from R repair by key K",
	} {
		if _, err := b.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	for _, stmt := range []string{
		"select possible K from I group worlds by (select V from I where exists (select conf from I))",
		"create table X as select possible K from I group worlds by (select V from I where exists (select conf from I))",
	} {
		_, err := b.Exec(stmt)
		if err == nil || !strings.Contains(err.Error(), "must be plain SQL") {
			t.Errorf("%q error = %v, want the plain-SQL refusal", stmt, err)
		}
	}
}
