package maybms

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"testing"
	"time"
)

// TestServeEndToEnd drives the exported server API over TCP and checks
// that served statements reach the shared plan cache.
func TestServeEndToEnd(t *testing.T) {
	srv, err := Serve(ServerConfig{TCPAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	conn, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := json.NewEncoder(conn)
	sc := bufio.NewScanner(conn)

	exec := func(query string) ServerResponse {
		t.Helper()
		if err := enc.Encode(ServerRequest{Session: "api", Query: query, Render: true}); err != nil {
			t.Fatal(err)
		}
		if !sc.Scan() {
			t.Fatal("connection closed")
		}
		var resp ServerResponse
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.OK {
			t.Fatalf("%q: %s", query, resp.Error)
		}
		return resp
	}
	exec("create table R (A, B)")
	exec("insert into R values ('x', 1), ('x', 2), ('y', 5)")
	exec("create table I as select * from R repair by key A")
	resp := exec("select possible B from I")

	// The same statements on an embedded DB give the same answer, and the
	// served session's compilations are visible in the shared cache.
	db := Open()
	db.MustExec("create table R (A, B)")
	db.MustExec("insert into R values ('x', 1), ('x', 2), ('y', 5)")
	db.MustExec("create table I as select * from R repair by key A")
	want := db.MustExec("select possible B from I").String()
	if resp.Text != want {
		t.Fatalf("served answer diverged:\n%s\nwant:\n%s", resp.Text, want)
	}
	if st := SharedPlanCacheStats(); st.Hits == 0 && st.Misses == 0 {
		t.Error("shared plan cache saw no traffic")
	}
}
