package server

// transcript_test.go: the golden wire transcript. A fixed script of request
// lines runs over one TCP connection, and every response line must equal
// the recorded one byte for byte: DDL/DML acknowledgements, per-world and
// closed answers, CONF floats on both sides of 1e-6, a conditional
// relation's cond column, NULLs in every column kind, max_rows truncation,
// render, the session operations, an engine error and a malformed line.
// Regenerate with `go test ./internal/server -run TestWireTranscript -update`
// only for a deliberate change of the wire format.

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden wire transcript")

// transcriptScript is one request line per entry, sent in order on one
// connection. list, stats and trace are left out: their timings vary.
var transcriptScript = []string{
	`{"op":"ping"}`,
	`{"session":"g","query":"create table R (A, B, C, D)"}`,
	`{"session":"g","query":"insert into R values ('a1',10,'c1',2),('a1',15,'c2',6),('a2',14,'c3',4),('a2',20,'c4',5),('a3',20,'c5',6)"}`,
	`{"session":"g","query":"create table I as select A, B, C from R repair by key A weight D"}`,
	`{"session":"g","query":"select * from I"}`,
	`{"session":"g","query":"select * from I where A = 'a3'","render":true}`,
	`{"session":"g","query":"select possible B from I"}`,
	`{"session":"g","query":"select certain A from I","render":true}`,
	`{"session":"g","query":"select possible B from I group worlds by (select sum(B) from I)","render":true}`,
	`{"session":"g","query":"select conf from I where 50 > (select sum(B) from I)"}`,
	`{"session":"g","query":"select B, conf from I where A = 'a1'"}`,
	`{"session":"g","query":"select * from I","max_rows":1}`,
	`{"session":"g","query":"select possible B from I","max_rows":2}`,
	`{"session":"g","query":"select possible B from I","max_rows":2,"render":true}`,
	`{"session":"g","query":"select * from R where A = 'none'","render":true}`,
	`{"session":"w","query":"create table W (K, V, P)"}`,
	`{"session":"w","query":"insert into W values ('k', 'a', 1), ('k', 'b', 9999999), ('j', 'c', 1), ('j', 'd', 3)"}`,
	`{"session":"w","query":"create table IW as select K, V from W repair by key K weight P"}`,
	`{"session":"w","query":"select V, conf from IW","render":true}`,
	`{"session":"w","query":"select conf from IW where V = 'a'"}`,
	`{"session":"n","query":"create table N (I, F, T, B)"}`,
	`{"session":"n","query":"insert into N values (1, 1.5, 'a<b>&c', true), (null, null, null, null), (-7, 0.0000001, 'é \"q\" \\\\ ü', false), (3, 1e21, '', true)"}`,
	`{"session":"n","query":"select * from N","render":true}`,
	`{"session":"n","query":"select possible * from N"}`,
	`{"session":"n","query":"create table M (X)"}`,
	`{"session":"n","query":"insert into M values (1), ('one'), (null), (2.5), (true), (-0.0)"}`,
	`{"session":"n","query":"select * from M"}`,
	`{"session":"n","query":"select 'tab\there' as S, 'line\u2028sep' as U, 0.000001 as E6, 123456789012345678901234.0 as Big"}`,
	`{"session":"inc","incomplete":true,"query":"create table R (K, V)"}`,
	`{"session":"inc","query":"insert into R values ('k', 1), ('k', 2)"}`,
	`{"session":"inc","query":"select * from R repair by key K","render":true}`,
	`{"session":"c","backend":"compact","query":"create table R (A, B, C, D)"}`,
	`{"session":"c","query":"insert into R values ('a1',10,'c1',2),('a1',15,'c2',6),('a2',14,'c3',4),('a2',20,'c4',5),('a3',20,'c5',6)"}`,
	`{"session":"c","query":"create table I as select * from R repair by key A weight D"}`,
	`{"session":"c","query":"select * from I","render":true}`,
	`{"session":"c","query":"select * from I","max_rows":2}`,
	`{"session":"c","query":"select B, conf from I","render":true}`,
	`{"session":"c","query":"select possible A, B from I where B > 12"}`,
	`{"session":"c","query":"select count(*) from R"}`,
	`{"session":"g","query":"select nonsense from nowhere"}`,
	`this is not json`,
	`{"session":"g","query":"select sum(B) from I","max_rows":-2}`,
	`{"op":"mystery"}`,
	`{"op":"close","session":"c"}`,
	`{"op":"close","session":"c"}`,
	`{"op":"ping"}`,
}

// runTranscript sends the script over one connection and returns the
// transcript: each request line prefixed "> ", each response line "< ".
func runTranscript(t *testing.T, addr string) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64*1024), 8*1024*1024)
	var out bytes.Buffer
	for _, line := range transcriptScript {
		if _, err := fmt.Fprintln(conn, line); err != nil {
			t.Fatal(err)
		}
		if !sc.Scan() {
			t.Fatalf("no response to %s: %v", line, sc.Err())
		}
		fmt.Fprintf(&out, "> %s\n< %s\n", line, sc.Bytes())
	}
	return out.Bytes()
}

func TestWireTranscript(t *testing.T) {
	srv := startTCPServer(t)
	got := runTranscript(t, srv.TCPAddr().String())
	path := filepath.Join("testdata", "transcript.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("transcript line %d differs:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
