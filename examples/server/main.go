// Server quickstart: start an in-process I-SQL server, drive two named
// sessions over the HTTP transport, and read the shared-plan-cache
// statistics off /v1/health.
//
// The same server speaks the TCP line protocol; with the standalone
// binary running (go run ./cmd/maybms-serve) this program's requests work
// verbatim against it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"maybms"
)

func main() {
	srv, err := maybms.Serve(maybms.ServerConfig{HTTPAddr: "127.0.0.1:0"})
	if err != nil {
		panic(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	base := "http://" + srv.HTTPAddr().String()

	query := func(req maybms.ServerRequest) maybms.ServerResponse {
		body, _ := json.Marshal(req)
		httpResp, err := http.Post(base+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			panic(err)
		}
		defer httpResp.Body.Close()
		var out maybms.ServerResponse
		if err := json.NewDecoder(httpResp.Body).Decode(&out); err != nil {
			panic(err)
		}
		if !out.OK {
			panic(out.Error)
		}
		return out
	}

	// Two sessions, same schema: the second reuses the first's compiled
	// plans through the process-wide shared cache.
	for _, session := range []string{"alice", "bob"} {
		for _, stmt := range []string{
			`create table R (A, B, C, D)`,
			`insert into R values
				('a1', 10, 'c1', 2), ('a1', 15, 'c2', 6),
				('a2', 14, 'c3', 4), ('a2', 20, 'c4', 5),
				('a3', 20, 'c5', 6)`,
			`create table I as select A, B, C from R repair by key A weight D`,
		} {
			query(maybms.ServerRequest{Session: session, Query: stmt})
		}
		resp := query(maybms.ServerRequest{
			Session: session,
			Query:   `select conf from I where 50 > (select sum(B) from I)`,
			Render:  true,
		})
		fmt.Printf("[%s] conf(sum(B) < 50):\n%s\n", session, resp.Text)
	}

	// A compact session holds exponentially many worlds in linear space;
	// the same wire protocol serves its closures.
	for _, stmt := range []string{
		`create table R (K, V, W)`,
		`insert into R values ('k1', 1, 1), ('k1', 2, 3), ('k2', 7, 1), ('k2', 9, 1)`,
		`create table I as select * from R repair by key K weight W`,
	} {
		query(maybms.ServerRequest{Session: "wide", Backend: "compact", Query: stmt})
	}
	resp := query(maybms.ServerRequest{Session: "wide", Query: `select possible V from I`, Render: true})
	fmt.Printf("[wide/compact] possible V:\n%s\n", resp.Text)

	// Update queries run on the same compact session without expanding
	// it: the rewrite touches each alternative's contribution once (the
	// response reports representation rows, not per-world rows).
	resp = query(maybms.ServerRequest{Session: "wide", Query: `update I set V = V + 100 where K = 'k1'`})
	fmt.Printf("[wide/compact] %s\n", resp.Msg)

	// GROUP WORLDS BY groups the world-set by a subquery's answer — here
	// by which sensor was chosen — and closes within each group. The
	// grouping and main queries touch disjoint components, so the groups
	// come from per-component answer fingerprints: no merge, no
	// enumeration, however many worlds the decomposition represents.
	for _, stmt := range []string{
		`create table Sensors (Id, Reading)`,
		`insert into Sensors values ('s1', 10), ('s2', 20)`,
		`create table Chosen as select * from Sensors choice of Id`,
	} {
		query(maybms.ServerRequest{Session: "wide", Query: stmt})
	}
	resp = query(maybms.ServerRequest{
		Session: "wide",
		Query:   `select conf, K, V from I group worlds by (select Reading from Chosen)`,
	})
	fmt.Printf("[wide/compact] conf per world group:\n")
	for _, g := range resp.Groups {
		fmt.Printf("group (P = %.2f): %d row(s)\n", g.Prob, len(g.Rows.Rows))
	}

	// Repair over an *uncertain* source: the chained repair splits each
	// key-group component in place — no merge, no enumeration — and the
	// factorized CREATE TABLE AS stores a closed answer as a plain
	// certain table on the same session.
	for _, stmt := range []string{
		`create table J as select * from I repair by key K, V`,
		`create table Summary as select possible K, V from J`,
	} {
		query(maybms.ServerRequest{Session: "wide", Backend: "compact", Query: stmt})
	}
	resp = query(maybms.ServerRequest{Session: "wide", Query: `select certain K, V from Summary`, Render: true})
	fmt.Printf("[wide/compact] repair-of-uncertain round trip:\n%s\n", resp.Text)

	// GET /v1/stats reports, per session, the backend, world count, and —
	// for compact sessions — the merges and the statements per route,
	// next to the shared-plan-cache traffic.
	statsResp, err := http.Get(base + "/v1/stats")
	if err != nil {
		panic(err)
	}
	defer statsResp.Body.Close()
	var stats struct {
		Sessions []struct {
			Name    string `json:"name"`
			Backend string `json:"backend"`
			Worlds  string `json:"worlds"`
			Compact *struct {
				Merges uint64            `json:"merges"`
				Routes map[string]uint64 `json:"routes"`
			} `json:"compact"`
		} `json:"sessions"`
	}
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		panic(err)
	}
	for _, s := range stats.Sessions {
		if s.Compact != nil {
			fmt.Printf("session %s (%s): %s worlds, %d merges, routes %v\n",
				s.Name, s.Backend, s.Worlds, s.Compact.Merges, s.Compact.Routes)
		}
	}

	st := maybms.SharedPlanCacheStats()
	fmt.Printf("shared plan cache: %d hits, %d misses (bob rode on alice's compilations)\n",
		st.Hits, st.Misses)
}
