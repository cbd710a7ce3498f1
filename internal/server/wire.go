// Package server implements a concurrent multi-session I-SQL server over
// the MayBMS engine: a session registry of named databases (naive or
// compact backend per session), a newline-delimited JSON protocol over
// TCP, an HTTP endpoint (POST /v1/query, GET /v1/health, GET /v1/stats,
// GET /metrics), per-request deadlines with cooperative statement
// cancellation, bounded result encoding for large answers, idle-session
// eviction and graceful shutdown.
//
// A session holds a core.Engine, and a request is one call of core's
// statement runner on it; a panicking statement fails that request alone.
//
// Observability: GET /metrics renders the process-wide internal/obs
// registry in Prometheus text format alongside server gauges; a request
// with Trace (or ?trace=1 on POST /v1/query) gets the statement's span
// trace back in Response.Trace; statements slower than the configured
// slow-query threshold are logged as structured JSON with their traces.
//
// All sessions share the process-wide compiled-statement cache
// (internal/plan's SharedCache), so concurrent sessions over identical
// schemas reuse each other's query compilations. Each statement runs on one
// goroutine; the workers setting sizes an admission gate (gate.go) bounding
// how many statements execute at once across sessions.
package server

import (
	"fmt"
	"strings"

	"maybms/internal/core"
	"maybms/internal/obs"
	"maybms/internal/relation"
	"maybms/internal/value"
)

// Protocol operations accepted in Request.Op.
const (
	OpQuery = "query" // default when empty
	OpClose = "close" // close the named session
	OpList  = "list"  // list live sessions
	OpPing  = "ping"  // liveness probe
	OpStats = "stats" // server health + per-session backend counters
)

// Request is one client request: a single I-SQL statement against a named
// session, or a session-management operation. Over TCP a request is one
// line of JSON; over HTTP it is the body of POST /v1/query.
type Request struct {
	// Op selects the operation; empty means "query".
	Op string `json:"op,omitempty"`
	// Session names the database the statement runs against. Sessions are
	// created on first use and evicted after the server's idle timeout.
	// Empty selects "default".
	Session string `json:"session,omitempty"`
	// Query is one I-SQL statement (an optional trailing ';' is fine).
	Query string `json:"query,omitempty"`
	// Backend selects the engine when this request creates the session:
	// "naive" (the default; full I-SQL over explicitly enumerated worlds)
	// or "compact" (the world-set-decomposition engine; a restricted
	// statement set over exponentially large world-sets). Ignored when the
	// session already exists.
	Backend string `json:"backend,omitempty"`
	// Incomplete, at session creation, selects a non-probabilistic
	// database (no WEIGHT/CONF; the paper's Example 2.3 mode).
	Incomplete bool `json:"incomplete,omitempty"`
	// MaxRows bounds the encoded rows per relation in the response:
	// 0 selects the server's cap, -1 asks for unbounded encoding, any
	// other negative is rejected. A request can lower the server's cap
	// but never raise one the operator configured — -1 lifts the bound
	// only when the operator left the cap unconfigured or set it to -1
	// (unbounded).
	MaxRows int `json:"max_rows,omitempty"`
	// TimeoutMs is the per-request deadline. The statement is cancelled
	// cooperatively (between per-world units of work) when it expires.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Render asks for the Text field (the engine's exact textual
	// rendering) in addition to the structured rows. Text is subject to
	// the same row bound: when any relation exceeds MaxRows the response
	// is marked Truncated and Text is omitted rather than rendering an
	// unbounded string (raise max_rows to get the full rendering).
	Render bool `json:"render,omitempty"`
	// Trace asks for the statement's span trace (stage timings, routing
	// annotations, evaluation stats) in Response.Trace. Over HTTP,
	// ?trace=1 on POST /v1/query sets it too.
	Trace bool `json:"trace,omitempty"`
}

// Rows is one encoded relation: column names plus row values (JSON
// null/bool/number/string per cell). Truncated reports that the row list
// was cut at the request's MaxRows bound.
type Rows struct {
	Columns   []string `json:"columns"`
	Rows      [][]any  `json:"rows"`
	Truncated bool     `json:"truncated,omitempty"`
}

// WorldRows is the answer of a query in one world.
type WorldRows struct {
	World string  `json:"world"`
	Prob  float64 `json:"prob"`
	Rows
}

// GroupRows is the closed answer over one group of worlds.
type GroupRows struct {
	Worlds []string `json:"worlds,omitempty"`
	Prob   float64  `json:"prob"`
	Rows
}

// CompactCounters are a compact session's execution-routing counters.
type CompactCounters struct {
	// Merges counts component merges (bounded partial expansions that
	// restructured the decomposition).
	Merges uint64 `json:"merges"`
	// Componentwise counts statements answered by the merge-free
	// componentwise path.
	Componentwise uint64 `json:"componentwise"`
	// Conditional counts uses of the conditional (d-tree) machinery:
	// statements answered through a conditional route plus repair/choice
	// splits that created nested components.
	Conditional uint64 `json:"conditional"`
}

// SessionInfo describes one live session.
type SessionInfo struct {
	Name    string `json:"name"`
	Backend string `json:"backend"`
	// Worlds is the world count for naive sessions and the decimal world
	// count of the decomposition for compact ones (possibly astronomic).
	Worlds string `json:"worlds"`
	// IdleMs is the time since the session last executed a statement.
	IdleMs int64 `json:"idle_ms"`
	// Compact carries the compact backend's merge/componentwise counters
	// (absent for naive sessions).
	Compact *CompactCounters `json:"compact,omitempty"`
	// PlanCache attributes shared-plan-cache lookups to this session
	// (the cache itself is process-wide; see Health for its totals).
	PlanCache *PlanCacheCounters `json:"plan_cache,omitempty"`
}

// PlanCacheCounters attribute plan-cache lookups to one session: templates
// found valid in the process-wide shared cache vs. compiled fresh on the
// session's behalf.
type PlanCacheCounters struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// Stats is the GET /v1/stats payload (also returned by the "stats"
// protocol op): the health snapshot — gate, shared-plan-cache traffic —
// plus per-session backend state (world counts and compact execution
// counters).
type Stats struct {
	Server   Health        `json:"server"`
	Sessions []SessionInfo `json:"sessions"`
}

// Response is the server's answer to one Request, one line of JSON over
// TCP or the body of the HTTP response.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Session echoes the session the request ran against.
	Session string `json:"session,omitempty"`
	// Kind mirrors core.ResultKind: "ok", "worlds" or "closed" for
	// queries; "sessions" for list, "pong" for ping, "closed_session" for
	// close.
	Kind string `json:"kind,omitempty"`
	// Msg carries DDL/DML acknowledgements.
	Msg string `json:"msg,omitempty"`
	// Text is the engine's textual rendering (Result.String), present when
	// the request set Render.
	Text string `json:"text,omitempty"`
	// Worlds carries per-world answers (Kind "worlds").
	Worlds []WorldRows `json:"worlds,omitempty"`
	// Groups carries closed answers (Kind "closed").
	Groups []GroupRows `json:"groups,omitempty"`
	// Truncated reports that some relation hit the MaxRows bound.
	Truncated bool `json:"truncated,omitempty"`
	// Sessions carries the session list (Kind "sessions").
	Sessions []SessionInfo `json:"sessions,omitempty"`
	// Stats carries the server statistics (Kind "stats").
	Stats *Stats `json:"stats,omitempty"`
	// Trace carries the statement's span trace when the request asked for
	// one (Request.Trace / ?trace=1).
	Trace *obs.TraceJSON `json:"trace,omitempty"`
}

// errorResponse builds a failure response.
func errorResponse(session string, err error) *Response {
	return &Response{OK: false, Session: session, Error: err.Error()}
}

// encodeValue converts an engine value to its JSON cell encoding.
func encodeValue(v value.Value) any {
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

// encodeRelation encodes rel, keeping at most maxRows rows (-1 =
// unlimited).
func encodeRelation(rel *relation.Relation, maxRows int) Rows {
	out := Rows{Columns: rel.Schema.Names(), Rows: [][]any{}}
	for _, t := range rel.Rows() {
		if maxRows >= 0 && len(out.Rows) >= maxRows {
			out.Truncated = true
			break
		}
		row := make([]any, len(t))
		for i, v := range t {
			row[i] = encodeValue(v)
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// encodeResult converts an engine result into a Response, bounding every
// relation to maxRows rows (-1 = unlimited).
func encodeResult(session string, res *core.Result, maxRows int, render bool) *Response {
	out := &Response{OK: true, Session: session}
	switch res.Kind {
	case core.ResultOK:
		out.Kind = "ok"
		out.Msg = res.Msg
	case core.ResultPerWorld:
		out.Kind = "worlds"
		for _, wr := range res.PerWorld {
			enc := WorldRows{World: wr.World, Prob: wr.Prob, Rows: encodeRelation(wr.Rel, maxRows)}
			out.Truncated = out.Truncated || enc.Rows.Truncated
			out.Worlds = append(out.Worlds, enc)
		}
	case core.ResultClosed:
		out.Kind = "closed"
		for _, g := range res.Groups {
			enc := GroupRows{Worlds: g.Worlds, Prob: g.Prob, Rows: encodeRelation(g.Rel, maxRows)}
			out.Truncated = out.Truncated || enc.Rows.Truncated
			out.Groups = append(out.Groups, enc)
		}
	default:
		return errorResponse(session, fmt.Errorf("unknown result kind %d", res.Kind))
	}
	// Text honours the row bound too: rendering an unbounded string would
	// defeat MaxRows for exactly the large answers it exists to bound.
	if render && !out.Truncated {
		out.Text = res.String()
	}
	return out
}

// normalizeSessionName validates and canonicalizes a session name.
func normalizeSessionName(name string) (string, error) {
	name = strings.TrimSpace(name)
	if name == "" {
		return "default", nil
	}
	if len(name) > 128 {
		return "", fmt.Errorf("session name longer than 128 bytes")
	}
	return name, nil
}
