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
// Wire: the types below (Request, Response and its Rows) are the schema
// clients decode. The server writes every response line with one append
// encoder in this file: answer cells go into a byte slice straight from
// colbatch's typed vectors and null bitmaps (row-form answers tuple by
// tuple), never boxed into a [][]any and never through reflective JSON. A
// float JSON cannot represent fails the request with ok:false instead of
// an unreadable line.
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
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"maybms/internal/colbatch"
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

// Rows is one relation of an answer as a client decodes it: column names
// plus row values (JSON null/bool/number/string per cell). Truncated
// reports that the row list was cut at the request's MaxRows bound. Rows,
// WorldRows and GroupRows are the wire schema; the server never builds
// them, but writes the same JSON straight from the answer's columns
// (appendAnswer).
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
	// Routes counts the session's statements per route word (single,
	// componentwise, conditional, merge, approx_mc, refused): the session's
	// share of maybms_route_total, the decision EXPLAIN prints and the trace's
	// route attribute names.
	Routes map[string]uint64 `json:"routes"`
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
	// Compact carries the compact backend's merge and route counters
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
// TCP or the body of the HTTP response. Clients decode the line into it;
// the server writes it with the append encoder below (appendHead,
// encodeResult, appendTail), the fields in this order and omitempty
// honoured.
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
	// Worlds carries per-world answers (Kind "worlds"). It is filled by
	// decoding a line; Handle leaves it empty (see Line).
	Worlds []WorldRows `json:"worlds,omitempty"`
	// Groups carries closed answers (Kind "closed"), filled likewise.
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

	// line is the response as written on the wire (Line).
	line []byte
}

// errorResponse builds a failure response.
func errorResponse(session string, err error) *Response {
	return &Response{OK: false, Session: session, Error: err.Error()}
}

// Line returns the response as the server writes it: one JSON object and
// a newline, the bytes a TCP client reads and an HTTP client gets as the
// body. Handle writes answer cells only here, straight from the engine's
// columns, and leaves Worlds and Groups empty, so an in-process caller
// reads cells by decoding Line into a Response, like every other client.
// Line is nil for a Response that did not come from the server.
func (r *Response) Line() []byte { return r.line }

// encode writes r's line into buf's storage, unless the query path
// already wrote it.
func (r *Response) encode(buf []byte) *Response {
	if r.line == nil {
		r.line = encodeResponse(buf[:0], r)
	}
	return r
}

// encodeResponse appends r as a whole line: the form of every response
// that carries no answer.
func encodeResponse(dst []byte, r *Response) []byte {
	line, err := appendTail(appendHead(dst, r), r)
	if err != nil {
		e := errorResponse(r.Session, err)
		line, _ = appendTail(appendHead(dst, e), e)
	}
	return line
}

// cut reports whether n rows exceed the row bound (-1 = unlimited).
func cut(n, maxRows int) bool { return maxRows >= 0 && n > maxRows }

// encodeResult writes res's response line into dst up to its tail: the
// envelope, then the worlds or groups, each relation cut at maxRows rows.
// Truncated, and with it whether Text is rendered, is decided from
// relation lengths before anything is written. The returned Response
// carries the envelope; appendTail finishes the line. A float cell JSON
// cannot represent fails the whole answer.
func encodeResult(dst []byte, session string, res *core.Result, maxRows int, render bool) (*Response, []byte, error) {
	out := &Response{OK: true, Session: session}
	switch res.Kind {
	case core.ResultOK:
		out.Kind = "ok"
		out.Msg = res.Msg
	case core.ResultPerWorld:
		out.Kind = "worlds"
		for _, wr := range res.PerWorld {
			out.Truncated = out.Truncated || cut(wr.Rel.Len(), maxRows)
		}
	case core.ResultClosed:
		out.Kind = "closed"
		for _, g := range res.Groups {
			out.Truncated = out.Truncated || cut(g.Rel.Len(), maxRows)
		}
	default:
		return nil, dst, fmt.Errorf("unknown result kind %d", res.Kind)
	}
	// Text honours the row bound too: rendering an unbounded string would
	// defeat MaxRows for exactly the large answers it exists to bound.
	if render && !out.Truncated {
		out.Text = res.String()
	}
	dst = appendHead(dst, out)
	var err error
	if len(res.PerWorld) > 0 {
		dst = append(dst, `,"worlds":[`...)
		for i, wr := range res.PerWorld {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"world":`...)
			dst = append(appendString(dst, wr.World), ',')
			if dst, err = appendAnswer(dst, wr.Prob, wr.Rel, maxRows); err != nil {
				return nil, dst, err
			}
		}
		dst = append(dst, ']')
	}
	if len(res.Groups) > 0 {
		dst = append(dst, `,"groups":[`...)
		for i, g := range res.Groups {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '{')
			if len(g.Worlds) > 0 {
				dst = append(dst, `"worlds":[`...)
				for j, w := range g.Worlds {
					if j > 0 {
						dst = append(dst, ',')
					}
					dst = appendString(dst, w)
				}
				dst = append(dst, "],"...)
			}
			if dst, err = appendAnswer(dst, g.Prob, g.Rel, maxRows); err != nil {
				return nil, dst, err
			}
		}
		dst = append(dst, ']')
	}
	return out, dst, nil
}

// appendAnswer appends the part WorldRows and GroupRows share, from
// "prob" to the closing brace: the columns, then the first maxRows rows
// of the relation's batch. A columnar batch is read column-typed; a
// row-form one (fewer than colbatch's floor of rows) tuple by tuple, without
// allocating. Neither is converted to the other.
func appendAnswer(dst []byte, prob float64, rel *relation.Relation, maxRows int) ([]byte, error) {
	dst = append(dst, `"prob":`...)
	var ok bool
	if dst, ok = appendFloat(dst, prob); !ok {
		return dst, errNonFinite(`field "prob"`, prob)
	}
	dst = append(dst, `,"columns":[`...)
	for j := 0; j < rel.Schema.Len(); j++ {
		if j > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, rel.Schema.At(j).Name)
	}
	dst = append(dst, `],"rows":[`...)
	b := rel.Batch()
	n := b.Len()
	truncated := cut(n, maxRows)
	if truncated {
		n = maxRows
	}
	bad := func(j int, v value.Value) error {
		return errNonFinite(fmt.Sprintf("column %q", rel.Schema.At(j).Name), v.AsFloat())
	}
	if b.RowBacked() {
		for i, t := range b.Rows()[:n] {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '[')
			for j, v := range t {
				if j > 0 {
					dst = append(dst, ',')
				}
				if dst, ok = appendValue(dst, v); !ok {
					return dst, bad(j, v)
				}
			}
			dst = append(dst, ']')
		}
	} else {
		cols := make([]*colbatch.Col, b.Width())
		for j := range cols {
			cols[j] = b.Col(j)
		}
		for i := 0; i < n; i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '[')
			for j, c := range cols {
				if j > 0 {
					dst = append(dst, ',')
				}
				if dst, ok = appendCell(dst, c, i); !ok {
					return dst, bad(j, c.Value(i))
				}
			}
			dst = append(dst, ']')
		}
	}
	dst = append(dst, ']')
	if truncated {
		dst = append(dst, `,"truncated":true`...)
	}
	return append(dst, '}'), nil
}

// appendHead appends the opening brace and the fields before the answer:
// ok, error, session, kind, msg and text, in Response's field order and
// honouring omitempty.
func appendHead(dst []byte, r *Response) []byte {
	dst = append(dst, `{"ok":`...)
	dst = strconv.AppendBool(dst, r.OK)
	for _, f := range [...]struct{ key, val string }{
		{`,"error":`, r.Error},
		{`,"session":`, r.Session},
		{`,"kind":`, r.Kind},
		{`,"msg":`, r.Msg},
		{`,"text":`, r.Text},
	} {
		if f.val != "" {
			dst = appendString(append(dst, f.key...), f.val)
		}
	}
	return dst
}

// appendTail appends the fields after the answer (truncated, sessions,
// stats, trace), the closing brace and the newline.
func appendTail(dst []byte, r *Response) ([]byte, error) {
	if r.Truncated {
		dst = append(dst, `,"truncated":true`...)
	}
	var err error
	if len(r.Sessions) > 0 {
		dst, err = appendMarshal(dst, `,"sessions":`, r.Sessions)
	}
	if err == nil && r.Stats != nil {
		dst, err = appendMarshal(dst, `,"stats":`, r.Stats)
	}
	if err == nil && r.Trace != nil {
		dst, err = appendMarshal(dst, `,"trace":`, r.Trace)
	}
	return append(dst, '}', '\n'), err
}

// appendMarshal appends key and json.Marshal(v): the small nested values
// of a response, which hold only strings, integers and booleans.
func appendMarshal(dst []byte, key string, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(append(dst, key...), b...), err
}

// errNonFinite is the error of an answer holding a float JSON has no
// number for.
func errNonFinite(what string, f float64) error {
	return fmt.Errorf("cannot encode answer: %s holds %s, which JSON cannot represent", what, strconv.FormatFloat(f, 'g', -1, 64))
}

// appendCell appends cell i of c as JSON; false for a non-finite float.
func appendCell(dst []byte, c *colbatch.Col, i int) ([]byte, bool) {
	switch {
	case c.Any != nil:
		return appendValue(dst, c.Any[i])
	case c.Kind == value.KindNull, c.Nulls != nil && c.Nulls[i]:
		return append(dst, "null"...), true
	}
	switch c.Kind {
	case value.KindInt:
		return strconv.AppendInt(dst, c.Ints[i], 10), true
	case value.KindFloat:
		return appendFloat(dst, c.Floats[i])
	case value.KindString:
		return appendString(dst, c.Strs[i]), true
	default:
		return strconv.AppendBool(dst, c.Bools[i]), true
	}
}

// appendValue appends v as JSON; false for a non-finite float.
func appendValue(dst []byte, v value.Value) ([]byte, bool) {
	switch v.Kind() {
	case value.KindNull:
		return append(dst, "null"...), true
	case value.KindBool:
		return strconv.AppendBool(dst, v.AsBool()), true
	case value.KindInt:
		return strconv.AppendInt(dst, v.AsInt(), 10), true
	case value.KindFloat:
		return appendFloat(dst, v.AsFloat())
	default:
		return appendString(dst, v.String()), true
	}
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// 'f' form, or 'e' when |f| < 1e-6 or |f| >= 1e21, with a one-digit
// negative exponent unpadded (e-7, not e-07). It reports false, and
// appends nothing, for NaN and ±Inf. An integral f below 2^53 in magnitude,
// other than −0, is written as the int it is: the shortest 'f' form of such
// a float is exactly its integer digits.
func appendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	if i := int64(f); float64(i) == f && i > -1<<53 && i < 1<<53 && (i != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(dst, i, 10), true
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, true
}

// appendString appends s as a JSON string. Printable ASCII other than
// the quote, the backslash and the HTML-escaped <, > and & is written as
// it is; any other string goes through encoding/json, which owns the
// escaping of HTML, control bytes, U+2028/U+2029 and invalid UTF-8.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always encodes
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
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
