package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"maybms/internal/core"
	"maybms/internal/obs"
	"maybms/internal/plan"
)

// Defaults for Config's zero values.
const (
	DefaultMaxSessions = 1024
	DefaultMaxRows     = 10000
	DefaultIdleTimeout = 15 * time.Minute
)

// maxRequestBytes caps one request on either transport: a TCP request line
// or an HTTP request body.
const maxRequestBytes = 8 << 20

// Config parameterizes a Server. The zero value is a working local
// configuration with both listeners disabled (useful for embedding;
// Handle still works).
type Config struct {
	// TCPAddr is the listen address of the newline-delimited JSON
	// protocol ("" disables; ":0" picks a free port).
	TCPAddr string
	// HTTPAddr is the listen address of the HTTP transport
	// (POST /v1/query, GET /v1/health; "" disables).
	HTTPAddr string
	// Workers sizes the admission gate: how many statements execute at
	// once across sessions (0 selects GOMAXPROCS). Each statement runs on
	// one goroutine.
	Workers int
	// MaxSessions bounds the number of live sessions (default 1024).
	MaxSessions int
	// IdleTimeout evicts sessions idle this long (default 15m; < 0
	// disables eviction).
	IdleTimeout time.Duration
	// MaxRows bounds encoded rows per relation in responses (default
	// 10000; -1 disables). Requests may lower (or with -1 lift) it.
	MaxRows int
	// MaxWorlds bounds each naive session's world-set and each compact
	// session's merge limit (0 keeps the engine defaults).
	MaxWorlds int
	// RequestTimeout caps every request's execution time (0 = uncapped;
	// requests may still set tighter deadlines via timeout_ms).
	RequestTimeout time.Duration
	// PlanCacheCapacity, when > 0, re-bounds the process-wide shared plan
	// cache at server start.
	PlanCacheCapacity int
	// SlowQueryThreshold, when > 0, logs every statement that runs longer
	// than this as one structured JSON line (with its trace) to
	// SlowQueryLog.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives the slow-query lines (default os.Stderr).
	SlowQueryLog io.Writer
}

// Health is the GET /v1/health payload.
type Health struct {
	OK       bool   `json:"ok"`
	Sessions int    `json:"sessions"`
	UptimeMs int64  `json:"uptime_ms"`
	Workers  int    `json:"workers"`
	Gate     int    `json:"gate"`
	Prepares uint64 `json:"plan_prepares"`
	// Plan-cache traffic of the process-wide shared cache.
	CacheHits      uint64 `json:"plan_cache_hits"`
	CacheMisses    uint64 `json:"plan_cache_misses"`
	CacheEvictions uint64 `json:"plan_cache_evictions"`
	CacheEntries   int    `json:"plan_cache_entries"`
	Goroutines     int    `json:"goroutines"`
	GoVersion      string `json:"go_version"`
}

// Server-side request metrics (process-wide; see GET /metrics).
var (
	requestsQuery = obs.Default().Counter(`maybms_requests_total{op="query"}`,
		"Requests handled, by operation.")
	requestsOther = obs.Default().Counter(`maybms_requests_total{op="other"}`,
		"Requests handled, by operation.")
	requestErrors = obs.Default().Counter("maybms_request_errors_total",
		"Requests answered with an error response.")
	stmtSecondsNaive = obs.Default().Histogram(`maybms_statement_seconds{backend="naive"}`,
		"Statement execution latency in seconds, by backend.", obs.DurationBuckets)
	stmtSecondsCompact = obs.Default().Histogram(`maybms_statement_seconds{backend="compact"}`,
		"Statement execution latency in seconds, by backend.", obs.DurationBuckets)
	slowQueries = obs.Default().Counter("maybms_slow_queries_total",
		"Statements exceeding the slow-query threshold.")
)

// Server is a concurrent multi-session I-SQL server. Create with New,
// start listeners with Start, stop with Shutdown.
type Server struct {
	cfg  Config
	reg  *registry
	gate *gate
	// maxRowsConfigured records whether the operator set Config.MaxRows
	// explicitly (New normalizes 0 to DefaultMaxRows, which would make an
	// explicit cap of exactly DefaultMaxRows indistinguishable from the
	// default by value).
	maxRowsConfigured bool

	baseCtx context.Context
	cancel  context.CancelFunc
	started time.Time

	mu      sync.Mutex
	tcpLn   net.Listener
	httpLn  net.Listener
	httpSrv *http.Server
	// conns maps live TCP connections to their busy flag (true while a
	// request is executing), so Shutdown can close idle connections
	// immediately instead of waiting out clients that merely hold a
	// connection open.
	conns   map[net.Conn]*atomic.Bool
	closing atomic.Bool
	running bool

	connWG sync.WaitGroup
	loopWG sync.WaitGroup
	// slowMu serializes slow-query log lines across concurrent requests.
	slowMu sync.Mutex
}

// New creates a server from cfg without binding anything.
func New(cfg Config) *Server {
	maxRowsConfigured := cfg.MaxRows != 0
	if cfg.MaxRows == 0 {
		cfg.MaxRows = DefaultMaxRows
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	if cfg.SlowQueryLog == nil {
		cfg.SlowQueryLog = os.Stderr
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:               cfg,
		reg:               newRegistry(cfg.MaxSessions),
		gate:              newGate(cfg.Workers),
		maxRowsConfigured: maxRowsConfigured,
		baseCtx:           ctx,
		cancel:            cancel,
		started:           time.Now(),
		conns:             map[net.Conn]*atomic.Bool{},
	}
}

// Start binds the configured listeners and serves until Shutdown.
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return errors.New("server already started")
	}
	if s.baseCtx.Err() != nil {
		// The base context died with Shutdown; restarted requests would
		// nondeterministically abort against its closed Done channel.
		return errors.New("server cannot be restarted after Shutdown; create a new Server")
	}
	if s.cfg.PlanCacheCapacity > 0 {
		plan.SharedCache().SetCapacity(s.cfg.PlanCacheCapacity)
	}
	if s.cfg.TCPAddr != "" {
		ln, err := net.Listen("tcp", s.cfg.TCPAddr)
		if err != nil {
			return fmt.Errorf("tcp listen: %w", err)
		}
		s.tcpLn = ln
		s.loopWG.Add(1)
		go s.acceptLoop(ln)
	}
	if s.cfg.HTTPAddr != "" {
		ln, err := net.Listen("tcp", s.cfg.HTTPAddr)
		if err != nil {
			if s.tcpLn != nil {
				s.tcpLn.Close()
				s.tcpLn = nil
			}
			return fmt.Errorf("http listen: %w", err)
		}
		s.httpLn = ln
		mux := http.NewServeMux()
		mux.HandleFunc("POST /v1/query", s.handleHTTPQuery)
		mux.HandleFunc("GET /v1/health", s.handleHTTPHealth)
		mux.HandleFunc("GET /v1/stats", s.handleHTTPStats)
		mux.HandleFunc("GET /metrics", s.handleMetrics)
		s.httpSrv = &http.Server{Handler: mux, BaseContext: func(net.Listener) context.Context { return s.baseCtx }}
		s.loopWG.Add(1)
		go func() {
			defer s.loopWG.Done()
			_ = s.httpSrv.Serve(ln) // returns ErrServerClosed on Shutdown
		}()
	}
	if s.cfg.IdleTimeout > 0 {
		s.loopWG.Add(1)
		go s.evictLoop()
	}
	s.running = true
	return nil
}

// TCPAddr returns the bound TCP address (nil when disabled or not
// started).
func (s *Server) TCPAddr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tcpLn == nil {
		return nil
	}
	return s.tcpLn.Addr()
}

// HTTPAddr returns the bound HTTP address (nil when disabled or not
// started).
func (s *Server) HTTPAddr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.httpLn == nil {
		return nil
	}
	return s.httpLn.Addr()
}

// Shutdown stops accepting work, closes idle connections, waits for
// in-flight requests up to ctx's deadline, then force-closes what remains
// and drops every session.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	// closing is set under s.mu, and acceptLoop registers connections
	// under s.mu checking it first — so every connection is either swept
	// below or refused at registration; none can slip in after the sweep
	// and stall the drain.
	s.closing.Store(true)
	tcpLn, httpSrv := s.tcpLn, s.httpSrv
	s.tcpLn, s.httpSrv, s.httpLn = nil, nil, nil
	s.running = false
	// Idle connections (no request executing) are blocked in a read with
	// nothing owed to them — close them now so the drain below only waits
	// for real work. Busy connections finish their in-flight response and
	// exit on the closing flag.
	for c, busy := range s.conns {
		if !busy.Load() {
			c.Close()
		}
	}
	s.mu.Unlock()

	if tcpLn != nil {
		tcpLn.Close()
	}
	var httpErr error
	if httpSrv != nil {
		httpErr = httpSrv.Shutdown(ctx)
	}

	// Wait for TCP connections to drain; on deadline, force-close them
	// (in-flight statements abort via the cancelled base context).
	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
	}
	s.cancel()
	s.connWG.Wait()
	s.loopWG.Wait()
	s.reg.closeAll()
	if httpErr != nil {
		return httpErr
	}
	return ctx.Err()
}

// evictLoop periodically drops idle sessions.
func (s *Server) evictLoop() {
	defer s.loopWG.Done()
	period := s.cfg.IdleTimeout / 4
	if period < time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			s.reg.evictIdle(s.cfg.IdleTimeout)
		}
	}
}

// acceptLoop serves the TCP line protocol.
func (s *Server) acceptLoop(ln net.Listener) {
	defer s.loopWG.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed by Shutdown
		}
		busy := &atomic.Bool{}
		s.mu.Lock()
		if s.closing.Load() {
			// Shutdown's sweep already ran; refusing here (instead of
			// registering) keeps the connection out of the drain.
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = busy
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn, busy)
	}
}

// serveConn handles one TCP connection: one JSON request per line, one
// JSON response line per request, in order. busy is raised around each
// request so Shutdown distinguishes idle connections (closed immediately)
// from in-flight ones (drained).
func (s *Server) serveConn(conn net.Conn, busy *atomic.Bool) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.connWG.Done()
	}()
	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 64*1024), maxRequestBytes)
	// buf is the connection's one response buffer, reused line after line.
	var buf []byte
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		busy.Store(true)
		if s.closing.Load() {
			// The shutdown sweep may have classified this connection idle
			// (the request line landed concurrently) and closed it; do not
			// execute a statement whose response cannot be delivered.
			return
		}
		var req Request
		var resp *Response
		if err := json.Unmarshal([]byte(line), &req); err != nil {
			resp = errorResponse("", fmt.Errorf("bad request: %w", err)).encode(buf)
		} else {
			resp = s.handle(s.baseCtx, &req, buf).encode(buf)
		}
		_, err := conn.Write(resp.line)
		busy.Store(false)
		if err != nil || s.closing.Load() {
			return
		}
		// Past maxRequestBytes the buffer is dropped, so that one huge
		// answer does not stay pinned for the connection's life.
		if buf = resp.line[:0]; cap(buf) > maxRequestBytes {
			buf = nil
		}
	}
	// A failed read (e.g. a request line beyond maxRequestBytes)
	// still owes the client a diagnostic before the connection closes —
	// resynchronizing mid-line is impossible, so closing is correct.
	if err := scanner.Err(); err != nil {
		_, _ = conn.Write(errorResponse("", fmt.Errorf("read: %w", err)).encode(buf).line)
	}
}

// handleHTTPQuery is POST /v1/query. The body is one request object, read
// as a TCP line is: past maxRequestBytes it is refused with 413, and
// anything but white space after the object with 400.
func (s *Server) handleHTTPQuery(w http.ResponseWriter, r *http.Request) {
	var req Request
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err == nil {
		err = json.Unmarshal(body, &req)
	}
	if err != nil {
		status := http.StatusBadRequest
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_, _ = w.Write(errorResponse("", fmt.Errorf("bad request: %w", err)).encode(nil).line)
		return
	}
	if v := r.URL.Query().Get("trace"); v == "1" || v == "true" {
		req.Trace = true
	}
	resp := s.Handle(r.Context(), &req)
	w.Header().Set("Content-Type", "application/json")
	if !resp.OK {
		w.WriteHeader(http.StatusUnprocessableEntity)
	}
	// The line is encoded whole (row-bounded by max_rows) before the first
	// byte is written: the same bytes a TCP client reads.
	_, _ = w.Write(resp.line)
}

// health snapshots the process-wide counters.
func (s *Server) health() Health {
	st := plan.SharedCache().Stats()
	return Health{
		OK:             true,
		Sessions:       s.reg.len(),
		UptimeMs:       time.Since(s.started).Milliseconds(),
		Workers:        s.gate.size(),
		Gate:           s.gate.size(),
		Prepares:       plan.PrepareCount(),
		CacheHits:      st.Hits,
		CacheMisses:    st.Misses,
		CacheEvictions: st.Evictions,
		CacheEntries:   plan.SharedCache().Len(),
		Goroutines:     runtime.NumGoroutine(),
		GoVersion:      runtime.Version(),
	}
}

// handleMetrics is GET /metrics: the process-wide obs registry in
// Prometheus text format, preceded by scrape-time server gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	h := s.health()
	obs.WriteGauge(w, "maybms_sessions", "Live sessions.", float64(h.Sessions))
	obs.WriteGauge(w, "maybms_uptime_seconds", "Seconds since server start.", float64(h.UptimeMs)/1000)
	obs.WriteGauge(w, "maybms_goroutines", "Goroutines in the server process.", float64(h.Goroutines))
	obs.WriteGauge(w, "maybms_gate_slots", "Admission-gate capacity (concurrent statements).", float64(h.Gate))
	obs.WriteGauge(w, "maybms_plan_prepares_total", "Plan template compilations.", float64(h.Prepares))
	obs.WriteGauge(w, "maybms_plan_cache_hits_total", "Shared plan-cache hits.", float64(h.CacheHits))
	obs.WriteGauge(w, "maybms_plan_cache_misses_total", "Shared plan-cache misses.", float64(h.CacheMisses))
	obs.WriteGauge(w, "maybms_plan_cache_evictions_total", "Shared plan-cache evictions.", float64(h.CacheEvictions))
	obs.WriteGauge(w, "maybms_plan_cache_entries", "Shared plan-cache resident templates.", float64(h.CacheEntries))
	obs.Default().WritePrometheus(w)
}

// stats extends the health snapshot with per-session engine state.
func (s *Server) stats() *Stats {
	return &Stats{Server: s.health(), Sessions: s.reg.list()}
}

// handleHTTPHealth is GET /v1/health.
func (s *Server) handleHTTPHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.health())
}

// handleHTTPStats is GET /v1/stats: the health payload plus per-session
// world counts and the compact backends' merge and per-route counts.
func (s *Server) handleHTTPStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.stats())
}

// Handle executes one request. It is the transport-independent entry
// point (both the TCP and HTTP paths go through it), safe for concurrent
// use. The response's Line holds exactly what a TCP client would read;
// answer cells are written only there, so an in-process caller decodes
// Line into a Response to read them (Worlds and Groups are left empty).
func (s *Server) Handle(ctx context.Context, req *Request) *Response {
	return s.handle(ctx, req, nil).encode(nil)
}

// handle executes one request; a query's answer line is written into
// buf's storage.
func (s *Server) handle(ctx context.Context, req *Request, buf []byte) *Response {
	name, err := normalizeSessionName(req.Session)
	if err != nil {
		return errorResponse(req.Session, err)
	}
	switch req.Op {
	case "", OpQuery:
		requestsQuery.Inc()
		resp := s.handleQuery(ctx, name, req, buf)
		if !resp.OK {
			requestErrors.Inc()
		}
		return resp
	case OpClose:
		requestsOther.Inc()
		if s.reg.close(name) {
			return &Response{OK: true, Session: name, Kind: "closed_session"}
		}
		return errorResponse(name, fmt.Errorf("no session %q", name))
	case OpList:
		requestsOther.Inc()
		return &Response{OK: true, Kind: "sessions", Sessions: s.reg.list()}
	case OpStats:
		requestsOther.Inc()
		return &Response{OK: true, Kind: "stats", Stats: s.stats()}
	case OpPing:
		requestsOther.Inc()
		return &Response{OK: true, Kind: "pong"}
	default:
		requestsOther.Inc()
		requestErrors.Inc()
		return errorResponse(name, fmt.Errorf("unknown op %q", req.Op))
	}
}

// effectiveMaxRows validates the request's max_rows field against the
// server's cap. 0 selects the cap; -1 asks for unbounded encoding; other
// negatives are rejected. A request can always lower the cap but never
// raise a cap the operator configured (even one equal to the default
// value) — only when the cap was left unconfigured, or explicitly set to
// -1 (unbounded), does the request value win.
func (s *Server) effectiveMaxRows(req *Request) (int, error) {
	cap := s.cfg.MaxRows
	if cap < 0 {
		cap = -1
	}
	if req.MaxRows == 0 {
		return cap, nil
	}
	if req.MaxRows < -1 {
		return 0, fmt.Errorf("invalid max_rows %d (want -1 for unbounded, 0 for the server default, or a positive bound)", req.MaxRows)
	}
	if cap == -1 || !s.maxRowsConfigured {
		return req.MaxRows, nil
	}
	if req.MaxRows == -1 || req.MaxRows > cap {
		return cap, nil // never raise a configured cap
	}
	return req.MaxRows, nil
}

// handleQuery runs one statement against the named session and writes
// its answer line into buf's storage.
func (s *Server) handleQuery(ctx context.Context, name string, req *Request, buf []byte) *Response {
	if strings.TrimSpace(req.Query) == "" {
		return errorResponse(name, errors.New("empty query"))
	}
	// Validate the row bound before executing anything: a bad max_rows
	// must not cost a statement evaluation.
	maxRows, err := s.effectiveMaxRows(req)
	if err != nil {
		return errorResponse(name, err)
	}

	// Per-request deadline: the tighter of the request's and the server's.
	timeout := s.cfg.RequestTimeout
	if req.TimeoutMs > 0 {
		rt := time.Duration(req.TimeoutMs) * time.Millisecond
		if timeout <= 0 || rt < timeout {
			timeout = rt
		}
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	// Resolve the session and take its execution lock; the registry
	// constructs engines outside its mutex and re-verifies, after the
	// lock is won, that the session is still the one registered under its
	// name (an idle-eviction sweep or close can race the acquisition).
	sess, err := s.reg.acquireOwned(ctx, name, func() (core.Engine, error) {
		return newBackend(req.Backend, !req.Incomplete, s.cfg.MaxWorlds)
	})
	if err != nil {
		return errorResponse(name, err)
	}

	// Cross-request admission: one gate slot per executing statement, so
	// Workers bounds how many statements run at once across sessions.
	if err := s.gate.acquire(ctx); err != nil {
		sess.release()
		return errorResponse(name, err)
	}

	// A trace is installed when the client asked for one or a slow-query
	// threshold is configured (so slow statements always log with spans).
	// It lives for exactly this statement; the session lock serializes
	// statements, so traces never interleave within a session.
	var tr *obs.Trace
	if req.Trace || s.cfg.SlowQueryThreshold > 0 {
		tr = obs.NewTrace(req.Query)
	}

	// Run the statement with cooperative cancellation. On deadline the
	// request returns immediately; the statement observes the interrupt at
	// its next per-world unit of work and the session lock is held until
	// it actually stops, keeping the session serialized.
	kind, _ := sess.engine.Kind()
	type outcome struct {
		res *core.Result
		err error
	}
	ch := make(chan outcome, 1)
	start := time.Now()
	go func() {
		res, err := core.ExecTraced(sess.engine, req.Query, ctx.Err, tr)
		elapsed := time.Since(start)
		s.observeStatement(kind, name, req.Query, elapsed, tr)
		s.reg.touch(sess)
		s.gate.release()
		sess.release()
		ch <- outcome{res, err}
	}()

	select {
	case out := <-ch:
		if out.err != nil {
			return errorResponse(name, out.err)
		}
		// The exec goroutine has finished (outcome received), so the trace
		// is quiescent: spanning the encode and snapshotting are safe.
		sp := tr.Begin("encode")
		resp, line, err := encodeResult(buf[:0], name, out.res, maxRows, req.Render)
		sp.End(tr)
		if err != nil {
			return errorResponse(name, err)
		}
		if req.Trace && tr != nil {
			resp.Trace = tr.JSON()
		}
		// trace is the line's last field, so it follows the encode span it
		// reports.
		if resp.line, err = appendTail(line, resp); err != nil {
			return errorResponse(name, err)
		}
		return resp
	case <-ctx.Done():
		return errorResponse(name, fmt.Errorf("request aborted: %w", ctx.Err()))
	}
}

// observeStatement records a finished statement's latency and, past the
// configured threshold, emits one structured slow-query JSON line.
func (s *Server) observeStatement(kind, session, query string, elapsed time.Duration, tr *obs.Trace) {
	switch kind {
	case "compact":
		stmtSecondsCompact.Observe(elapsed.Seconds())
	default:
		stmtSecondsNaive.Observe(elapsed.Seconds())
	}
	if s.cfg.SlowQueryThreshold <= 0 || elapsed < s.cfg.SlowQueryThreshold {
		return
	}
	slowQueries.Inc()
	line := struct {
		Time      string         `json:"time"`
		Level     string         `json:"level"`
		Msg       string         `json:"msg"`
		Session   string         `json:"session"`
		Backend   string         `json:"backend"`
		Query     string         `json:"query"`
		ElapsedMs float64        `json:"elapsed_ms"`
		Trace     *obs.TraceJSON `json:"trace,omitempty"`
	}{
		Time:      time.Now().UTC().Format(time.RFC3339Nano),
		Level:     "warn",
		Msg:       "slow query",
		Session:   session,
		Backend:   kind,
		Query:     query,
		ElapsedMs: float64(elapsed.Microseconds()) / 1000,
		Trace:     tr.JSON(),
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return
	}
	s.slowMu.Lock()
	defer s.slowMu.Unlock()
	_, _ = s.cfg.SlowQueryLog.Write(append(buf, '\n'))
}
