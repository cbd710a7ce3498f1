package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"maybms/internal/relation"
	"maybms/internal/server"
	"maybms/internal/sqlparse"
	"maybms/internal/wsd"
)

// The traced pass records spans from this package only, around calls
// into public functions. Per statement and under one request id:
//
//	request          TCP send → response line, against an in-process server
//	  server.handle  the same request through Server.Handle of a twin
//	                 server that has seen exactly the same statements
//	    engine       Handle's statement trace up to the start of encode
//	      <stages>   parse, plan, analyze, eval, … from Response.Trace
//	    encode       result encoding, from Response.Trace
//	sqlparse.parse   sqlparse.Parse on the statement text, timed directly
//
// request and server.handle are two executions of one statement, so
// server.wire (request − server.handle) is formed from their sums over a
// round, not statement by statement.

// layerOf maps a stage span to the module that is busy during it. The
// naive backend evaluates per world inside core; the compact one hands
// world-independent plans to algebra and does the rest in wsd.
func layerOf(span, backend string) string {
	switch span {
	case "request", "server.handle", "encode":
		return "server"
	case "parse", "sqlparse.parse":
		return "sqlparse"
	case "plan":
		return "plan"
	case "eval":
		if backend == "compact" {
			return "algebra"
		}
		return "core"
	case "analyze", "componentwise", "conditional", "merge_eval", "approx_mc":
		return "wsd"
	default: // closure, engine
		if backend == "compact" {
			return "wsd"
		}
		return "core"
	}
}

var layers = []string{"server", "sqlparse", "plan", "wsd", "core", "algebra"}

// A span is one timed interval of one request.
type span struct {
	Req     int    `json:"req"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Layer   string `json:"layer"`
	StartUs int64  `json:"start_us"` // request: from the start of the pass; others: from their parent's clock
	DurUs   int64  `json:"dur_us"`
	SelfUs  int64  `json:"self_us"`
}

// roundTrace is what the traced pass adds up over one round.
type roundTrace struct {
	stmts      int
	requestUs  int64
	handleUs   int64
	parseUs    int64            // sqlparse.Parse timed directly
	selfUs     map[string]int64 // by layer
	spanCount  map[string]int   // by layer
	routes     map[string]int
	planHits   int
	planMisses int
	batch, row uint64
	rows       uint64
	merges     uint64  // of sessions closed during the round
	worlds     float64 // most worlds of a naive session closed during the round
}

// sessionCounts are the per-session figures of the server's statistics.
type sessionCounts struct {
	merges uint64  // component merges, summed over compact sessions
	worlds float64 // world count of the largest naive session
}

// countSessions reads the statistics of the named session, or of all
// sessions when name is empty.
func countSessions(srv *server.Server, name string) sessionCounts {
	var out sessionCounts
	st := srv.Handle(context.Background(), &server.Request{Op: server.OpStats})
	if st.Stats == nil {
		return out
	}
	for _, s := range st.Stats.Sessions {
		if name != "" && s.Name != name {
			continue
		}
		if s.Compact != nil {
			out.merges += s.Compact.Merges
		}
		var n float64
		if _, err := fmt.Sscan(s.Worlds, &n); err == nil && s.Backend == "naive" {
			out.worlds = max(out.worlds, n)
		}
	}
	return out
}

func newRoundTrace() *roundTrace {
	return &roundTrace{selfUs: map[string]int64{}, spanCount: map[string]int{}, routes: map[string]int{}}
}

// A tracer is the traced pass's recorder: the twin server, the spans and
// the current round's sums.
type tracer struct {
	twin  *server.Server
	start time.Time

	mu     sync.Mutex
	on     bool
	nextID int
	spans  []span
	cur    *roundTrace
	failed int
	first  string
}

// selfTimes fills in each stage span's parent and self time: a span is
// the child of the narrowest span that contains it, and its self time is
// its duration minus the part of it that its children cover.
func selfTimes(spans []span) {
	idx := make([]int, len(spans))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		x, y := spans[idx[a]], spans[idx[b]]
		if x.StartUs != y.StartUs {
			return x.StartUs < y.StartUs
		}
		return x.DurUs > y.DurUs
	})
	end := func(i int) int64 { return spans[i].StartUs + spans[i].DurUs }
	covered := make([]int64, len(spans)) // by children, overlaps counted once
	coverEnd := make([]int64, len(spans))
	var stack []int
	for _, i := range idx {
		// Offsets are whole microseconds, so a child may seem to end up to
		// two after its parent.
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			if spans[i].StartUs < end(top) && end(i) <= end(top)+2 {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			spans[i].Parent = spans[p].Name
			from := max(spans[i].StartUs, coverEnd[p])
			if e := end(i); e > from {
				covered[p] += e - from
				coverEnd[p] = e
			}
		}
		coverEnd[i] = spans[i].StartUs
		stack = append(stack, i)
	}
	for i := range spans {
		spans[i].SelfUs = max(0, spans[i].DurUs-covered[i])
	}
}

// after is the loader's hook: it runs the statement a second time through
// the twin's Handle with tracing on, times the parser on its text, and
// records the spans.
func (t *tracer) after(rq *request, start time.Time, lat time.Duration) {
	req := *rq.twin
	var closing sessionCounts
	if rq.st.Class == "close" {
		// The session's counters go with it; read them first.
		closing = countSessions(t.twin, req.Session)
	}
	req.Trace = true
	t0 := time.Now()
	resp := t.twin.Handle(context.Background(), &req)
	handle := time.Since(t0)
	var parse time.Duration
	if req.Query != "" {
		t0 = time.Now()
		_, _ = sqlparse.Parse(req.Query) // ASSERT statements are not the parser's; their time still counts
		parse = time.Since(t0)
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if !resp.OK {
		t.failed++
		if t.first == "" {
			t.first = fmt.Sprintf("twin server: %.120s: %s", req.Query, resp.Error)
		}
	}
	if !t.on {
		return
	}
	id := t.nextID
	t.nextID++
	backend := req.Backend
	r := t.cur
	r.stmts++
	r.requestUs += lat.Microseconds()
	r.handleUs += handle.Microseconds()
	r.parseUs += parse.Microseconds()
	r.merges += closing.merges
	r.worlds = max(r.worlds, closing.worlds)

	handleSpan := span{Req: id, Name: "server.handle", Parent: "request", Layer: "server", DurUs: handle.Microseconds()}
	var stages []span
	if tr := resp.Trace; tr != nil {
		engine := span{Req: id, Name: "engine", Layer: layerOf("engine", backend), DurUs: tr.TotalUs}
		for _, sp := range tr.Spans {
			if sp.Name == "encode" {
				engine.DurUs = sp.StartUs
			}
		}
		stages = append(stages, engine)
		for _, sp := range tr.Spans {
			stages = append(stages, span{Req: id, Name: sp.Name, Layer: layerOf(sp.Name, backend), StartUs: sp.StartUs, DurUs: sp.DurUs})
			for _, a := range sp.Attrs {
				if sp.Name != "plan" || a.Key != "cache" {
					continue
				}
				if a.Value == "hit" {
					r.planHits++
				} else {
					r.planMisses++
				}
			}
		}
		selfTimes(stages)
		for i := range stages {
			if stages[i].Parent == "" {
				stages[i].Parent = "server.handle"
			}
		}
		for _, a := range tr.Attrs {
			if a.Key == "route" {
				r.routes[a.Value]++
			}
		}
		r.batch += tr.Exec.BatchCollects
		r.row += tr.Exec.RowCollects
		r.rows += tr.Exec.Rows
	}
	var inside int64
	for _, sp := range stages {
		r.selfUs[sp.Layer] += sp.SelfUs
		r.spanCount[sp.Layer]++
		if sp.Parent == "server.handle" {
			inside += sp.DurUs
		}
	}
	handleSpan.SelfUs = max(0, handleSpan.DurUs-inside)
	r.selfUs["server"] += handleSpan.SelfUs
	r.spanCount["server"] += 2
	t.spans = append(t.spans,
		span{Req: id, Name: "request", Layer: "server", StartUs: start.Sub(t.start).Microseconds(), DurUs: lat.Microseconds()},
		handleSpan,
		span{Req: id, Name: "sqlparse.parse", Layer: "sqlparse", DurUs: parse.Microseconds(), SelfUs: parse.Microseconds()})
	t.spans = append(t.spans, stages...)
}

// A layerShare is one row of the per-workload table.
type layerShare struct {
	Layer      string  `json:"layer"`
	Spans      int     `json:"spans"`
	BusyMs     float64 `json:"busy_ms_per_stmt"`
	ShareOfReq float64 `json:"share_of_request"`
}

// runTraced measures the per-layer metrics of one workload: a few rounds
// with the hook off give the untraced latency under the same conditions,
// then the traced rounds run until the time is used up.
func runTraced(o options, name, traceOut string) (*result, error) {
	res := &result{Workload: name, Metrics: map[string]value{}, Printed: map[string]value{}, Counts: map[string]float64{}}
	w, err := generate(name, o.seed, o.scale)
	if err != nil {
		return nil, err
	}
	dataDir := filepath.Join(o.workDir, "data", name)
	if err := w.writeFiles(dataDir); err != nil {
		return nil, err
	}

	front := server.New(server.Config{TCPAddr: "127.0.0.1:0"})
	if err := front.Start(); err != nil {
		return nil, err
	}
	twin := server.New(server.Config{})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = front.Shutdown(ctx)
		_ = twin.Shutdown(ctx)
	}()
	d, err := newDriver(w, front.TCPAddr().String(), dataDir)
	if err != nil {
		return nil, err
	}
	defer d.close()
	d.traced = true

	t := &tracer{twin: twin, start: time.Now()}
	if err := d.setUp(t.after); err != nil {
		return nil, err
	}
	if t.failed > 0 {
		return nil, fmt.Errorf("set-up of %s on the twin server: %s", name, t.first)
	}

	// One round in three runs with the hook off, so that the traced and
	// the untraced latency see the same machine.
	var traced []*roundTrace
	var p50On, p50Off []float64
	var stmtBytes, respBytes int64
	p50 := func(r roundResult) float64 {
		p, _ := typicalLatency(r.samples)
		return p
	}
	for t0, i := time.Now(), 0; i < 3 || time.Since(t0).Seconds() < o.seconds; i++ {
		// A round leaves every session as it found it, so the twin can sit
		// out the rounds that run with the hook off.
		var hook afterFunc
		if t.on = i%3 != 2; t.on {
			t.cur = newRoundTrace()
			hook = t.after
		}
		r, err := d.run(w.Scripts, hook)
		if err != nil {
			return nil, err
		}
		res.Attempted += len(r.samples)
		if r.failed > 0 {
			res.fail(r.failed, "round %d: %s", i, r.firstErr)
		}
		if t.on {
			traced = append(traced, t.cur)
			p50On = append(p50On, p50(r))
			stmtBytes, respBytes = r.stmtBytes, r.respBytes
		} else {
			p50Off = append(p50Off, p50(r))
		}
	}
	if t.failed > 0 {
		res.fail(t.failed, "%s", t.first)
	}
	res.Rounds = len(traced)

	perStmt := func(f func(*roundTrace) float64) float64 {
		return median(mapRounds(traced, func(r *roundTrace) float64 { return f(r) / float64(max(1, r.stmts)) }))
	}
	ms := func(name string, f func(*roundTrace) float64) {
		res.Metrics[name] = value{Value: perStmt(f) / 1000, Unit: "ms"}
	}
	count := func(name string, f func(*roundTrace) float64) {
		res.Metrics[name] = value{Value: median(mapRounds(traced, f)), Unit: "count"}
	}
	// The two executions of a statement differ by noise, so on a workload
	// with little wire time the difference can come out below zero.
	wire := func(r *roundTrace) float64 { return float64(r.requestUs - r.handleUs) }
	stage := func(layers ...string) func(*roundTrace) float64 {
		return func(r *roundTrace) float64 {
			var us int64
			for _, l := range layers {
				us += r.selfUs[l]
			}
			return float64(us)
		}
	}

	ms("server.wire_ms", wire)
	res.Metrics["server.resp_bytes"] = value{Value: float64(respBytes), Unit: "bytes"}
	ms("server.handle_self_ms", stage("server"))
	ms("sqlparse.parse_ms", func(r *roundTrace) float64 { return float64(r.parseUs) })
	res.Metrics["sqlparse.stmt_bytes"] = value{Value: float64(stmtBytes), Unit: "bytes"}
	ms("plan.prepare_ms", stage("plan"))
	count("plan.prepares", func(r *roundTrace) float64 { return float64(r.planMisses) })
	res.Metrics["plan.cache_hit_ratio"] = value{Value: median(mapRounds(traced, func(r *roundTrace) float64 {
		return float64(r.planHits) / float64(max(1, r.planHits+r.planMisses))
	})), Unit: "ratio"}
	// Which of the three engine layers is busy depends on the backend, so
	// each is zero on some workload; their sum never is, and share.wsd,
	// share.core and share.algebra split it.
	ms("engine.exec_ms", stage("wsd", "core", "algebra"))
	for _, route := range []string{"single", "componentwise", "conditional", "merge", "approx_mc"} {
		count("wsd.route."+route, func(r *roundTrace) float64 { return float64(r.routes[route]) })
	}
	count("wsd.merges", func(r *roundTrace) float64 { return float64(r.merges) })
	count("algebra.collects.batch", func(r *roundTrace) float64 { return float64(r.batch) })
	count("algebra.collects.row", func(r *roundTrace) float64 { return float64(r.row) })
	res.Metrics["algebra.rows_per_collect"] = value{Value: median(mapRounds(traced, func(r *roundTrace) float64 {
		return float64(r.rows) / float64(max(1, r.batch+r.row))
	})), Unit: "rows"}
	res.Metrics["trace_overhead"] = value{Value: median(p50On) / median(p50Off), Unit: "ratio"}

	// Sessions that outlive the rounds merged during set-up and keep the
	// merged component, so their rounds count no merges.
	live := countSessions(twin, "")
	res.Counts["merges_in_setup"] = float64(live.merges)
	for _, r := range traced {
		live.worlds = max(live.worlds, r.worlds)
	}
	res.Metrics["core.worlds"] = value{Value: live.worlds, Unit: "count"}

	if err := timeIngest(w, o, res); err != nil {
		return nil, err
	}

	var reqUs float64
	for _, r := range traced {
		reqUs += float64(r.requestUs) / float64(max(1, r.stmts))
	}
	reqUs /= float64(len(traced))
	for _, l := range layers {
		busy := perStmt(stage(l))
		if l == "server" {
			busy += perStmt(wire)
		}
		sh := layerShare{Layer: l, Spans: traced[0].spanCount[l], BusyMs: busy / 1000, ShareOfReq: busy / reqUs}
		res.Shares = append(res.Shares, sh)
		res.Metrics["share."+l] = value{Value: sh.ShareOfReq, Unit: "ratio"}
	}
	res.Metrics["request_ms"] = value{Value: reqUs / 1000, Unit: "ms"}
	res.Printed["p50_ms.traced"] = value{Value: median(p50On), Unit: "ms"}
	res.Printed["p50_ms.untraced"] = value{Value: median(p50Off), Unit: "ms"}
	res.Counts["statements_per_round"] = float64(traced[0].stmts)

	if traceOut != "" {
		if err := writeSpans(traceOut, t.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func mapRounds(rs []*roundTrace, f func(*roundTrace) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// timeIngest times relation.LoadCSV and wsd.Import on the workload's
// ingest file, five times each, and reports the medians. A workload that
// imports nothing is given ingest.dml's file for the same seed and scale,
// so the two layers are timed on every run.
func timeIngest(w *workload, o options, res *result) error {
	if w.Ingest == "" {
		var err error
		if w, err = generate("ingest.dml", o.seed, o.scale); err != nil {
			return err
		}
	}
	var load, imp, rate []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		plan, err := relation.LoadCSV(strings.NewReader(w.Files[w.Ingest]), w.IngestOpts)
		if err != nil {
			return fmt.Errorf("time ingest: %w", err)
		}
		dt := time.Since(t0)
		rows := plan.Certain.Len()
		for _, g := range plan.Groups {
			rows += g.Rel.Len()
		}
		load = append(load, dt.Seconds()*1000)
		rate = append(rate, float64(rows)/dt.Seconds())
		t0 = time.Now()
		if err := wsd.New(true).Import("B", plan); err != nil {
			return fmt.Errorf("time ingest: %w", err)
		}
		imp = append(imp, time.Since(t0).Seconds()*1000)
	}
	res.Metrics["relation.load_ms"] = value{Value: median(load), Unit: "ms"}
	res.Metrics["relation.import_rows_per_s"] = value{Value: median(rate), Unit: "rows/s"}
	res.Metrics["wsd.import_ms"] = value{Value: median(imp), Unit: "ms"}
	return nil
}

// writeSpans writes the spans, one JSON object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
