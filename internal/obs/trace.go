package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ExecStats accumulates evaluation counts for one traced statement. It is
// carried down the operator tree on expr.Context (see expr.Context.Stats)
// and mutated with plain atomic adds — cheap enough for the Collect seam,
// which runs once per evaluation, not per row.
type ExecStats struct {
	BatchCollects atomic.Uint64 // Collect calls whose answer is columnar
	RowCollects   atomic.Uint64 // Collect calls whose answer is in row form (under colbatch's floor)
	Rows          atomic.Uint64 // tuples materialized across all collects
	SubqueryEvals atomic.Uint64 // evaluations of uncorrelated subqueries (one per distinct input)
	SharedBuilds  atomic.Uint64 // hash-join build sides hashed for the statement's binds to share
}

// ExecStatsJSON is the wire form of ExecStats.
type ExecStatsJSON struct {
	BatchCollects uint64 `json:"batch_collects"`
	RowCollects   uint64 `json:"row_collects"`
	Rows          uint64 `json:"rows"`
}

func (s *ExecStats) snapshot() ExecStatsJSON {
	if s == nil {
		return ExecStatsJSON{}
	}
	return ExecStatsJSON{
		BatchCollects: s.BatchCollects.Load(),
		RowCollects:   s.RowCollects.Load(),
		Rows:          s.Rows.Load(),
	}
}

// Attr is one key=value annotation on a span or trace. Attrs keep insertion
// order so rendered traces are deterministic.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed stage of a traced statement. Offsets are measured from
// the trace's start on the monotonic clock.
type Span struct {
	Name  string
	Start time.Duration // offset from trace start
	Dur   time.Duration
	Attrs []Attr

	done bool
}

// Trace records one statement's execution as a flat, ordered list of
// stage-level spans plus trace-level attributes and aggregate ExecStats.
// All methods are nil-safe (a nil *Trace is a no-op), so instrumented code
// calls t.Begin(...)/sp.End() unconditionally. A Trace is created per
// statement and handed to exactly one execution; span creation and
// attribute writes are mutex-guarded.
type Trace struct {
	Statement string

	mu    sync.Mutex
	start time.Time
	spans []*Span
	attrs []Attr
	stats ExecStats
}

// NewTrace starts a trace for the given statement text. The single
// time.Now() here anchors the monotonic clock; spans record offsets via
// time.Since.
func NewTrace(statement string) *Trace {
	return &Trace{Statement: statement, start: time.Now()}
}

// Stats returns the trace's ExecStats accumulator (nil if t is nil), for
// threading through expr.Context.
func (t *Trace) Stats() *ExecStats {
	if t == nil {
		return nil
	}
	return &t.stats
}

// Set records a trace-level attribute (later writes of the same key win on
// render; both are kept in order).
func (t *Trace) Set(key string, value any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.attrs = append(t.attrs, Attr{Key: key, Value: fmt.Sprint(value)})
	t.mu.Unlock()
}

// Begin opens a span named name. The returned span must be closed with
// End; a nil receiver returns a nil span whose methods are no-ops.
func (t *Trace) Begin(name string) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{Name: name}
	t.mu.Lock()
	sp.Start = time.Since(t.start)
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

// Set records a span attribute.
func (s *Span) Set(key string, value any) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: fmt.Sprint(value)})
}

// End closes the span. Safe to call twice (the first wins); a nil span is
// a no-op. end needs the owning trace's clock, so spans capture duration
// lazily: End records wall offset via the package clock captured at Begin.
func (s *Span) End(t *Trace) {
	if s == nil || t == nil || s.done {
		return
	}
	t.mu.Lock()
	if !s.done {
		s.done = true
		s.Dur = time.Since(t.start) - s.Start
	}
	t.mu.Unlock()
}

// TraceJSON is the wire form of a trace, attached to server responses when
// the client opts in (Request.Trace / ?trace=1) and emitted by the
// slow-query log.
type TraceJSON struct {
	Statement string        `json:"statement"`
	TotalUs   int64         `json:"total_us"`
	Attrs     []Attr        `json:"attrs,omitempty"`
	Spans     []SpanJSON    `json:"spans"`
	Exec      ExecStatsJSON `json:"exec"`
}

// SpanJSON is the wire form of one span.
type SpanJSON struct {
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"dur_us"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// JSON snapshots the trace for encoding.
func (t *Trace) JSON() *TraceJSON {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := &TraceJSON{
		Statement: t.Statement,
		TotalUs:   time.Since(t.start).Microseconds(),
		Attrs:     append([]Attr(nil), t.attrs...),
		Exec:      t.stats.snapshot(),
	}
	// The statement's shared subplans show as attributes, when it had any.
	if n := t.stats.SubqueryEvals.Load(); n > 0 {
		out.Attrs = append(out.Attrs, Attr{Key: "subquery_evals", Value: fmt.Sprint(n)})
	}
	if n := t.stats.SharedBuilds.Load(); n > 0 {
		out.Attrs = append(out.Attrs, Attr{Key: "shared_builds", Value: fmt.Sprint(n)})
	}
	for _, sp := range t.spans {
		d := sp.Dur
		if !sp.done {
			d = time.Since(t.start) - sp.Start
		}
		out.Spans = append(out.Spans, SpanJSON{
			Name:    sp.Name,
			StartUs: sp.Start.Microseconds(),
			DurUs:   d.Microseconds(),
			Attrs:   append([]Attr(nil), sp.Attrs...),
		})
	}
	t.mu.Unlock()
	return out
}

// MarshalJSON encodes the trace via its JSON snapshot.
func (t *Trace) MarshalJSON() ([]byte, error) { return json.Marshal(t.JSON()) }

// Render returns the human-readable trace: one line per span with offset,
// duration and attributes, then trace attrs and exec stats. Used by the
// shell's `\trace on` mode and the ANALYZE section of EXPLAIN output.
func (t *Trace) Render() string {
	j := t.JSON()
	if j == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %s\n", j.Statement)
	for _, sp := range j.Spans {
		fmt.Fprintf(&b, "  %-12s %8s +%s", sp.Name, fmtUs(sp.DurUs), fmtUs(sp.StartUs))
		for _, a := range sp.Attrs {
			fmt.Fprintf(&b, "  %s=%s", a.Key, a.Value)
		}
		b.WriteByte('\n')
	}
	if len(j.Attrs) > 0 {
		b.WriteString("  --\n")
		for _, a := range dedupeAttrs(j.Attrs) {
			fmt.Fprintf(&b, "  %s=%s\n", a.Key, a.Value)
		}
	}
	e := j.Exec
	if e.BatchCollects+e.RowCollects+e.Rows > 0 {
		fmt.Fprintf(&b, "  exec: collects batch=%d row=%d rows=%d\n",
			e.BatchCollects, e.RowCollects, e.Rows)
	}
	fmt.Fprintf(&b, "  total %s\n", fmtUs(j.TotalUs))
	return b.String()
}

// dedupeAttrs keeps the last write per key, preserving first-write order.
func dedupeAttrs(attrs []Attr) []Attr {
	last := map[string]string{}
	order := []string{}
	for _, a := range attrs {
		if _, ok := last[a.Key]; !ok {
			order = append(order, a.Key)
		}
		last[a.Key] = a.Value
	}
	out := make([]Attr, 0, len(order))
	for _, k := range order {
		out = append(out, Attr{Key: k, Value: last[k]})
	}
	return out
}

func fmtUs(us int64) string {
	switch {
	case us >= 1_000_000:
		return fmt.Sprintf("%.2fs", float64(us)/1e6)
	case us >= 1_000:
		return fmt.Sprintf("%.2fms", float64(us)/1e3)
	default:
		return fmt.Sprintf("%dµs", us)
	}
}
