// Package maybms is a pure-Go reimplementation of the MayBMS system for
// managing incomplete and probabilistic information, as presented in
// "Query language support for incomplete information in the MayBMS system"
// (Antova, Koch, Olteanu; VLDB 2007).
//
// A DB is a set of possible worlds queried and updated with I-SQL — SQL
// extended with explicit uncertainty constructs:
//
//	db := maybms.Open()
//	db.MustExec(`create table R (A, B, C, D)`)
//	db.MustExec(`insert into R values ('a1',10,'c1',2), ('a1',15,'c2',6)`)
//	db.MustExec(`create table I as select A, B, C from R repair by key A weight D`)
//	res, _ := db.Exec(`select conf from I where exists (select * from I where B = 10)`)
//	fmt.Println(res)
//
// The I-SQL constructs are:
//
//   - REPAIR BY KEY cols [WEIGHT col] — one world per repair of the key
//   - CHOICE OF cols [WEIGHT col]     — one world per value partition
//   - ASSERT cond                     — drop worlds, renormalize
//   - SELECT POSSIBLE / CERTAIN …     — close the world-set (∪ / ∩)
//   - SELECT …, CONF …                — per-tuple confidence
//   - GROUP WORLDS BY (query)         — closures within answer-equal groups
//
// Open creates a probabilistic database (worlds carry probabilities);
// OpenIncomplete creates a plain incomplete one (no probabilities, no
// CONF/WEIGHT). Both enumerate worlds explicitly and are intended for
// moderate world counts; OpenCompact provides the world-set-decomposition
// backend that represents exponentially many worlds in linear space.
//
// # Plan caching
//
// Statements compile once per execution rather than once per world:
// the plain-SQL core is planned against the first world and the compiled
// template is bound to each world's relations (internal/plan Prepare/Bind).
// Compiled templates live in a process-wide shared cache keyed by the
// statement's faithful rendering, size-bounded with LRU eviction; a
// template records the tables it read, and a hit counts only while each of
// them has the column names it was compiled against in the session's
// catalog — so concurrent sessions over the same tables (a many-session
// server) reuse each other's compilations. The rendering
// parses back to the same statement (it quotes every identifier that is
// not a plain non-keyword name), so two different statements never share
// a key. SharedPlanCacheStats and
// SetSharedPlanCacheCapacity expose the cache, which every database uses.
// A world-set is a set of databases over
// one schema — every statement that adds or replaces a relation does so in
// every world — so a template compiled against one world binds in all of
// them. The binds of one statement share its invariant subplans: an
// uncorrelated subquery runs once per distinct set of relations it reads,
// not once per outer row, and a hash join's build side is hashed once
// across the worlds that share it (traced as subquery_evals and
// shared_builds).
//
// A statement runs on its caller's goroutine; concurrency comes from
// running statements on different databases (sessions) at once, as the
// server does.
//
// # One statement runner
//
// Both engines implement internal/core's Engine, and core's statement
// runner runs every statement for DB, CompactDB, the shell and the server:
// it parses, frames EXPLAIN [ANALYZE], installs and clears the statement's
// interrupt hook and trace, and turns a panic into the statement's error
// ("internal error: …", counted in maybms_panics_total).
//
// # Serving I-SQL
//
// The cmd/maybms-serve binary (and the embeddable Serve / NewServer API)
// turns the engine into a concurrent multi-session server. Sessions are
// named databases created on first use — each naive (full I-SQL) or
// compact (the world-set-decomposition engine) — and evicted after an
// idle timeout. Two transports share one session registry:
//
//   - TCP: newline-delimited JSON, one request object per line
//     ({"session": "s", "query": "select …", "render": true}), one
//     response line per request, in order;
//   - HTTP: POST /v1/query with the same JSON body, GET /v1/health for
//     liveness plus shared-cache statistics.
//
// Statements on one session serialize; different sessions execute
// concurrently, at most -workers statements at once (an admission gate).
// Requests carry optional deadlines (timeout_ms) — statements are cancelled
// cooperatively between per-world units of work and inside the long-running
// iterators (every few hundred
// rows), so even one huge single-world evaluation aborts promptly — and
// row bounds (max_rows) for large closed answers. Shutdown is graceful:
// listeners stop, in-flight requests drain up to a deadline, then
// connections are force-closed. See examples/server for a quickstart and
// internal/server for the protocol types.
//
// # Decomposition-aware execution (compact backend)
//
// The compact engine (CompactDB and the server's compact sessions) executes
// queries against the world-set decomposition itself. Each statement
// compiles once and the planner annotates the compiled tree with the
// components it touches; possible/certain/conf closures over plans that
// distribute across components — selections, projections, joins against
// certain relations, unions, subqueries and aggregates over certain data —
// evaluate component-wise: certain-only plus one tagged delta — two plan
// runs whose work is the certain part plus the *sum* of the component
// sizes, never their product — no component merge, and the representation
// left untouched. CREATE TABLE AS over such plans stores
// its answer factorized (certain part plus per-alternative contributions,
// linear size), and UPDATE/DELETE rewrite the certain part and each
// alternative's contribution separately. Only plans that genuinely
// correlate several components fall back to a bounded partial expansion of
// exactly the involved components. CompactDB.Exec runs closures like every
// other statement; each statement takes one route, which EXPLAIN prints and
// CompactDB.RouteCounts counts (MergeCount counts the merges). What the
// compact engine refuses is the refusal table beside its statement switch
// (internal/wsd), and every refusal wraps ErrCompactUnsupported.
//
// Answer order. A closed answer (possible, certain, conf) is a set. The
// compact backend lists it in representation order — the certain tuples,
// then each component's contributions, components and alternatives
// ascending: deterministic for a given decomposition — and the naive backend
// in world-enumeration order; neither order is API, and the two backends are
// compared as sets. ORDER BY inside a closed core keeps its per-world meaning
// on both (it matters under LIMIT). Only a closure-free SELECT under ORDER BY
// has an order: rows and the rendered text keep it, every other answer
// renders canonically sorted.
//
// # Observability
//
// Every statement can explain and measure itself:
//
//   - EXPLAIN <stmt> predicts the routing (which closure, componentwise vs.
//     merge vs. approximation vs. refusal on the compact engine; world
//     count on the naive one) and prints the compiled plan tree with
//     per-relation component annotations. EXPLAIN ANALYZE executes the
//     statement for real (including DML side effects, as in PostgreSQL)
//     and appends the actual span trace and result cardinality.
//   - ExecTraced (on DB and CompactDB) returns the statement's Trace: one
//     span per execution stage — plan (cache hit/miss), analyze
//     (components touched), eval / componentwise / merge_eval / closure /
//     approx_mc — each with monotonic offsets, durations and attributes
//     (route, worlds, components, alternatives, merge_limit, samples,
//     seed, stderr_bound), plus collect counts by answer form (batch =
//     columnar, row = row form: fewer than colbatch's floor of rows) and
//     row counts.
//   - The server adds GET /metrics (Prometheus text format), a per-request
//     trace in the response ({"trace": true} or ?trace=1), and a
//     structured JSON slow-query log past a configurable threshold.
//     Metric families: maybms_collects_total{path} (path="batch" for a
//     columnar answer, "row" for a row-form one), maybms_collect_rows_total,
//     maybms_route_total{route}, maybms_merge_alternatives,
//     maybms_approx_samples_total, maybms_requests_total{op},
//     maybms_request_errors_total, maybms_statement_seconds{backend},
//     maybms_slow_queries_total, maybms_panics_total, plus plan-cache and
//     session gauges.
//   - Metrics collection is on by default and nearly free (one atomic add
//     per statement stage, never per row); MAYBMS_METRICS=off or
//     SetMetricsEnabled(false) turns it off. scripts/check_trace_overhead.sh
//     gates the enabled-vs-disabled overhead at 5% in CI.
//
// Benchmarks live in bench_test.go; run and record them with
//
//	scripts/bench.sh            # writes BENCH_<date>.json
//	BENCHTIME=1x scripts/bench.sh  # CI smoke
package maybms

import (
	"fmt"
	"io"

	"maybms/internal/core"
	"maybms/internal/obs"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

// Result is the outcome of executing a statement: an acknowledgement, a
// per-world answer, or a closed (possible/certain/conf) answer. See
// core.Result for the fields.
type Result = core.Result

// Relation is an in-memory relation (schema + tuples).
type Relation = relation.Relation

// Trace is a per-statement execution trace: spans with monotonic offsets
// and durations, statement-level attributes (route, closure), and
// evaluation stats (batch/row collects, rows). Render returns the
// human-readable form, JSON the wire snapshot. All methods are nil-safe.
type Trace = obs.Trace

// SetMetricsEnabled switches process-wide metrics collection (counters
// and histograms; traces are unaffected). Enabled by default; the
// MAYBMS_METRICS environment variable (off/0/false) presets it.
func SetMetricsEnabled(on bool) { obs.SetEnabled(on) }

// WriteMetrics renders the process-wide metrics registry to w in
// Prometheus text format (the same families GET /metrics serves, minus
// the server gauges).
func WriteMetrics(w io.Writer) { obs.Default().WritePrometheus(w) }

// statements are the I-SQL entry points DB and CompactDB share: each runs
// through the engine's statement runner (internal/core), the one the shell
// and the server run too.
type statements struct{ engine core.Engine }

// Exec parses and executes one I-SQL statement.
func (s statements) Exec(sql string) (*Result, error) { return core.Exec(s.engine, sql) }

// ExecTraced runs one I-SQL statement with a fresh statement trace
// installed and returns the trace alongside the result: per-stage spans,
// evaluation stats and, on the compact engine, the routing decision (route
// attr) and component analysis. The trace is populated even when the
// statement errors.
func (s statements) ExecTraced(sql string) (*Result, *Trace, error) {
	tr := obs.NewTrace(sql)
	res, err := core.ExecTraced(s.engine, sql, nil, tr)
	return res, tr, err
}

// MustExec is Exec for program initialization; it panics on error.
func (s statements) MustExec(sql string) *Result {
	res, err := s.Exec(sql)
	if err != nil {
		panic(fmt.Sprintf("maybms: %s: %v", sql, err))
	}
	return res
}

// ExecScript executes a semicolon-separated script, stopping at the first
// error.
func (s statements) ExecScript(sql string) ([]*Result, error) { return core.ExecScript(s.engine, sql) }

// DB is a database whose state is a set of possible worlds, evaluated with
// the naive (explicitly enumerating) engine.
type DB struct {
	statements
	session *core.Session
}

func newDB(s *core.Session) *DB { return &DB{statements{s}, s} }

// Open creates an empty probabilistic database: one world with
// probability 1.
func Open() *DB { return newDB(core.NewSession(true)) }

// OpenIncomplete creates an empty non-probabilistic database: worlds carry
// no probabilities, and CONF / WEIGHT are unavailable (the paper's
// Example 2.3 mode).
func OpenIncomplete() *DB { return newDB(core.NewSession(false)) }

// Parse checks a statement without executing it, returning its normalized
// rendering.
func (db *DB) Parse(sql string) (string, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return "", err
	}
	return stmt.String(), nil
}

// WorldCount returns the current number of worlds.
func (db *DB) WorldCount() int { return db.session.WorldCount() }

// Weighted reports whether the database is probabilistic.
func (db *DB) Weighted() bool { return db.session.Weighted() }

// SetMaxWorlds bounds the world-set size; splits beyond it fail. The
// default is core.DefaultMaxWorlds.
func (db *DB) SetMaxWorlds(n int) { db.session.MaxWorlds = n }

// Coalesce merges indistinguishable worlds (identical database contents),
// summing their probabilities. No query can tell the difference, but the
// world-set can shrink dramatically after asserts or updates collapse
// choices. It returns the number of worlds removed.
func (db *DB) Coalesce() int { return db.session.Set().Coalesce() }

// WorldInfo describes one world for inspection.
type WorldInfo struct {
	Name string
	Prob float64
	// Relations maps relation names to their instances in this world.
	Relations map[string]*Relation
}

// Worlds snapshots the current world-set.
func (db *DB) Worlds() []WorldInfo {
	out := make([]WorldInfo, 0, db.session.WorldCount())
	for _, w := range db.session.Set().Worlds {
		info := WorldInfo{Name: w.Name, Prob: w.Prob, Relations: map[string]*Relation{}}
		for _, name := range w.Names() {
			rel, err := w.Lookup(name)
			if err == nil {
				info.Relations[name] = rel
			}
		}
		out = append(out, info)
	}
	return out
}

// Register loads a complete relation built from Go values into every
// world. Supported cell types: nil, bool, int, int64, float64, string.
func (db *DB) Register(name string, columns []string, rows [][]any) error {
	rel, err := BuildRelation(columns, rows)
	if err != nil {
		return err
	}
	return db.session.Register(name, rel)
}

// BuildRelation constructs a Relation from Go values. Supported cell
// types: nil, bool, int, int64, float64, string.
func BuildRelation(columns []string, rows [][]any) (*Relation, error) {
	rel := relation.New(schema.New(columns...))
	for _, r := range rows {
		t := make(tuple.Tuple, len(r))
		for i, cell := range r {
			v, err := toValue(cell)
			if err != nil {
				return nil, err
			}
			t[i] = v
		}
		if err := rel.Append(t); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

func toValue(cell any) (value.Value, error) {
	switch x := cell.(type) {
	case nil:
		return value.Null(), nil
	case bool:
		return value.Bool(x), nil
	case int:
		return value.Int(int64(x)), nil
	case int64:
		return value.Int(x), nil
	case float64:
		return value.Float(x), nil
	case string:
		return value.Str(x), nil
	default:
		return value.Null(), fmt.Errorf("maybms: unsupported cell type %T", cell)
	}
}
