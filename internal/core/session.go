package core

import (
	"errors"
	"fmt"
	"strings"

	"maybms/internal/exec"
	"maybms/internal/expr"
	"maybms/internal/obs"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
	"maybms/internal/world"
	"maybms/internal/worldset"
)

// DefaultMaxWorlds bounds the explicit world-set size of a session.
const DefaultMaxWorlds = 1 << 16

// Errors reported by the engine.
var (
	ErrExists        = errors.New("relation already exists")
	ErrKeyViolation  = errors.New("primary key violation")
	ErrAssertAllGone = errors.New("assert dropped every world")
)

// Session is an I-SQL session: a world-set plus the schema-level metadata
// (declared primary keys, view names).
type Session struct {
	set *worldset.Set
	// keys maps lower-case table names to declared primary key columns.
	keys map[string][]string
	// views records which names were created as views (snapshot-materialized).
	views map[string]bool
	// MaxWorlds bounds the world-set; splits that would exceed it fail with
	// ErrTooManyWorlds.
	MaxWorlds int
	// workers bounds the per-world parallelism of statement execution:
	// 1 runs the exact sequential path, 0 (the default) selects
	// runtime.GOMAXPROCS. Results are identical for every setting; see
	// internal/exec and SetWorkers.
	workers int
	// plans caches compiled statement templates (see internal/plan's
	// Prepare/Bind). By default it is the process-wide shared cache
	// (plan.SharedCache()) so concurrent sessions over identical schemas
	// reuse each other's compilations; entries are keyed by statement text
	// plus schema fingerprint and revalidate against current schemas on
	// every use. SetPlanCache installs a private cache instead.
	plans *plan.Cache
	// interrupt, when non-nil, is polled between per-world units of work;
	// a non-nil return aborts the running statement with that error. The
	// server installs a request context's Err here to implement
	// cooperative cancellation and deadlines.
	interrupt func() error
	// trace, when non-nil, receives stage spans for the statement
	// currently executing. Like interrupt it is installed per statement
	// (statements on one session run serially) and cleared after.
	trace *obs.Trace
	// lookups attributes plan-cache lookups to this session (the default
	// cache is process-global; see the server's SessionInfo).
	lookups   plan.Lookups
	nextWorld int
}

// SetWorkers sets the per-world parallelism of the session (and of its
// world-set's cross-world passes, e.g. Coalesce): 1 selects the exact
// sequential path, 0 selects runtime.GOMAXPROCS. Any setting produces
// identical results; see internal/exec.
func (s *Session) SetWorkers(n int) {
	s.workers = n
	s.set.Workers = n
}

// Workers returns the session's worker setting (0 = GOMAXPROCS).
func (s *Session) Workers() int { return s.workers }

// SetPlanCache replaces the session's compiled-statement cache. Sessions
// default to the process-wide plan.SharedCache(); passing a private cache
// isolates the session (nil restores the shared one).
func (s *Session) SetPlanCache(c *plan.Cache) {
	if c == nil {
		c = plan.SharedCache()
	}
	s.plans = c
}

// PlanCache returns the cache the session compiles statements into.
func (s *Session) PlanCache() *plan.Cache { return s.plans }

// SetInterrupt installs a hook polled between per-world units of work and
// inside the long-running algebra iterators (every few hundred rows); a
// non-nil return aborts the running statement with that error (typically a
// request context's Err). Pass nil to clear. The caller must not change
// the hook while a statement is executing.
func (s *Session) SetInterrupt(f func() error) { s.interrupt = f }

// SetTrace installs (or clears, with nil) the statement trace receiving
// stage spans and evaluation stats from subsequent statements. Statements
// on a session run serially; install a fresh trace per statement.
func (s *Session) SetTrace(t *obs.Trace) { s.trace = t }

// PlanCacheCounts returns this session's plan-cache lookup attribution:
// templates found valid in the cache vs. compiled fresh on its behalf.
func (s *Session) PlanCacheCounts() (hits, misses uint64) {
	return s.lookups.Counts()
}

// rootCtx returns the outer evaluation context for top-level plan
// execution: nil without an interrupt hook or trace, else a context
// carrying only the hook (for the algebra iterators to poll) and the
// trace's stats accumulator (it sits beyond every resolvable correlation
// depth). The hook may be called concurrently from per-world evaluations
// and must be safe for that, as SetInterrupt already requires.
func (s *Session) rootCtx() *expr.Context {
	if s.interrupt == nil && s.trace == nil {
		return nil
	}
	return &expr.Context{Interrupt: s.interrupt, Stats: s.trace.Stats()}
}

// mapWorlds runs fn over [0, n) on the session's worker pool, polling the
// interrupt hook before each task so a canceled request aborts between
// per-world units of work. Without a hook it is exactly exec.Map: ordered
// results, lowest-index error. (With a hook, which task observes the
// interruption first is scheduling-dependent; the statement fails with the
// interrupt error either way.)
func mapWorlds[T any](s *Session, n int, fn func(i int) (T, error)) ([]T, error) {
	intr := s.interrupt
	if intr == nil {
		return exec.Map(s.workers, n, fn)
	}
	return exec.Map(s.workers, n, func(i int) (T, error) {
		if err := intr(); err != nil {
			var zero T
			return zero, err
		}
		return fn(i)
	})
}

// NewSession creates a session over a single empty world. weighted selects
// the probabilistic mode: WEIGHT clauses and CONF require it; in weighted
// mode unweighted repairs and choices use uniform probabilities.
func NewSession(weighted bool) *Session {
	return NewSessionFromSet(worldset.New(weighted))
}

// NewSessionFromSet wraps an existing world-set (e.g. one expanded from a
// world-set decomposition) in a fresh session.
func NewSessionFromSet(set *worldset.Set) *Session {
	return &Session{
		set:       set,
		keys:      make(map[string][]string),
		views:     make(map[string]bool),
		MaxWorlds: DefaultMaxWorlds,
		plans:     plan.SharedCache(),
	}
}

// Weighted reports whether the session is probabilistic.
func (s *Session) Weighted() bool { return s.set.Weighted }

// Set exposes the underlying world-set (read-mostly; the REPL prints it).
func (s *Session) Set() *worldset.Set { return s.set }

// WorldCount returns the current number of worlds.
func (s *Session) WorldCount() int { return s.set.Len() }

// PrimaryKey returns the declared key columns of a table (nil if none).
func (s *Session) PrimaryKey(table string) []string {
	return s.keys[strings.ToLower(table)]
}

// IsView reports whether name was created with CREATE VIEW.
func (s *Session) IsView(name string) bool { return s.views[strings.ToLower(name)] }

// Register loads rel under name into every world, like a CREATE TABLE +
// INSERTs of complete data. It fails if the name is taken.
func (s *Session) Register(name string, rel *relation.Relation) error {
	if err := s.checkFresh(name); err != nil {
		return err
	}
	stored := rel.WithSchema(rel.Schema.Unqualify())
	for _, w := range s.set.Worlds {
		w.Put(name, stored)
	}
	return nil
}

// Exec parses and executes a single statement.
func (s *Session) Exec(sql string) (*Result, error) {
	sp := s.trace.Begin("parse")
	stmt, err := sqlparse.Parse(sql)
	sp.End(s.trace)
	if err != nil {
		return nil, err
	}
	return s.ExecStmt(stmt)
}

// ExecScript parses and executes a semicolon-separated script, stopping at
// the first error. It returns the results of the executed statements.
func (s *Session) ExecScript(sql string) ([]*Result, error) {
	stmts, err := sqlparse.ParseScript(sql)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, 0, len(stmts))
	for _, stmt := range stmts {
		res, err := s.ExecStmt(stmt)
		if err != nil {
			return out, fmt.Errorf("executing %q: %w", stmt, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// ExecStmt executes one parsed statement.
func (s *Session) ExecStmt(stmt sqlparse.Statement) (*Result, error) {
	switch st := stmt.(type) {
	case *sqlparse.SelectStmt:
		ev, err := s.evalQuery(st)
		if err != nil {
			return nil, err
		}
		res := ev.result(s.set.Weighted)
		res.Ordered = res.Kind == ResultPerWorld && st.OrdersAnswer()
		return res, nil
	case *sqlparse.CreateTableAs:
		return s.execCreateAs(st.Name, st.Query, false)
	case *sqlparse.CreateView:
		return s.execCreateAs(st.Name, st.Query, true)
	case *sqlparse.CreateTable:
		return s.execCreateTable(st)
	case *sqlparse.Insert:
		return s.execInsert(st)
	case *sqlparse.Update:
		return s.execDML(st, st.Table, "updated %d row(s) across %d world(s)", s.keys[strings.ToLower(st.Table)],
			func(sch *schema.Schema, cat plan.Catalog) (*plan.PreparedDML, error) {
				return plan.PrepareUpdateStmt(st, sch, cat)
			})
	case *sqlparse.Delete:
		return s.execDML(st, st.Table, "deleted %d row(s) across %d world(s)", nil,
			func(sch *schema.Schema, cat plan.Catalog) (*plan.PreparedDML, error) {
				return plan.PrepareDeleteStmt(st, sch, cat)
			})
	case *sqlparse.Drop:
		return s.execDrop(st)
	case *sqlparse.Explain:
		return s.execExplain(st)
	case *sqlparse.Import:
		return s.execImport(st)
	case *sqlparse.Assert:
		return nil, errors.New("the standalone ASSERT statement runs on the compact backend only (use CREATE TABLE AS SELECT … ASSERT)")
	default:
		return nil, fmt.Errorf("unsupported statement %T", stmt)
	}
}

// checkFresh verifies that name is not bound in any world.
func (s *Session) checkFresh(name string) error {
	for _, w := range s.set.Worlds {
		if w.Has(name) {
			return fmt.Errorf("%w: %s", ErrExists, name)
		}
	}
	return nil
}

func (s *Session) execCreateTable(st *sqlparse.CreateTable) (*Result, error) {
	if err := s.checkFresh(st.Name); err != nil {
		return nil, err
	}
	sch := schema.New(st.Columns...)
	if len(st.PrimaryKey) > 0 {
		if _, err := sch.IndexesOf(st.PrimaryKey); err != nil {
			return nil, fmt.Errorf("PRIMARY KEY: %w", err)
		}
		s.keys[strings.ToLower(st.Name)] = st.PrimaryKey
	}
	for _, w := range s.set.Worlds {
		w.Put(st.Name, relation.New(sch))
	}
	return &Result{Kind: ResultOK, Msg: fmt.Sprintf("created table %s", st.Name), Weighted: s.set.Weighted}, nil
}

func (s *Session) execDrop(st *sqlparse.Drop) (*Result, error) {
	existed := false
	for _, w := range s.set.Worlds {
		if w.Drop(st.Name) {
			existed = true
		}
	}
	if !existed && !st.IfExists {
		return nil, fmt.Errorf("relation %q does not exist", st.Name)
	}
	delete(s.keys, strings.ToLower(st.Name))
	delete(s.views, strings.ToLower(st.Name))
	return &Result{Kind: ResultOK, Msg: fmt.Sprintf("dropped %s", st.Name), Weighted: s.set.Weighted}, nil
}

// execInsert inserts the value rows into the table in every world. Per the
// paper (§2): "In case the tuple insertion violates a constraint in some
// worlds, then the update is discarded in all worlds." — the whole
// statement aborts if any world would violate the table's primary key.
func (s *Session) execInsert(st *sqlparse.Insert) (*Result, error) {
	// The table must exist everywhere with one schema; take it from the
	// first world.
	base, err := s.set.Worlds[0].Lookup(st.Table)
	if err != nil {
		return nil, err
	}
	// Evaluate value rows once (no row context; subqueries would be
	// world-dependent and are rejected by requiring constant rows).
	rows, err := plan.ConstInsertRows(st, base.Schema)
	if err != nil {
		return nil, err
	}

	// Build candidate relations per world (in parallel — candidates are
	// independent), checking keys; commit only if every world accepts.
	key := s.keys[strings.ToLower(st.Table)]
	updated, err := mapWorlds(s, len(s.set.Worlds), func(i int) (*relation.Relation, error) {
		w := s.set.Worlds[i]
		cur, err := w.Lookup(st.Table)
		if err != nil {
			return nil, err
		}
		next := cur.Clone()
		for _, t := range rows {
			if err := next.Append(t); err != nil {
				return nil, err
			}
		}
		if len(key) > 0 {
			if err := checkKey(next, key); err != nil {
				return nil, fmt.Errorf("%w in world %s (statement discarded in all worlds)", err, w.Name)
			}
		}
		return next, nil
	})
	if err != nil {
		return nil, err
	}
	for i, w := range s.set.Worlds {
		w.Put(st.Table, updated[i])
	}
	return &Result{Kind: ResultOK, Msg: fmt.Sprintf("inserted %d row(s) into %s in %d world(s)", len(rows), st.Table, len(s.set.Worlds)), Weighted: s.set.Weighted}, nil
}

// checkKey verifies the key uniqueness constraint on rel.
func checkKey(rel *relation.Relation, key []string) error {
	idx, err := rel.Schema.IndexesOf(key)
	if err != nil {
		return err
	}
	seen := make(map[string]struct{}, rel.Len())
	for _, t := range rel.Rows() {
		k := t.KeyOn(idx)
		if _, dup := seen[k]; dup {
			return fmt.Errorf("%w: duplicate key (%s) value %s", ErrKeyViolation, strings.Join(key, ", "), t.Project(idx))
		}
		seen[k] = struct{}{}
	}
	return nil
}

// execDML applies an UPDATE or DELETE to table in every world: the
// statement compiles once through the plan cache (prepare), and each world
// binds the template and runs its row rewrite — the template and rewrite
// the compact engine runs per piece. Candidate relations are built in
// parallel and committed only when every world succeeds; with key set (an
// UPDATE of a table with a declared primary key) a violation in any world
// aborts the statement. msg reports the changed rows and the world count.
func (s *Session) execDML(st sqlparse.Statement, table, msg string, key []string,
	prepare func(*schema.Schema, plan.Catalog) (*plan.PreparedDML, error)) (*Result, error) {
	worlds := s.set.Worlds
	rep, err := worlds[0].Lookup(table)
	if err != nil {
		return nil, err
	}
	tmpl, err := plan.Cached(s.plans, s.trace, &s.lookups, cacheKey("dml", st.String(), worlds[0]),
		func(p *plan.PreparedDML) error { _, err := p.Bind(worlds[0], nil); return err },
		func() (*plan.PreparedDML, error) { return prepare(rep.Schema, worlds[0]) })
	if err != nil {
		return nil, err
	}
	type cand struct {
		rel     *relation.Relation
		changed int
	}
	cands, err := mapWorlds(s, len(worlds), func(i int) (cand, error) {
		w := worlds[i]
		cur, err := w.Lookup(table)
		if err != nil {
			return cand{}, err
		}
		bound, err := tmpl.Bind(w, s.interrupt)
		if err != nil {
			return cand{}, err
		}
		rows, changed, err := bound.Apply(cur.Rows())
		if err != nil {
			return cand{}, err
		}
		next := relation.FromRowsShared(cur.Schema, rows)
		if len(key) > 0 {
			if err := checkKey(next, key); err != nil {
				return cand{}, fmt.Errorf("%w in world %s (statement discarded in all worlds)", err, w.Name)
			}
		}
		return cand{rel: next, changed: changed}, nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for i, w := range worlds {
		w.Put(table, cands[i].rel)
		total += cands[i].changed
	}
	return &Result{Kind: ResultOK, Msg: fmt.Sprintf(msg, total, len(worlds)), Weighted: s.set.Weighted}, nil
}

// freshWorldName mints a lineage-based child world name.
func childName(parent string, i int) string {
	return fmt.Sprintf("%s.%d", parent, i+1)
}

var _ plan.Catalog = (*world.World)(nil)
