package core

import (
	"errors"
	"fmt"
	"maps"
	"strconv"
	"strings"

	"maybms/internal/obs"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
	"maybms/internal/tuple"
	"maybms/internal/world"
	"maybms/internal/worldset"
)

// DefaultMaxWorlds bounds the explicit world-set size of a session.
const DefaultMaxWorlds = 1 << 16

// Errors reported by the engine. ErrExists is both engines' error for a
// name already taken.
var (
	ErrExists        = errors.New("relation already exists")
	ErrKeyViolation  = errors.New("primary key violation")
	ErrAssertAllGone = errors.New("assert dropped every world")
)

// Session is an I-SQL session: a world-set plus the schema-level metadata
// (declared primary keys, view names).
type Session struct {
	set *worldset.Set
	// keys maps lower-case table names to declared primary key columns. It
	// and views are copied before a write (Snapshot keeps the pointers).
	keys map[string][]string
	// views records which names were created as views (snapshot-materialized).
	views map[string]bool
	// MaxWorlds bounds the world-set; splits that would exceed it fail with
	// ErrTooManyWorlds.
	MaxWorlds int
	// interrupt and trace belong to the statement executing now (see
	// SetStatement).
	interrupt func() error
	trace     *obs.Trace
	// lookups attributes lookups in the process-wide plan cache to this
	// session (see the server's SessionInfo).
	lookups plan.Lookups
}

// SetStatement installs (or clears, with nils) the interrupt hook — polled
// between per-world units of work and inside the algebra iterators — and
// the trace of the statement about to run.
func (s *Session) SetStatement(interrupt func() error, tr *obs.Trace) {
	s.interrupt, s.trace = interrupt, tr
}

// Snapshot saves the world list's header and the key and view maps; see
// Engine.Snapshot. It copies nothing: a statement stores only into worlds it
// created or cloned, then swaps the list, and copies a key or view map
// before it writes it.
func (s *Session) Snapshot() (restore func()) {
	worlds, keys, views := s.set.Worlds, s.keys, s.views
	return func() { s.set.Worlds, s.keys, s.views = worlds, keys, views }
}

// interrupted polls the interrupt hook; every per-world loop calls it
// before each unit of work.
func (s *Session) interrupted() error {
	if s.interrupt == nil {
		return nil
	}
	return s.interrupt()
}

// Kind names the naive engine for the server and EXPLAIN.
func (s *Session) Kind() (name, representation string) { return "naive", "per-world evaluation" }

// Worlds renders the world count.
func (s *Session) Worlds() string { return strconv.Itoa(s.set.Len()) }

// PlanCacheCounts returns this session's plan-cache lookup attribution:
// templates found valid in the cache vs. compiled fresh on its behalf.
func (s *Session) PlanCacheCounts() (hits, misses uint64) {
	return s.lookups.Counts()
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
// INSERTs of complete data. It fails if the name is taken. It runs outside
// statements, so it stores into the worlds in place.
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

// Exec parses and runs one statement through the runner.
func (s *Session) Exec(sql string) (*Result, error) { return Exec(s, sql) }

// errAssertStatement is the naive engine's answer to the standalone ASSERT.
var errAssertStatement = errors.New("the standalone ASSERT statement runs on the compact backend only (use CREATE TABLE AS SELECT … ASSERT)")

// Run executes one statement other than EXPLAIN over every world.
func (s *Session) Run(stmt sqlparse.Statement) (*Result, error) {
	switch st := stmt.(type) {
	case *sqlparse.SelectStmt:
		q, err := TakeApart(st, s.set.Weighted)
		if err != nil {
			return nil, err
		}
		ev, err := s.evalQuery(q, nil)
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
		return s.execDML(st, st.Table, "updated %d row(s) across %d world(s)", s.keys[strings.ToLower(st.Table)])
	case *sqlparse.Delete:
		return s.execDML(st, st.Table, "deleted %d row(s) across %d world(s)", nil)
	case *sqlparse.Drop:
		return s.execDrop(st)
	case *sqlparse.Import:
		return s.execImport(st)
	case *sqlparse.Assert:
		return nil, errAssertStatement
	default:
		return nil, fmt.Errorf("unsupported statement %T", stmt)
	}
}

// ok acknowledges a statement with a formatted message.
func (s *Session) ok(format string, args ...any) (*Result, error) {
	return &Result{Kind: ResultOK, Msg: fmt.Sprintf(format, args...), Weighted: s.set.Weighted}, nil
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
		s.keys = maps.Clone(s.keys)
		s.keys[strings.ToLower(st.Name)] = st.PrimaryKey
	}
	if _, err := s.putEach(st.Name, nil, func(*world.World) (*relation.Relation, int, error) { return relation.New(sch), 0, nil }); err != nil {
		return nil, err
	}
	return s.ok("created table %s", st.Name)
}

// putEach swaps in a new world list: a clone of every world with the
// relation rel returns for it stored under name, or name dropped when rel
// returns nil. rel runs once for each distinct set of instances a world
// holds under reads, the tables the statement reads; a world holding the
// same instances as an earlier one reuses that world's relation, so worlds
// that shared what the statement read share what it wrote. n counts what
// rel changed in its world, and putEach returns the sum over all worlds. It
// polls the interrupt hook before each world. Published worlds are never
// written, so Snapshot's copy of the list header is the session as it was.
func (s *Session) putEach(name string, reads []string, rel func(w *world.World) (r *relation.Relation, n int, err error)) (int, error) {
	type made struct {
		r *relation.Relation
		n int
	}
	done := map[string]made{} // by the addresses of the instances read
	total := 0
	next := make([]*world.World, len(s.set.Worlds))
	for i, w := range s.set.Worlds {
		if err := s.interrupted(); err != nil {
			return 0, err
		}
		key := ""
		for _, t := range reads {
			cur, _ := w.Lookup(t)
			key += fmt.Sprintf("%p ", cur)
		}
		m, ok := done[key]
		if !ok {
			var err error
			if m.r, m.n, err = rel(w); err != nil {
				return 0, err
			}
			done[key] = m
		}
		total += m.n
		next[i] = w.Clone(w.Name)
		if m.r == nil {
			next[i].Drop(name)
		} else {
			next[i].Put(name, m.r)
		}
	}
	s.set.Worlds = next
	return total, nil
}

func (s *Session) execDrop(st *sqlparse.Drop) (*Result, error) {
	if err := s.checkFresh(st.Name); err == nil && !st.IfExists {
		return nil, fmt.Errorf("%w: %s", world.ErrUnknown, st.Name)
	}
	if _, err := s.putEach(st.Name, nil, func(*world.World) (*relation.Relation, int, error) { return nil, 0, nil }); err != nil {
		return nil, err
	}
	s.keys, s.views = maps.Clone(s.keys), maps.Clone(s.views)
	delete(s.keys, strings.ToLower(st.Name))
	delete(s.views, strings.ToLower(st.Name))
	return s.ok("dropped %s", st.Name)
}

// execInsert inserts the value rows into the table in every world. Per the
// paper (§2): "In case the tuple insertion violates a constraint in some
// worlds, then the update is discarded in all worlds." — a violation of the
// table's primary key in any world fails the statement, and the runner
// restores the session as it was. Worlds that share the table's instance
// share its extension too (putEach), so later statements still see one
// relation there (and their memo shares what reads it).
func (s *Session) execInsert(st *sqlparse.Insert) (*Result, error) {
	rows, err := s.insertRows(st)
	if err != nil {
		return nil, err
	}
	key := s.keys[strings.ToLower(st.Table)]
	_, err = s.putEach(st.Table, []string{st.Table}, func(w *world.World) (*relation.Relation, int, error) {
		next, err := w.Lookup(st.Table)
		if err != nil {
			return nil, 0, err
		}
		next = next.Clone()
		for _, t := range rows {
			if err := next.Append(t); err != nil {
				return nil, 0, err
			}
		}
		if len(key) > 0 {
			if err := checkKey(next, key); err != nil {
				return nil, 0, fmt.Errorf("%w in world %s (statement discarded in all worlds)", err, w.Name)
			}
		}
		return next, 0, nil
	})
	if err != nil {
		return nil, err
	}
	return s.ok("inserted %d row(s) into %s in %d world(s)", len(rows), st.Table, len(s.set.Worlds))
}

// insertRows evaluates an INSERT's value rows once, against the table's
// schema in the first world (one schema across worlds); subqueries would be
// world-dependent and are rejected by requiring constant rows.
func (s *Session) insertRows(st *sqlparse.Insert) ([]tuple.Tuple, error) {
	base, err := s.set.Worlds[0].Lookup(st.Table)
	if err != nil {
		return nil, err
	}
	return plan.ConstInsertRows(st, base.Schema)
}

// checkKey verifies the key uniqueness constraint on rel. Keys are encoded
// from the batch (the bytes of tuple.KeyOn); a row is materialised only to
// word a violation.
func checkKey(rel *relation.Relation, key []string) error {
	idx, err := rel.Schema.IndexesOf(key)
	if err != nil {
		return err
	}
	bv := rel.Batch()
	seen := make(map[string]struct{}, bv.Len())
	var buf []byte
	for i := 0; i < bv.Len(); i++ {
		buf = bv.AppendKeyOn(buf[:0], idx, i)
		if _, dup := seen[string(buf)]; dup {
			return fmt.Errorf("%w: duplicate key (%s) value %s", ErrKeyViolation, strings.Join(key, ", "), bv.Row(i).Project(idx))
		}
		seen[string(buf)] = struct{}{}
	}
	return nil
}

// dmlTemplate compiles an UPDATE or DELETE once, through the plan cache,
// against the first world. EXPLAIN runs it too, so an explained statement's
// execution hits the cache.
func (s *Session) dmlTemplate(st sqlparse.Statement) (*plan.PreparedDML, error) {
	w := s.set.Worlds[0]
	return plan.Cached(plan.SharedCache(), s.trace, &s.lookups, "dml\x00"+st.String(), w,
		func() (*plan.PreparedDML, error) {
			if u, ok := st.(*sqlparse.Update); ok {
				return plan.PrepareUpdateStmt(u, w)
			}
			return plan.PrepareDeleteStmt(st.(*sqlparse.Delete), w)
		})
}

// execDML applies an UPDATE or DELETE to table in every world: the
// statement compiles once (dmlTemplate), and each world binds the template
// through the statement's memo and runs its row rewrite over the
// relation's batch — the template and rewrite the compact engine runs per
// piece. A world where no row matches keeps its relation. With key set (an UPDATE of a table with a declared
// primary key) a violation in any world fails the statement, which the
// runner then undoes in every world. msg reports the changed rows and the
// world count.
func (s *Session) execDML(st sqlparse.Statement, table, msg string, key []string) (*Result, error) {
	tmpl, err := s.dmlTemplate(st)
	if err != nil {
		return nil, err
	}
	var memo plan.Memo
	outer := StatementCtx(s.interrupt, s.trace)
	total, err := s.putEach(table, tmpl.Reads(), func(w *world.World) (*relation.Relation, int, error) {
		cur, err := w.Lookup(table)
		if err != nil {
			return nil, 0, err
		}
		bound, err := tmpl.Bind(w, outer, &memo)
		if err != nil {
			return nil, 0, err
		}
		out, changed, err := bound.Apply(cur.Batch())
		if err != nil {
			return nil, 0, err
		}
		if changed > 0 {
			cur = relation.FromBatch(out)
		}
		if len(key) > 0 {
			if err := checkKey(cur, key); err != nil {
				return nil, 0, fmt.Errorf("%w in world %s (statement discarded in all worlds)", err, w.Name)
			}
		}
		return cur, changed, nil
	})
	if err != nil {
		return nil, err
	}
	return s.ok(msg, total, len(s.set.Worlds))
}

// freshWorldName mints a lineage-based child world name.
func childName(parent string, i int) string {
	return fmt.Sprintf("%s.%d", parent, i+1)
}

var (
	_ plan.Catalog = (*world.World)(nil)
	_ Engine       = (*Session)(nil)
)
