package maybms

import (
	"errors"
	"fmt"
	"math/big"

	"maybms/internal/core"
	"maybms/internal/sqlparse"
	"maybms/internal/tuple"
	"maybms/internal/wsd"
)

// ErrCompactUnsupported is the sentinel every compact-backend refusal
// wraps: statements without a decomposition counterpart (the refusal table
// of internal/wsd's statement executor) fail with an error satisfying
// errors.Is(err, ErrCompactUnsupported), on CompactDB and on served compact
// sessions alike.
var ErrCompactUnsupported = wsd.ErrUnsupported

// errNotPlainSelect is returned by MaterializeQuery for a query using I-SQL
// constructs (it materializes plain SQL only; Exec takes the I-SQL forms).
var errNotPlainSelect = errors.New("maybms: MaterializeQuery takes a plain SQL SELECT (no I-SQL constructs)")

// CompactDB is a database backed by a world-set decomposition (WSD), the
// compact representation of MayBMS (ICDT'07/ICDE'07): the world-set is a
// product of independent components over a certain database, so a repair
// of n key groups with k candidates each occupies O(n·k) space while
// representing k^n worlds. Confidence, possible and certain are computed
// exactly without enumeration.
//
// CompactDB exposes the representation-level operations — RepairByKey
// and ChoiceOf over certain and uncertain sources alike (chained repairs
// split the feeding components in place, without enumerating worlds) —
// decomposition-aware SELECT closures (Select, SelectGroups), and Exec,
// the statement runner DB uses too, with the full compact statement
// routing: UPDATE/DELETE rewrite the representation piece by piece (Exec's
// message counts the representation rows changed); asserts, queries that
// correlate components, and DML whose expressions read uncertain data
// merge exactly the involved components (partial expansion). Statements
// without a decomposition counterpart fail with an error wrapping
// ErrCompactUnsupported. For full I-SQL over small world-sets, use DB;
// Expand bridges the two.
//
// How a statement executes is the engine's decision, taken once per
// statement from the query's shape and the decomposition (EXPLAIN prints
// it; MergeCount, ComponentwiseCount and ConditionalCount count it), and
// per evaluation from the scanned input size: trees scanning fewer than 32
// rows, trees with no batch mirror and bare scans run the row operators;
// everything else runs batches; nothing sets this. To cross-check an answer,
// Expand and ask the naive engine.
type CompactDB struct {
	statements
	w *wsd.WSD
}

func newCompactDB(w *wsd.WSD) *CompactDB { return &CompactDB{statements{w}, w} }

// OpenCompact creates an empty probabilistic compact database.
func OpenCompact() *CompactDB { return newCompactDB(wsd.New(true)) }

// OpenCompactIncomplete creates an empty non-probabilistic compact
// database.
func OpenCompactIncomplete() *CompactDB { return newCompactDB(wsd.New(false)) }

// Register loads a complete relation from Go values (see DB.Register).
func (db *CompactDB) Register(name string, columns []string, rows [][]any) error {
	rel, err := BuildRelation(columns, rows)
	if err != nil {
		return err
	}
	return db.w.PutCertain(name, rel)
}

// RegisterRelation loads a prebuilt complete relation.
func (db *CompactDB) RegisterRelation(name string, rel *Relation) error {
	return db.w.PutCertain(name, rel)
}

// RepairByKey creates dst as the repair of relation src under the key
// columns. A complete src factorizes into one component per key group;
// an uncertain src (a previous repair or choice) splits the components
// feeding it in place — each alternative spawns its conditional
// key-group repairs, with merges only between components contributing
// candidates under a common key — so repairs chain without enumerating
// worlds. weight is the optional weight column ("" for uniform).
func (db *CompactDB) RepairByKey(src, dst string, key []string, weight string) error {
	return db.w.RepairByKey(src, dst, key, weight)
}

// ChoiceOf creates dst as the choice-of partitioning of relation src on
// the given attributes. A complete src becomes a single fresh component;
// an uncertain src merges its feeding components into one (none when fed
// by at most one) and splits it per alternative.
func (db *CompactDB) ChoiceOf(src, dst string, attrs []string, weight string) error {
	return db.w.ChoiceOf(src, dst, attrs, weight)
}

// Assert keeps only the worlds in which cond (an I-SQL-free boolean SQL
// expression, e.g. `not exists (select * from I where C = 'c1')`) holds,
// and renormalizes: Exec of `ASSERT cond`. The relations cond reads are
// derived from the condition itself and their components merged first; the
// condition compiles once through the process-wide shared plan cache.
func (db *CompactDB) Assert(cond string) error {
	_, err := db.Exec("assert " + cond)
	return err
}

// MaterializeQuery evaluates a plain SQL query per world and stores the
// answer as dst: Exec of `CREATE TABLE dst AS query`. The component-touch
// analysis finds every component the compiled plan reads, stores the answer
// componentwise (no merge, linear size) when the plan decomposes, and merges
// exactly the involved components otherwise.
func (db *CompactDB) MaterializeQuery(dst, query string) error {
	sel, err := parseSelect(query)
	if err != nil {
		return err
	}
	if sel.HasISQL() {
		return errNotPlainSelect
	}
	_, err = core.ExecStmt(db.w, &sqlparse.CreateTableAs{Name: dst, Query: sel})
	return err
}

// WorldGroup is one group of worlds produced by SelectGroups: the group's
// total probability (0 for non-probabilistic databases) and the closed
// answer within the group. Group membership is never enumerated — a group
// can span astronomically many worlds.
type WorldGroup struct {
	Prob float64
	Rel  *Relation
}

// SelectGroups evaluates `SELECT [POSSIBLE|CERTAIN|CONF] … GROUP WORLDS
// BY (q)`: worlds are grouped by the answer of the plain-SQL subquery q
// and the closure applies within each group, in the naive engine's group
// order, without enumerating any group's worlds. A statement without GROUP
// WORLDS BY returns a single group. Routing, answers and errors are Exec's.
func (db *CompactDB) SelectGroups(query string) ([]WorldGroup, error) {
	res, err := db.selectStmt(query, true)
	if err != nil {
		return nil, err
	}
	out := make([]WorldGroup, len(res.Groups))
	for i, g := range res.Groups {
		out[i] = WorldGroup{Prob: g.Prob, Rel: g.Rel}
		if !db.w.Weighted {
			out[i].Prob = 0
		}
	}
	return out, nil
}

// Select evaluates an I-SQL SELECT against the represented world-set and
// returns the closed answer:
//
//   - SELECT POSSIBLE … / SELECT CERTAIN … — the ∪ / ∩ closure
//   - SELECT …, CONF …                     — every possible tuple with its
//     exact confidence (probabilistic databases only)
//   - plain SELECT                         — the answer itself when it is
//     world-independent, a conditional relation (trailing cond column) when
//     the plan decomposes
//
// Routing, answers and errors are Exec's: the naive engine's answer on the
// expanded world-set, as a set (the package doc states what order the
// backends list it in; none of it is API).
func (db *CompactDB) Select(query string) (*Relation, error) {
	res, err := db.selectStmt(query, false)
	if err != nil {
		return nil, err
	}
	return res.Groups[0].Rel, nil
}

// selectStmt runs query, which must be a SELECT — with GROUP WORLDS BY only
// when grouped — through the statement runner.
func (db *CompactDB) selectStmt(query string, grouped bool) (*Result, error) {
	sel, err := parseSelect(query)
	if err != nil {
		return nil, err
	}
	if sel.GroupWorlds != nil && !grouped {
		return nil, errors.New("maybms: Select does not accept group-worlds-by (use SelectGroups)")
	}
	return core.ExecStmt(db.w, sel)
}

// parseSelect parses query, which must be a SELECT statement.
func parseSelect(query string) (*sqlparse.SelectStmt, error) {
	stmt, err := sqlparse.Parse(query)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqlparse.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("maybms: expected a SELECT statement, got %T", stmt)
	}
	return sel, nil
}

// Conf returns the exact confidence of a tuple (given as Go values) in
// relation name — 1 for a tuple every world holds, 0 for one no world holds
// — computed from component independence without enumerating worlds: the
// closure fold restricted to the one tuple, a compare-only scan of the
// relation's stored rows.
func (db *CompactDB) Conf(name string, cells ...any) (float64, error) {
	t := make(tuple.Tuple, len(cells))
	for i, c := range cells {
		v, err := toValue(c)
		if err != nil {
			return 0, err
		}
		t[i] = v
	}
	return db.w.Conf(name, t)
}

// ConfRelation returns every possible tuple of the relation, in Possible's
// order, extended with its exact confidence — `select *, conf from name`
// without a plan or an evaluation, at Possible's cost.
func (db *CompactDB) ConfRelation(name string) (*Relation, error) {
	return db.w.ConfRelation(name)
}

// Possible returns the tuples appearing in at least one world: the
// relation's certain tuples first, then the tuples its components contribute,
// in component order (alternatives ascending), each where it first appears.
// Like Certain, ConfRelation and Conf it reads the stored representation
// directly — one pass over the stored rows (× the depth of nested
// components), however many worlds they represent.
func (db *CompactDB) Possible(name string) (*Relation, error) { return db.w.Possible(name) }

// Certain returns the tuples appearing in every world, in Possible's order
// and at its cost.
func (db *CompactDB) Certain(name string) (*Relation, error) { return db.w.Certain(name) }

// WorldCount returns the exact number of represented worlds (which can be
// astronomically large; hence *big.Int).
func (db *CompactDB) WorldCount() *big.Int { return db.w.WorldCount() }

// ComponentCount returns the number of independent components.
func (db *CompactDB) ComponentCount() int { return db.w.ComponentCount() }

// AlternativeCount returns the representation size in alternatives.
func (db *CompactDB) AlternativeCount() int { return db.w.AlternativeCount() }

// SetMergeLimit bounds partial expansions (component merges).
func (db *CompactDB) SetMergeLimit(n int) { db.w.MergeLimit = n }

// SetApproxConf configures the APPROX CONF escape hatch: the number of
// Monte-Carlo samples per estimate (0 falls back to the package default)
// and the sampling seed. Estimates are deterministic for a fixed pair.
func (db *CompactDB) SetApproxConf(samples int, seed int64) {
	db.w.ApproxSamples = samples
	db.w.ApproxSeed = seed
}

// MergeCount returns the number of component merges (partial expansions
// multiplying ≥ 2 components together) performed so far — the
// observability hook for "this query ran with no expansion at all".
// Queries served componentwise leave it unchanged.
func (db *CompactDB) MergeCount() uint64 { return db.w.MergeCount() }

// ComponentwiseCount returns the number of statements answered by the
// merge-free componentwise path.
func (db *CompactDB) ComponentwiseCount() uint64 { return db.w.ComponentwiseCount() }

// ConditionalCount returns the number of uses of the conditional (d-tree)
// machinery: statements answered through a conditional route — tree-fold
// closures and conditional-relation answers — plus repair/choice splits
// that nested components under feeding alternatives.
func (db *CompactDB) ConditionalCount() uint64 { return db.w.ConditionalCount() }

// Expand enumerates the world-set into a naive DB supporting full I-SQL.
// It fails if more than limit worlds are represented (0 = default limit).
func (db *CompactDB) Expand(limit int) (*DB, error) {
	set, err := db.w.Expand(limit)
	if err != nil {
		return nil, err
	}
	return newDB(core.NewSessionFromSet(set)), nil
}

// String summarizes the decomposition.
func (db *CompactDB) String() string { return db.w.String() }

// Compact factorizes the named relation of the naive database's current
// world-set into a compact decomposition — the "from complete to
// incomplete information and back" direction of the companion papers, and
// the inverse of CompactDB.Expand. The decomposition extracts certain
// tuples and splits statistically independent tuple groups into separate
// components; the factorization is verified exactly before being
// returned.
func (db *DB) Compact(name string) (*CompactDB, error) {
	w, err := wsd.Decompose(db.session.Set(), name)
	if err != nil {
		return nil, err
	}
	return newCompactDB(w), nil
}
