package maybms

import (
	"math/big"

	"maybms/internal/core"
	"maybms/internal/wsd"
)

// ErrCompactUnsupported is the sentinel every compact-backend refusal
// wraps: statements without a decomposition counterpart (the refusal table
// of internal/wsd's statement executor) fail with an error satisfying
// errors.Is(err, ErrCompactUnsupported), on CompactDB and on served compact
// sessions alike.
var ErrCompactUnsupported = wsd.ErrUnsupported

// CompactDB is a database backed by a world-set decomposition (WSD), the
// compact representation of MayBMS (ICDT'07/ICDE'07): the world-set is a
// product of independent components over a certain database, so a repair
// of n key groups with k candidates each occupies O(n·k) space while
// representing k^n worlds. Confidence, possible and certain are computed
// exactly without enumeration.
//
// Like DB, a CompactDB is Exec (and ExecTraced, MustExec, ExecScript) plus
// inspection: every question, a tuple's confidence included, is an I-SQL
// statement run by the statement runner DB uses too — `select possible *
// from R`, `select certain * from R`, `select *, conf from R`, `select conf
// from R where A = … and B = …` — and the other methods load, count, bound
// merges and convert. REPAIR BY KEY and CHOICE OF split certain and uncertain sources
// alike (chained repairs split the feeding components in place, without
// enumerating worlds); SELECT closures run decomposition-aware; UPDATE/DELETE
// rewrite the representation piece by piece (Exec's message counts the
// representation rows changed); asserts, queries that correlate components,
// and DML whose expressions read uncertain data merge exactly the involved
// components (partial expansion). Statements without a decomposition
// counterpart fail with an error wrapping ErrCompactUnsupported. For full
// I-SQL over small world-sets, use DB; Expand bridges the two.
//
// How a statement executes is the engine's decision, taken once per
// statement from its shape and the decomposition: EXPLAIN prints it, the
// trace of ExecTraced names it (attribute route), and RouteCounts and
// maybms_route_total count it. MergeCount counts the merges that
// restructured the decomposition.
// Every evaluation runs one operator set, over columns for a relation of at
// least 32 rows and over the relation as stored otherwise; nothing sets
// this. To cross-check an answer, Expand and ask the naive engine.
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

// WorldCount returns the exact number of represented worlds (which can be
// astronomically large; hence *big.Int).
func (db *CompactDB) WorldCount() *big.Int { return db.w.WorldCount() }

// ComponentCount returns the number of independent components.
func (db *CompactDB) ComponentCount() int { return db.w.ComponentCount() }

// AlternativeCount returns the representation size in alternatives.
func (db *CompactDB) AlternativeCount() int { return db.w.AlternativeCount() }

// SetMergeLimit bounds partial expansions (component merges).
func (db *CompactDB) SetMergeLimit(n int) { db.w.MergeLimit = n }

// MergeCount returns the number of component merges (partial expansions
// multiplying ≥ 2 components together) performed so far — the
// observability hook for "this query ran with no expansion at all".
// Queries served componentwise leave it unchanged.
func (db *CompactDB) MergeCount() uint64 { return db.w.MergeCount() }

// RouteCounts returns the number of statements run per route word: single,
// componentwise, conditional (a d-tree fold, a conditional relation or a
// nesting split), merge, approx_mc and refused — one per statement, the word
// EXPLAIN prints.
func (db *CompactDB) RouteCounts() map[string]uint64 { return db.w.RouteCounts() }

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
