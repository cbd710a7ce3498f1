package plan

// The statement memo: what a statement's binds share. An engine binds one
// template many times in one statement — once per world in the naive
// engine, per alternative or piece in the compact one — and most of what
// those instances compute does not change between them: worlds cloned from
// one another share every relation a split did not touch, and an
// uncorrelated subquery's value does not depend on the outer row. Two
// kinds of subplan are invariant in that way, and the rebinder hands both
// to the statement's Memo:
//
//   - an uncorrelated subquery (compiledSubquery.uncorrelated): its answer,
//     evaluated on first use;
//   - the build side of a HashJoin not inside a correlated subquery: its
//     hashed JoinTable, built by the first join instance to open.
//
// An entry is keyed by the template node plus the relations the subplan's
// scans read, in scan order, nested subqueries' scans included — the
// *relation.Relation values themselves, so a key keeps its relations alive
// and no address is ever reused under it. Relation identity is a sound key
// because a published relation is never written in place: every statement
// writes into copies and swaps them in (internal/core's Engine.Snapshot),
// so two scans of one relation read the same rows for the statement's
// whole life. Entries are sync.Once-guarded, so concurrent binds evaluate
// each once, and the first evaluation's error is every user's.
//
// A Memo lives for one statement: the engines make one per statement (or
// per template of it) and drop it with the statement, so the shared plan
// cache still holds no data.

import (
	"sync"

	"maybms/internal/algebra"
	"maybms/internal/expr"
	"maybms/internal/relation"
)

// Memo is one statement's table of invariant subplans. The zero Memo is
// empty and allocates its table on the first subplan it shares, and a bind
// lists the relations it reads only inside such a subplan, so a statement
// with nothing to share allocates no table and no key; a nil *Memo shares
// nothing. Safe for concurrent binds.
type Memo struct {
	mu      sync.Mutex
	entries map[memoKey]*memoEntry
}

// memoKey is one step of a key's walk: the template node alone, then from
// the entry reached so far along the next relation read.
type memoKey struct {
	at  any
	rel *relation.Relation
}

// memoEntry is one invariant subplan's value, evaluated once.
type memoEntry struct {
	once  sync.Once
	rel   *relation.Relation // an uncorrelated subquery's answer
	table *algebra.JoinTable // a build side, hashed
	err   error
}

// entry returns the entry of the template node node over the relations
// reads, creating it (and the steps to it) on first use.
func (m *Memo) entry(node any, reads []*relation.Relation) *memoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries == nil {
		m.entries = map[memoKey]*memoEntry{}
	}
	k := memoKey{at: node}
	for i := 0; ; i++ {
		e := m.entries[k]
		if e == nil {
			e = &memoEntry{}
			m.entries[k] = e
		}
		if i == len(reads) {
			return e
		}
		k = memoKey{at: e, rel: reads[i]}
	}
}

// answer evaluates an uncorrelated subquery through op, one of its bound
// instances, on first use, and returns its answer to every use after.
func (e *memoEntry) answer(op algebra.Operator, ctx *expr.Context) (*relation.Relation, error) {
	e.once.Do(func() {
		if st := ctx.FindStats(); st != nil {
			st.SubqueryEvals.Add(1)
		}
		e.rel, e.err = algebra.Collect(op, ctx)
	})
	return e.rel, e.err
}

// build returns a HashJoin.Build hashing right, the join's own bound build
// side, on keys if no join of the entry has built yet. A join with Build
// set never opens its right input itself, so the first to build may drain
// its own.
func (e *memoEntry) build(right algebra.Operator, keys []int) func(*expr.Context) (*algebra.JoinTable, error) {
	return func(outer *expr.Context) (*algebra.JoinTable, error) {
		e.once.Do(func() {
			if st := outer.FindStats(); st != nil {
				st.SharedBuilds.Add(1)
			}
			e.table, e.err = algebra.BuildJoinTable(right, keys, outer)
		})
		return e.table, e.err
	}
}
