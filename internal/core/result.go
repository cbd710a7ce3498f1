// Package core implements the paper's primary contribution: the I-SQL
// engine. Statements are evaluated under the possible-worlds semantics —
// in every world of the session's world-set independently — with the
// explicit uncertainty operations:
//
//   - REPAIR BY KEY k [WEIGHT w]: split each world into one world per
//     maximal repair of the key constraint (Examples 2.3–2.4, Figure 2);
//   - CHOICE OF u [WEIGHT w]: split each world into one world per distinct
//     u-value partition (Examples 2.6–2.7);
//   - ASSERT c: keep only worlds satisfying c and renormalize (Example 2.5);
//   - POSSIBLE / CERTAIN: close the world-set by union / intersection of the
//     per-world answers (Examples 2.8–2.9);
//   - CONF: per-tuple confidence, the summed probability of the worlds whose
//     answer contains the tuple (Example 2.10);
//   - GROUP WORLDS BY (q): apply the closure within groups of worlds on
//     which q has the same answer (Figure 4).
//
// Plain SELECT never mutates the world-set (Example 2.1); CREATE TABLE AS
// and CREATE VIEW materialize the query's hypothetical world-set, making
// splits and asserts durable. INSERT/UPDATE/DELETE run in every world; a
// constraint violation in any world aborts the statement in all worlds.
//
// The package also holds what both engines share: the statement runner
// (Engine, Exec, runner.go), the I-SQL front end that takes a SELECT's
// clauses apart and checks how they combine (TakeApart, isql.go), and the
// errors a name gets, ErrExists here and world.ErrUnknown.
package core

import (
	"fmt"
	"strings"

	"maybms/internal/relation"
)

// ResultKind distinguishes what a statement produced.
type ResultKind uint8

// The result kinds.
const (
	// ResultOK is a DDL/DML acknowledgement.
	ResultOK ResultKind = iota
	// ResultPerWorld carries one answer relation per world.
	ResultPerWorld
	// ResultClosed carries one answer relation per world group (the result
	// of possible / certain / conf, possibly under group-worlds-by).
	ResultClosed
)

// WorldRows is the answer of a query in one world.
type WorldRows struct {
	World string
	Prob  float64
	Rel   *relation.Relation
}

// GroupRows is the closed answer over one group of worlds.
type GroupRows struct {
	// Worlds lists the member world names.
	Worlds []string
	// Prob is the summed probability of the member worlds (weighted sets).
	Prob float64
	// Rel is the closed answer (possible/certain/conf result).
	Rel *relation.Relation
}

// Result is the outcome of executing one statement.
type Result struct {
	Kind     ResultKind
	Msg      string      // for ResultOK
	PerWorld []WorldRows // for ResultPerWorld
	Groups   []GroupRows // for ResultClosed
	// Weighted mirrors the session's mode, for rendering.
	Weighted bool
	// Ordered marks the answers of a closure-free SELECT under ORDER BY:
	// their row order is the statement's, and String keeps it (every other
	// answer is unordered and renders canonically sorted).
	Ordered bool
}

// First returns the first answer relation, convenient in tests and examples:
// the first group's relation for closed results, the first world's for
// per-world results, nil for OK results.
func (r *Result) First() *relation.Relation {
	switch r.Kind {
	case ResultClosed:
		if len(r.Groups) > 0 {
			return r.Groups[0].Rel
		}
	case ResultPerWorld:
		if len(r.PerWorld) > 0 {
			return r.PerWorld[0].Rel
		}
	}
	return nil
}

// String renders the result for the REPL and examples.
func (r *Result) String() string {
	table := (*relation.Relation).String
	if r.Ordered {
		table = (*relation.Relation).StoredString
	}
	var b strings.Builder
	switch r.Kind {
	case ResultOK:
		b.WriteString(r.Msg)
		if r.Msg != "" {
			b.WriteString("\n")
		}
	case ResultPerWorld:
		for i, wr := range r.PerWorld {
			if i > 0 {
				b.WriteString("\n")
			}
			if r.Weighted {
				fmt.Fprintf(&b, "world %s (P = %.4f):\n", wr.World, wr.Prob)
			} else {
				fmt.Fprintf(&b, "world %s:\n", wr.World)
			}
			b.WriteString(table(wr.Rel))
		}
	case ResultClosed:
		for i, g := range r.Groups {
			if i > 0 {
				b.WriteString("\n")
			}
			// A group without world names (the compact backend never
			// enumerates them) is numbered, with its probability when there
			// is one.
			switch {
			case len(r.Groups) == 1:
			case len(g.Worlds) > 0:
				fmt.Fprintf(&b, "group {%s}:\n", strings.Join(g.Worlds, ", "))
			case r.Weighted:
				fmt.Fprintf(&b, "group %d (P = %.4f):\n", i+1, g.Prob)
			default:
				fmt.Fprintf(&b, "group %d:\n", i+1)
			}
			b.WriteString(table(g.Rel))
		}
	}
	return b.String()
}
