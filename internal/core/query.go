package core

import (
	"fmt"
	"maps"
	"strings"

	"maybms/internal/algebra"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/sqlparse"
	"maybms/internal/world"
	"maybms/internal/worldset"
)

// queryEval is the outcome of evaluating a SELECT under possible-worlds
// semantics, before any materialization: a hypothetical world list (split
// by repair/choice, filtered by assert), the per-world answers, and — when
// a closure (possible/certain/conf) applied — the world groups and their
// closed answers.
type queryEval struct {
	worlds  []*world.World
	results []*relation.Relation
	// groups/closed are set iff a closure applied; groups[i] indexes into
	// worlds, closed[i] is the group's closed answer.
	groups [][]int
	closed []*relation.Relation
	// weighted mirrors the session mode.
	weighted bool
}

// preparedFull returns a compile-once template for the plain-SQL core
// stmt, compiled against rep and valid for it (plan.Cached).
func (s *Session) preparedFull(stmt *sqlparse.SelectStmt, rep *world.World) (*plan.Prepared, error) {
	return plan.Cached(plan.SharedCache(), s.trace, &s.lookups, "q\x00"+stmt.String(), rep,
		func() (*plan.Prepared, error) { return plan.Prepare(stmt, rep) })
}

// preparedFromWhere is preparedFull for the FROM/WHERE part of a
// world-splitting statement.
func (s *Session) preparedFromWhere(stmt *sqlparse.SelectStmt, rep *world.World) (*plan.Prepared, error) {
	return plan.Cached(plan.SharedCache(), s.trace, &s.lookups, "fw\x00"+stmt.String(), rep,
		func() (*plan.Prepared, error) { return plan.PrepareFromWhere(stmt, rep) })
}

// preparedOnRelation is preparedFull for the post-split part of a
// world-splitting statement; the key includes the intermediate schema so a
// changed FROM/WHERE shape recompiles.
func (s *Session) preparedOnRelation(stmt *sqlparse.SelectStmt, in *plan.Prepared, rep *world.World) (*plan.PreparedOnRelation, error) {
	return plan.Cached(plan.SharedCache(), s.trace, &s.lookups, "or\x00"+stmt.String()+"\x00"+in.Schema().String(), rep,
		func() (*plan.PreparedOnRelation, error) { return plan.PrepareOnRelation(stmt, in.Schema(), rep) })
}

// preparedPredicate is preparedFull for an ASSERT condition.
func (s *Session) preparedPredicate(e sqlparse.Expr, rep *world.World) (*plan.PreparedPredicate, error) {
	return plan.Cached(plan.SharedCache(), s.trace, &s.lookups, "a\x00"+e.String(), rep,
		func() (*plan.PreparedPredicate, error) { return plan.PreparePredicate(e, rep) })
}

// compileCore compiles a statement's plain-SQL core against the first
// world, after resolving a split's columns against its FROM/WHERE rows (the
// order of the compact engine's checks). EXPLAIN prints the template;
// CREATE … AS checks the names it stores.
func (s *Session) compileCore(q ISQL) (*plan.Prepared, error) {
	rep := s.set.Worlds[0]
	if q.Splits() {
		fw, err := s.preparedFromWhere(q.Core, rep)
		if err == nil {
			_, _, err = q.SplitColumns(fw.Schema())
		}
		if err != nil {
			return nil, err
		}
	}
	return s.preparedFull(q.Core, rep)
}

// evalQuery runs the full I-SQL SELECT pipeline:
//
//	per-world FROM/WHERE → repair/choice world split → rest of the query in
//	each (child) world → assert filter + renormalize → group-worlds-by →
//	possible/certain/conf closure per group.
//
// The statement compiles once against the first world and binds each
// world's relations into the compiled plan (internal/plan's Prepare/Bind).
// Every bind takes the statement's one memo, so what does not change from
// world to world — an uncorrelated subquery over relations the worlds
// share, a build side over a certain table — is evaluated once. Every
// per-world pass is a loop in world order that polls the interrupt hook
// before each world. prep, when set, is the template of an unsplit q.Core
// the caller compiled already; it is bound instead of looked up again.
func (s *Session) evalQuery(q ISQL, prep *plan.Prepared) (*queryEval, error) {
	weighted := s.set.Weighted
	var memo plan.Memo
	var err error

	// ---- per-world evaluation, with world splitting ----
	var worlds []*world.World
	var results []*relation.Relation
	esp := s.trace.Begin("eval")
	if q.Splits() {
		worlds, results, err = s.evalSplit(q, &memo)
	} else {
		worlds = s.set.Worlds
		if prep == nil {
			prep, err = s.preparedFull(q.Core, worlds[0])
		}
		if err == nil {
			results, err = s.collectEach(prep, worlds, &memo)
		}
	}
	if err != nil {
		esp.End(s.trace)
		return nil, err
	}
	esp.Set("worlds", len(worlds))
	esp.End(s.trace)
	s.trace.Set("route", "per-world")

	// ---- assert: filter worlds and renormalize ----
	if q.Assert != nil {
		aPrep, err := s.preparedPredicate(q.Assert, worlds[0])
		if err != nil {
			return nil, err
		}
		var keptWorlds []*world.World
		var keptResults []*relation.Relation
		outer := StatementCtx(s.interrupt, s.trace)
		for i, w := range worlds {
			if err := s.interrupted(); err != nil {
				return nil, err
			}
			pred, err := aPrep.Bind(w, outer, &memo)
			if err != nil {
				return nil, err
			}
			ok, err := pred()
			if err != nil {
				return nil, err
			}
			if ok {
				// Clone so renormalization cannot leak into the session's
				// worlds on a non-materializing query.
				keptWorlds = append(keptWorlds, w.Clone(w.Name))
				keptResults = append(keptResults, results[i])
			}
		}
		if len(keptWorlds) == 0 {
			return nil, ErrAssertAllGone
		}
		if weighted {
			total := 0.0
			for _, w := range keptWorlds {
				total += w.Prob
			}
			if total <= 0 {
				return nil, fmt.Errorf("assert left zero total probability")
			}
			for _, w := range keptWorlds {
				w.Prob /= total
			}
		}
		worlds, results = keptWorlds, keptResults
	}

	ev := &queryEval{worlds: worlds, results: results, weighted: weighted}

	// ---- world grouping + closure ----
	if q.Closure == ClosureNone {
		return ev, nil
	}
	var groups [][]int
	if q.GroupWorlds != nil {
		gw, err := s.preparedFull(q.GroupWorlds, worlds[0])
		var answers []*relation.Relation
		if err == nil {
			answers, err = s.collectEach(gw, worlds, &memo)
		}
		if err != nil {
			return nil, err
		}
		keys := make([]uint64, len(answers))
		for i, a := range answers {
			keys[i] = a.Fingerprint()
		}
		groups = worldset.Group(keys)
	} else {
		all := make([]int, len(worlds))
		for i := range all {
			all[i] = i
		}
		groups = [][]int{all}
	}

	csp := s.trace.Begin("closure")
	csp.Set("groups", len(groups))
	defer csp.End(s.trace)
	closed := make([]*relation.Relation, len(groups))
	for gi, idxs := range groups {
		groupResults := make([]*relation.Relation, len(idxs))
		for j, wi := range idxs {
			groupResults[j] = results[wi]
		}
		var rel *relation.Relation
		var err error
		switch q.Closure {
		case ClosurePossible:
			rel, err = worldset.Possible(groupResults, s.interrupt)
		case ClosureCertain:
			rel, err = worldset.Certain(groupResults, s.interrupt)
		default: // conf
			probs := make([]float64, len(idxs))
			for j, wi := range idxs {
				probs[j] = worlds[wi].Prob
			}
			rel, err = worldset.Conf(groupResults, probs, s.interrupt)
		}
		if err != nil {
			return nil, err
		}
		closed[gi] = rel
	}
	ev.groups, ev.closed = groups, closed
	return ev, nil
}

// evalSplit evaluates a repair/choice statement: in each parent world the
// FROM/WHERE intermediate is computed and split into pieces (phase one),
// then the rest of the query runs in every child world (phase two). Phase
// one stops as soon as the pieces so far exceed MaxWorlds, so every split
// error surfaces before any piece-evaluation error.
func (s *Session) evalSplit(q ISQL, memo *plan.Memo) ([]*world.World, []*relation.Relation, error) {
	parents := s.set.Worlds
	fwPrep, err := s.preparedFromWhere(q.Core, parents[0])
	if err != nil {
		return nil, nil, err
	}

	// Phase one: FROM/WHERE + split, per parent world, naming the children
	// in world order. Both phases drain under the statement's one outer
	// context (evaluations only read it).
	outer := StatementCtx(s.interrupt, s.trace)
	var worlds []*world.World
	var pieces []piece
	for _, w := range parents {
		if err := s.interrupted(); err != nil {
			return nil, nil, err
		}
		irOp, err := fwPrep.Bind(w, memo)
		if err != nil {
			return nil, nil, err
		}
		ir, err := algebra.Collect(irOp, outer)
		if err != nil {
			return nil, nil, err
		}
		ps, err := s.splitPieces(&q, ir)
		if err != nil {
			return nil, nil, err
		}
		if len(pieces)+len(ps) > s.MaxWorlds {
			return nil, nil, ErrTooManyWorlds
		}
		for pi, p := range ps {
			name := w.Name
			if len(ps) > 1 {
				name = childName(w.Name, pi)
			}
			child := w.Clone(name)
			if s.set.Weighted {
				child.Prob = w.Prob * p.prob
			}
			worlds = append(worlds, child)
		}
		pieces = append(pieces, ps...)
	}

	orPrep, err := s.preparedOnRelation(q.Core, fwPrep, parents[0])
	if err != nil {
		return nil, nil, err
	}

	// Phase two: the rest of the query in every child world.
	results := make([]*relation.Relation, len(worlds))
	for i, child := range worlds {
		if err := s.interrupted(); err != nil {
			return nil, nil, err
		}
		op, err := orPrep.Bind(pieces[i].rel, child, memo)
		if err != nil {
			return nil, nil, err
		}
		if results[i], err = algebra.Collect(op, outer); err != nil {
			return nil, nil, err
		}
	}
	return worlds, results, nil
}

// collectEach collects the answer of a template compiled against worlds[0]
// in every world, binding through the statement's memo, draining under one
// outer context and polling the interrupt hook before each.
func (s *Session) collectEach(prep *plan.Prepared, worlds []*world.World, memo *plan.Memo) ([]*relation.Relation, error) {
	out := make([]*relation.Relation, len(worlds))
	outer := StatementCtx(s.interrupt, s.trace)
	for i, w := range worlds {
		if err := s.interrupted(); err != nil {
			return nil, err
		}
		op, err := prep.Bind(w, memo)
		if err != nil {
			return nil, err
		}
		if out[i], err = algebra.Collect(op, outer); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// splitPieces dispatches to the repair or choice split on the FROM/WHERE
// intermediate ir.
func (s *Session) splitPieces(q *ISQL, ir *relation.Relation) ([]piece, error) {
	cols, weightIdx, err := q.SplitColumns(ir.Schema)
	if err != nil {
		return nil, err
	}
	if q.Repair != nil {
		return repairs(ir, cols, weightIdx, s.set.Weighted, s.MaxWorlds)
	}
	return choices(ir, cols, weightIdx, s.set.Weighted)
}

// result converts the evaluation into a displayable Result without
// mutating the session.
func (ev *queryEval) result(weighted bool) *Result {
	if ev.closed != nil {
		out := &Result{Kind: ResultClosed, Weighted: weighted}
		for gi, idxs := range ev.groups {
			g := GroupRows{Rel: ev.closed[gi]}
			for _, wi := range idxs {
				g.Worlds = append(g.Worlds, ev.worlds[wi].Name)
				g.Prob += ev.worlds[wi].Prob
			}
			out.Groups = append(out.Groups, g)
		}
		return out
	}
	out := &Result{Kind: ResultPerWorld, Weighted: weighted}
	for i, w := range ev.worlds {
		out.PerWorld = append(out.PerWorld, WorldRows{World: w.Name, Prob: w.Prob, Rel: ev.results[i]})
	}
	return out
}

// execCreateAs materializes a query: the hypothetical world-set becomes the
// session's world-set (making repair/choice splits and asserts durable, per
// Examples 2.2–2.5), and the answer relation is added to each world — per
// group for closed results (Figure 4's Groups), per world otherwise. A split
// or an assert hands back worlds of the statement's own; any other query
// answers over the session's worlds, which are cloned before the answer is
// stored. A result that cannot be stored fails the statement, which the
// runner then undoes.
func (s *Session) execCreateAs(name string, sel *sqlparse.SelectStmt, isView bool) (*Result, error) {
	q, err := TakeApart(sel, s.set.Weighted)
	if err != nil {
		return nil, err
	}
	if err := s.checkFresh(name); err != nil {
		return nil, err
	}
	var prep *plan.Prepared // an unsplit store's template, evaluated as checked
	if q.Closure == ClosureNone {
		// A plain or split store keeps the select list's names, checked
		// before evaluating, as on the compact engine; a closed store's are
		// checked once evaluated, with its conf column.
		compiled, err := s.compileCore(q)
		if err == nil {
			err = CheckStoredNames(compiled.Schema().Names())
		}
		if err != nil {
			return nil, err
		}
		if !q.Splits() {
			prep = compiled
		}
	}
	ev, err := s.evalQuery(q, prep)
	if err != nil {
		return nil, err
	}
	worlds := ev.worlds
	if !q.Splits() && q.Assert == nil {
		worlds = make([]*world.World, len(ev.worlds))
		for i, w := range ev.worlds {
			worlds[i] = w.Clone(w.Name)
		}
	}
	if ev.closed != nil {
		for gi, idxs := range ev.groups {
			rel, err := materializable(ev.closed[gi])
			if err != nil {
				return nil, err
			}
			for _, wi := range idxs {
				worlds[wi].Put(name, rel)
			}
		}
	} else {
		for i, w := range worlds {
			rel, err := materializable(ev.results[i])
			if err != nil {
				return nil, err
			}
			w.Put(name, rel)
		}
	}
	if err := s.set.Replace(worlds); err != nil {
		return nil, err
	}
	kind := "table"
	if isView {
		s.views = maps.Clone(s.views)
		s.views[strings.ToLower(name)] = true
		kind = "view"
	}
	return s.ok("created %s %s in %d world(s)", kind, name, len(worlds))
}

// materializable prepares a query result for storage as a base relation:
// qualifiers are dropped and duplicate column names rejected.
func materializable(rel *relation.Relation) (*relation.Relation, error) {
	sch := rel.Schema.Unqualify()
	if err := CheckStoredNames(sch.Names()); err != nil {
		return nil, err
	}
	return rel.WithSchema(sch), nil
}

// CheckStoredNames refuses to store a query answer under the column names
// names when two of them are one name.
func CheckStoredNames(names []string) error {
	seen := map[string]bool{}
	for _, n := range names {
		key := strings.ToLower(n)
		if seen[key] {
			return fmt.Errorf("cannot materialize result with duplicate column name %q", n)
		}
		seen[key] = true
	}
	return nil
}
