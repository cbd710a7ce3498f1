package wsd

// UPDATE/DELETE over the decomposition: one piece rewrite. The naive engine
// runs a DML statement's row rewrite in every world; the compact engine
// cannot enumerate worlds, but the rewrite distributes over the certain ∪
// per-component structure whenever the SET/WHERE expressions read no
// uncertain data (their subqueries touch no component, certified by the
// planner's component-touch analysis on the compiled templates):
//
//	rewrite(cert ∪ a_c1 ∪ … ∪ a_ck) = rewrite(cert) ∪ rewrite(a_c1) ∪ …
//
// because the rewrite is tuple-at-a-time and row order is the certain
// prefix followed by contributions in component order on both sides. The
// certain part is rewritten once and each alternative's contribution once
// — Σ component sizes pieces, no merge, the decomposition untouched. A
// piece is a stored relation, rewritten over its batch by plan's
// BoundDML.Apply: an imported (columnar) piece stays columnar and shares
// its untouched columns with the rewritten one, and a piece where nothing
// matches stays the relation it was.
//
// When the expressions do touch components (a WHERE or SET subquery over
// an uncertain relation), each row's fate is coupled to those components'
// choices: the involved components — the expressions' plus the ones
// feeding the target — merge into one (the usual bounded partial
// expansion), the target's certain part moves into every merged
// alternative ahead of its contribution (one batch concatenation per
// alternative), and the same piece rewrite runs, each piece binding the
// expressions under its own alternative. Either way the per-world outcome
// is tuple-for-tuple what the naive engine computes in the corresponding
// world.

import (
	"fmt"
	"slices"

	"maybms/internal/colbatch"
	"maybms/internal/core"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/sqlparse"
)

// dmlTemplate compiles an UPDATE or DELETE of table once, through the
// process-wide plan cache, against the decomposition's schemas. EXPLAIN runs
// it too, so an explained statement's execution hits the cache.
func (d *WSD) dmlTemplate(st sqlparse.Statement, table string) (*plan.PreparedDML, error) {
	sch, err := d.Schema(table)
	if err != nil {
		return nil, err
	}
	compileCat := d.schemaCatalog()
	return plan.Cached(plan.SharedCache(), d.trace, &d.lookups,
		fmt.Sprintf("cdml\x00%s\x00%x", st.String(), d.SchemaFingerprint()),
		func(p *plan.PreparedDML) error { _, err := p.Bind(compileCat, nil, nil); return err },
		func() (*plan.PreparedDML, error) {
			if u, ok := st.(*sqlparse.Update); ok {
				return plan.PrepareUpdateStmt(u, sch, compileCat)
			}
			return plan.PrepareDeleteStmt(st.(*sqlparse.Delete), sch, compileCat)
		})
}

// applyDML applies an UPDATE or DELETE of table to the represented
// world-set without enumerating it: the piece rewrite directly when the
// expressions are world-independent, else after the bounded merge of the
// involved components has moved the target's certain part into the merged
// component. It returns the number of representation rows changed — not a
// per-world count, which can be astronomically large. On the piece-rewrite
// path certain rows count once and a contributed row once per alternative
// holding it; on the merge path the certain part folds into the merged
// component first, so its rows count once per merged alternative. A failed
// rewrite is undone, merge included, by the runner's snapshot.
func (d *WSD) applyDML(st sqlparse.Statement, table string) (int, error) {
	tmpl, err := d.dmlTemplate(st, table)
	if err != nil {
		return 0, err
	}
	exprComps, err := tmpl.Components(plan.ComponentCatalogFunc(d.componentsFor))
	if err != nil {
		return 0, err
	}
	if len(exprComps) == 0 {
		n, err := d.rewritePieces(table, tmpl)
		if err != nil {
			return 0, err
		}
		d.componentwise.Add(1)
		return n, nil
	}
	mi, err := d.mergeComponents(sortedUniqueInts(append(exprComps, d.componentsFor(table)...)))
	if err != nil {
		return 0, err
	}
	// Every world's target is its certain prefix followed by the merged
	// alternative's contribution; store it so, per alternative.
	k := key(table)
	if cert := d.certain[k]; cert != nil {
		merged := d.own(mi)
		for _, a := range merged.Alts {
			content := colbatch.New(d.schemas[k])
			content.AppendBatch(cert.Batch())
			if c := a.Contrib[k]; c != nil {
				content.AppendBatch(c.Batch())
			}
			a.Contrib[k] = relation.FromBatch(content)
		}
		delete(d.certain, k)
	}
	return d.rewritePieces(table, tmpl)
}

// sortedUniqueInts returns component indexes sorted and deduplicated, in a
// new slice.
func sortedUniqueInts(idx []int) []int {
	out := slices.Clone(idx)
	slices.Sort(out)
	return slices.Compact(out)
}

// rewritePieces applies the row rewrite to every piece of the target
// relation separately: the certain part once, and each alternative's
// contribution of each component feeding the target once, polling the
// interrupt hook before each piece — with no merge and the component
// structure (sizes, probabilities) unchanged. A piece is a stored relation,
// rewritten over its batch and stored as soon as it is rewritten; a piece no
// row of which matches is kept as it is. Each piece binds the expressions in
// its own worlds (the certain part over the certain database, a
// contribution with its alternative selected): the same answers for
// world-independent expressions, the merged alternative's for expressions
// over uncertain relations. Storing each piece as it is rewritten changes
// no binding: the expressions read the target only where it is one piece
// (no component feeds it) or, on the merge path, through the one merged
// alternative being rewritten, so no piece is read after it is stored. The
// binds share one memo, so an uncorrelated subquery over the same
// relations runs once for all the pieces; a stored piece is a new relation,
// so no entry outlives the data it was computed from.
func (d *WSD) rewritePieces(table string, tmpl *plan.PreparedDML) (int, error) {
	k := key(table)
	total := 0
	var memo plan.Memo
	outer := core.StatementCtx(d.interrupt, d.trace)
	// rewrite rewrites one piece, bound under sel, and returns what to store:
	// the piece itself when nothing matched.
	rewrite := func(rel *relation.Relation, sel map[int]int) (*relation.Relation, error) {
		if err := d.interrupted(); err != nil {
			return nil, err
		}
		bound, err := tmpl.Bind(newPartsCatalog(d, sel), outer, &memo)
		if err != nil || rel == nil {
			return rel, err
		}
		out, n, err := bound.Apply(rel.Batch())
		if err != nil || n == 0 {
			return rel, err
		}
		total += n
		return relation.FromBatch(out.WithSchema(d.schemas[k])), nil
	}
	if cert, ok := d.certain[k]; ok {
		out, err := rewrite(cert, nil)
		if err != nil {
			return 0, err
		}
		d.certain[k] = out
	}
	for _, ci := range d.componentsFor(table) {
		c := d.own(ci)
		for a := range c.Alts {
			out, err := rewrite(c.Alts[a].Contrib[k], map[int]int{ci: a})
			switch {
			case err != nil:
				return 0, err
			case out.Len() == 0:
				delete(c.Alts[a].Contrib, k)
			default:
				c.Alts[a].Contrib[k] = out
			}
		}
	}
	return total, nil
}
