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
	"slices"

	"maybms/internal/colbatch"
	"maybms/internal/core"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/sqlparse"
)

// dmlTemplate compiles an UPDATE or DELETE once, through the process-wide
// plan cache, against the decomposition's schemas. EXPLAIN runs it too, so
// an explained statement's execution hits the cache.
func (d *WSD) dmlTemplate(st sqlparse.Statement) (*plan.PreparedDML, error) {
	compileCat := d.schemaCatalog()
	return plan.Cached(plan.SharedCache(), d.trace, &d.lookups, "cdml\x00"+st.String(), compileCat,
		func() (*plan.PreparedDML, error) {
			if u, ok := st.(*sqlparse.Update); ok {
				return plan.PrepareUpdateStmt(u, compileCat)
			}
			return plan.PrepareDeleteStmt(st.(*sqlparse.Delete), compileCat)
		})
}

// routeDML decides an UPDATE or DELETE of table, as the top of this file
// describes: one rewrite of a certain table (single), the piece rewrite
// (componentwise), or the merge first (merge). The run reports, after
// format, the representation rows changed — not a per-world count, which can
// be astronomically large: certain rows once and a contributed row once per
// alternative holding it, so on the merge path a certain row once per merged
// alternative. A failed rewrite is undone by the runner's snapshot.
func (d *WSD) routeDML(st sqlparse.Statement, table, format string) (decision, func() (*core.Result, error), error) {
	tmpl, err := d.dmlTemplate(st)
	if err != nil {
		return decision{}, nil, err
	}
	exprComps, err := tmpl.Components(plan.ComponentCatalogFunc(d.componentsFor))
	if err != nil {
		return decision{}, nil, err
	}
	dec := decision{kind: routeSingle}
	switch target := d.componentsFor(table); {
	case len(exprComps) > 0:
		dec = d.mergeDecision(sortedUniqueInts(append(exprComps, target...)))
	case len(target) > 0:
		dec = decision{kind: routeComponentwise, comps: target}
	}
	return dec, func() (*core.Result, error) {
		if dec.kind == routeMerge {
			mi, err := d.mergeComponents(dec.comps)
			if err != nil {
				return nil, err
			}
			k, sch := key(table), d.schemas[key(table)]
			if cert := d.certain[k]; cert != nil {
				for _, a := range d.own(mi).Alts {
					a.Contrib[k] = relation.FromBatch(colbatch.Concat(sch, []colbatch.Part{{B: cert.Batch()}, {B: a.contribution(k, sch)}}))
				}
				delete(d.certain, k)
			}
		}
		n, err := d.rewritePieces(table, tmpl)
		if err != nil {
			return nil, err
		}
		return d.ok(format, n, table, d.WorldCount())
	}, nil
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
		d.edit()
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
