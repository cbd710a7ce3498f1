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
	"maps"
	"sort"

	"maybms/internal/colbatch"
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
		func(p *plan.PreparedDML) error { _, err := p.Bind(compileCat, nil); return err },
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
// component first, so its rows count once per merged alternative.
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
	// alternative's contribution; store it so, per alternative, in fresh
	// contribution maps — a failed rewrite puts the target back as it was.
	k := key(table)
	cert, alts := d.certain[k], d.comps[mi].Alts
	var saved []Alternative
	if cert != nil {
		saved = append(saved, alts...)
		for i := range alts {
			content := colbatch.New(d.schemas[k])
			content.AppendBatch(cert.Batch())
			if c := alts[i].Contrib[k]; c != nil {
				content.AppendBatch(c.Batch())
			}
			alts[i].Contrib = maps.Clone(alts[i].Contrib)
			if alts[i].Contrib == nil {
				alts[i].Contrib = map[string]*relation.Relation{}
			}
			alts[i].Contrib[k] = relation.FromBatch(content)
		}
		delete(d.certain, k)
	}
	n, err := d.rewritePieces(table, tmpl)
	if err != nil && cert != nil {
		copy(alts, saved)
		d.certain[k] = cert
	}
	return n, err
}

// sortedUniqueInts deduplicates and sorts component indexes.
func sortedUniqueInts(idx []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, i := range idx {
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// rewritePieces applies the row rewrite to every piece of the target
// relation separately: the certain part once, and each alternative's
// contribution of each component feeding the target once, polling the
// interrupt hook before each piece — with no merge and the component
// structure (sizes, probabilities) unchanged. A piece is a stored relation,
// rewritten over its batch; a piece no row of which matches is kept as it
// is. Nothing is stored until every piece has been rewritten. Each piece
// binds the expressions in its own worlds (the certain part over the
// certain database, a contribution with its alternative selected): the same
// answers for world-independent expressions, the merged alternative's for
// expressions over uncertain relations.
func (d *WSD) rewritePieces(table string, tmpl *plan.PreparedDML) (int, error) {
	k := key(table)
	target := d.componentsFor(table)

	// Flatten the pieces: index 0 is the certain part (when present), the
	// rest are (component, alternative) contributions.
	type piece struct {
		ci, alt int                // ci < 0 marks the certain part
		rel     *relation.Relation // nil: the alternative contributes nothing
	}
	var pieces []piece
	if cert, ok := d.certain[k]; ok {
		pieces = append(pieces, piece{ci: -1, rel: cert})
	}
	for _, ci := range target {
		for a := range d.comps[ci].Alts {
			pieces = append(pieces, piece{ci: ci, alt: a, rel: d.comps[ci].Alts[a].Contrib[k]})
		}
	}

	outs := make([]*relation.Relation, len(pieces))
	total := 0
	for i, p := range pieces {
		if err := d.interrupted(); err != nil {
			return 0, err
		}
		// Each piece binds its own instance under its own selection.
		var sel map[int]int
		if p.ci >= 0 {
			sel = map[int]int{p.ci: p.alt}
		}
		bound, err := tmpl.Bind(newPartsCatalog(d, sel), d.interrupt)
		if err != nil {
			return 0, err
		}
		outs[i] = p.rel
		if p.rel == nil {
			continue
		}
		out, n, err := bound.Apply(p.rel.Batch())
		if err != nil {
			return 0, err
		}
		if n > 0 {
			outs[i] = relation.FromBatch(out.WithSchema(d.schemas[k]))
		}
		total += n
	}

	for i, p := range pieces {
		switch {
		case p.ci < 0:
			d.certain[k] = outs[i]
		case outs[i].Len() == 0:
			delete(d.comps[p.ci].Alts[p.alt].Contrib, k)
		default:
			d.comps[p.ci].Alts[p.alt].Contrib[k] = outs[i]
		}
	}
	return total, nil
}
