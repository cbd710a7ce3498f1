package wsd

// Statement-level query execution over the decomposition: compiled plans
// (through the process-wide shared plan cache), component-touch analysis,
// and one run function per routing decision (see route.go). The statement
// executor (exec.go) runs every SELECT form through this file.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"

	"maybms/internal/algebra"
	"maybms/internal/colbatch"
	"maybms/internal/core"
	"maybms/internal/obs"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/sqlparse"
)

// closure selects the world-closing operation applied to a SELECT's
// per-world answers.
type closure int

// The closures.
const (
	closureNone closure = iota
	closurePossible
	closureCertain
	closureConf
	// closureApproxConf is APPROX CONF: exact confidences whenever the
	// exact routing succeeds, with a seeded Monte-Carlo estimate as the
	// escape hatch when the classic path's component merge would exceed
	// MergeLimit (where plain CONF fails with ErrMergeTooBig).
	closureApproxConf
)

// isConf reports whether the closure computes confidences (exactly or
// approximately); such closures require a weighted decomposition.
func (c closure) isConf() bool { return c == closureConf || c == closureApproxConf }

// Errors reported by statement execution.
var (
	// ErrPerWorld reports a plain SELECT (no closure) whose answer varies
	// across worlds: the compact representation cannot enumerate per-world
	// answers without expanding.
	ErrPerWorld = errors.New("per-world answers over uncertain relations (close with possible, certain or conf)")
)

// stripClosure splits an I-SQL SELECT into its plain-SQL core and the
// closure it requests. It rejects multiple conf items and conf combined
// with a quantifier; repair/choice/assert/group-worlds-by are not this
// function's business and must be handled (or rejected) by the caller.
func stripClosure(st *sqlparse.SelectStmt) (*sqlparse.SelectStmt, closure, error) {
	cl := closureNone
	switch st.Quantifier {
	case sqlparse.QuantPossible:
		cl = closurePossible
	case sqlparse.QuantCertain:
		cl = closureCertain
	}
	items := make([]sqlparse.SelectItem, 0, len(st.Items))
	for _, it := range st.Items {
		if ce, ok := it.Expr.(sqlparse.ConfExpr); ok {
			if cl.isConf() {
				return nil, 0, fmt.Errorf("at most one conf item is allowed")
			}
			if cl != closureNone {
				return nil, 0, fmt.Errorf("conf cannot be combined with %s", st.Quantifier)
			}
			if ce.Approx {
				cl = closureApproxConf
			} else {
				cl = closureConf
			}
			continue
		}
		items = append(items, it)
	}
	core := *st
	core.Quantifier = sqlparse.QuantNone
	core.Items = items
	return &core, cl, nil
}

// Merge and approx cardinality telemetry, exposed on /metrics beside the
// per-route counters (route.go).
var (
	mergeAlternatives = obs.Default().Histogram("maybms_merge_alternatives",
		"Alternatives produced by component merges on the classic path.", obs.CardinalityBuckets)
	approxSamples = obs.Default().Counter("maybms_approx_samples_total",
		"Monte-Carlo world samples drawn by APPROX CONF.")
)

// schemaCatalog exposes the decomposition's relation schemas (over empty
// relations) as a compile target: planning needs names and columns only,
// and the compiled template is stripped of tuples anyway.
func (d *WSD) schemaCatalog() plan.Catalog {
	return plan.CatalogFunc(func(name string) (*relation.Relation, error) {
		sch, err := d.Schema(name)
		if err != nil {
			return nil, err
		}
		return relation.New(sch), nil
	})
}

// SchemaFingerprint hashes the decomposition's catalog shape, mirroring
// world.SchemaFingerprint for the compact engine: it keys the process-wide
// shared plan cache, so compact sessions over identical schemas share
// compiled templates.
func (d *WSD) SchemaFingerprint() uint64 {
	h := fnv.New64a()
	for _, n := range d.Names() { // sorted
		sch, _ := d.Schema(n)
		fmt.Fprintf(h, "%s=%s;", strings.ToLower(n), sch)
	}
	return h.Sum64()
}

// evaluator binds a compiled template per catalog and drains it into a
// CollectBatch result, in the form colbatch picked for it; nothing here
// sets it. A bind cannot fail for want of a table or a column:
// prepared compiled the template (or, from the cache, validated it) against
// the very schemas every catalog here serves (schemaCatalog, partsCatalog
// and deltaCatalog read d.schemas).
//
// part is the Σ-alternatives routes' partQuery (componentwise.go): the
// certain-only answer Q(cert), or the tagged delta of a delta catalog's
// alternatives (deltas, the statement's plan.Deltas) — neither reads a
// table's full instance. The merge route binds batch over each merged
// alternative's full instance instead (mergedParts). Every bind takes the
// statement's memo, so Q(cert) and the delta hash one table of a certain
// build side, and the merged alternatives evaluate an uncorrelated
// subquery once each, not once per row.
type evaluator struct {
	d      *WSD
	prep   *plan.Prepared
	deltas *plan.Deltas
	memo   *plan.Memo
	sel    *sqlparse.SelectStmt
}

func (e evaluator) batch(cat plan.Catalog) (*colbatch.Batch, error) {
	op, err := e.prep.Bind(cat, e.memo)
	if err != nil {
		return nil, err
	}
	return algebra.CollectBatch(op, core.StatementCtx(e.d.interrupt, e.d.trace))
}

func (e evaluator) part(cat plan.PartsCatalog, delta bool) (*colbatch.Batch, error) {
	if !delta {
		return e.batch(plan.CatalogFunc(cat.Certain))
	}
	op, err := e.deltas.Bind(cat, e.memo)
	if err != nil {
		return nil, err
	}
	return algebra.CollectBatch(op, core.StatementCtx(e.d.interrupt, e.d.trace))
}

// prepared compiles sel once — through the process-wide shared plan cache,
// keyed like the naive engine's templates — and returns the template plus
// the evaluator that binds it per catalog, for this one statement.
func (d *WSD) prepared(sel *sqlparse.SelectStmt) (*plan.Prepared, evaluator, error) {
	compileCat := d.schemaCatalog()
	prep, err := plan.Cached(plan.SharedCache(), d.trace, &d.lookups,
		fmt.Sprintf("cq\x00%s\x00%x", sel.String(), d.SchemaFingerprint()),
		func(p *plan.Prepared) error { _, err := p.Bind(compileCat, nil); return err },
		func() (*plan.Prepared, error) { return plan.Prepare(sel, compileCat) })
	if err != nil {
		return nil, evaluator{}, err
	}
	return prep, evaluator{d: d, prep: prep, deltas: prep.Deltas(), memo: new(plan.Memo), sel: sel}, nil
}

// assertStmt filters the world-set by an ASSERT condition (an I-SQL-free
// boolean expression). The condition compiles once through the process-wide
// shared plan cache — keyed like SELECT templates, under a distinct prefix
// — and is bound per alternative of the merged involved components, through
// one memo, with the interrupt hook threaded into its subquery evaluations. The uncertain
// relations the condition reads are derived from the condition itself.
func (d *WSD) assertStmt(e sqlparse.Expr) error {
	touching := sqlparse.ReferencedTables(&sqlparse.SelectStmt{Where: e, Limit: -1})
	compileCat := d.schemaCatalog()
	pp, err := plan.Cached(plan.SharedCache(), d.trace, &d.lookups,
		fmt.Sprintf("ca\x00%s\x00%x", e.String(), d.SchemaFingerprint()),
		func(p *plan.PreparedPredicate) error { _, err := p.Bind(compileCat, nil, nil); return err },
		func() (*plan.PreparedPredicate, error) { return plan.PreparePredicate(e, compileCat) })
	if err != nil {
		return err
	}
	var memo plan.Memo
	outer := core.StatementCtx(d.interrupt, d.trace)
	return d.assert(touching, func(cat plan.Catalog) (bool, error) {
		pred, err := pp.Bind(cat, outer, &memo)
		if err != nil {
			return false, err
		}
		return pred()
	})
}

// analyze runs the planner's component-touch analysis on a compiled
// template against this decomposition (component IDs are indexes into the
// component list, valid until the next restructuring operation).
func (d *WSD) analyze(prep *plan.Prepared) (*plan.ComponentAnalysis, error) {
	return prep.Analyze(plan.ComponentCatalogFunc(d.componentsFor))
}

// selectClosure evaluates the plain-SQL core of a SELECT under the given
// closure, against the represented world-set, on the route route picks (see
// its comment for the rules): one evaluation, per-alternative closures with
// no merge, a bounded merge of exactly the involved components, the
// Monte-Carlo estimate, or a refusal that merges nothing.
//
// A closed answer is a set: every route returns the same tuples (and
// confidences) as the naive engine's closure over the expanded world-set,
// listed in representation order (fold.go) — on the merge route that of the
// merged component, whose parts are its alternatives' full answers.
func (d *WSD) selectClosure(core *sqlparse.SelectStmt, cl closure) (*relation.Relation, error) {
	prep, ev, err := d.prepared(core)
	if err != nil {
		return nil, err
	}
	asp := d.trace.Begin("analyze")
	an, err := d.analyze(prep)
	if err != nil {
		asp.End(d.trace)
		return nil, err
	}
	asp.Set("components", len(an.Comps))
	asp.Set("decomposable", an.Decomposable)
	asp.End(d.trace)

	dec := d.route(core, an, cl, false)
	d.noteRoute(dec.kind)
	return d.run(dec, an.Comps, ev, cl)
}

// run answers a statement on the route dec, route's decision for it: one run
// function per kind, the refusal's error for routeRefused.
func (d *WSD) run(dec decision, comps []int, ev evaluator, cl closure) (*relation.Relation, error) {
	switch dec.kind {
	case routeSingle:
		return d.runSingle(comps, ev, cl)
	case routeComponentwise, routeCondFold:
		return d.runFold(comps, dec, ev.part, cl)
	case routeCondRelation:
		return d.runConditionalRelation(comps, dec, ev)
	case routeMerge:
		return d.runMerge(comps, ev, cl)
	case routeApproxMC:
		return d.confMonteCarlo(comps, ev.batch)
	default:
		return nil, dec.err
	}
}

// runSingle evaluates the one world there is — every listed component (none
// for a world-independent core) at its only alternative — and closes over
// that single answer as the fold's certain slot: every closure is (at most) a
// dedup of it.
func (d *WSD) runSingle(comps []int, ev evaluator, cl closure) (*relation.Relation, error) {
	sp := d.trace.Begin("eval")
	defer sp.End(d.trace)
	res, err := ev.batch(newPartsCatalog(d, firstWorld(comps)))
	if err != nil {
		return nil, err
	}
	if cl == closureNone {
		return relation.FromBatch(res), nil
	}
	return d.newClosureFold(nil, nil, nil, res).close(cl, res.Schema)
}

// evalParts runs the evaluations of the Σ-alternatives routes — certain-only
// plus one tagged delta, over the whole trees comps belong to (a flat
// component is a tree of one node) — under the span and the session counter
// named after dec's route. No merge, and no world is evaluated.
func (d *WSD) evalParts(comps []int, dec decision, query partQuery) (*componentParts, error) {
	sp := d.trace.Begin(dec.kind.String())
	defer sp.End(d.trace)
	sp.Set("components", len(comps))
	counter := &d.componentwise
	if dec.kind != routeComponentwise {
		sp.Set("conditional_splits", dec.nested)
		counter = &d.conditional
	}
	parts, err := d.queryByComponent(d.rootClosure(comps), query, sp)
	if err != nil {
		return nil, err
	}
	counter.Add(1)
	return parts, nil
}

// runFold is the merge-free closure, over flat components and d-trees alike:
// the evaluated parts closed by the one fold (fold.go), which also lists the
// answer. A single component is handled by the same code — there the merge
// path would not have merged either, but the parts path also skips the (noop)
// restructuring.
func (d *WSD) runFold(comps []int, dec decision, query partQuery, cl closure) (*relation.Relation, error) {
	parts, err := d.evalParts(comps, dec, query)
	if err != nil {
		return nil, err
	}
	csp := d.trace.Begin("closure")
	defer csp.End(d.trace)
	return d.closeParts(parts, cl)
}

// runConditionalRelation answers a plain SELECT over a concat-structured
// plan as a conditional relation (trailing `cond` column; see
// conditionalRelation) instead of refusing.
func (d *WSD) runConditionalRelation(comps []int, dec decision, ev evaluator) (*relation.Relation, error) {
	parts, err := d.evalParts(comps, dec, ev.part)
	if err != nil {
		return nil, err
	}
	return d.conditionalRelation(parts)
}

// runMerge is the classic path: merge exactly the involved components
// (bounded partial expansion — route has checked the size), evaluate each
// merged alternative's full answer as its part, close with the fold.
func (d *WSD) runMerge(comps []int, ev evaluator, cl closure) (*relation.Relation, error) {
	msp := d.trace.Begin("merge_eval")
	msp.Set("components", len(comps))
	mi, err := d.mergeFitting(comps)
	var parts *componentParts
	if err == nil {
		parts, err = d.mergedParts(mi, ev)
	}
	if err != nil {
		msp.End(d.trace)
		return nil, err
	}
	alts := len(parts.parts)
	mergeAlternatives.Observe(float64(alts))
	msp.Set("alternatives", alts)
	msp.Set("merge_limit", d.MergeLimit)
	msp.End(d.trace)
	csp := d.trace.Begin("closure")
	defer csp.End(d.trace)
	return d.closeParts(parts, cl)
}

// createTableAs materializes the plain-SQL core of a SELECT as relation
// dst. A core touching no component becomes a certain relation; a
// concat-structured core is stored componentwise (certain part plus
// per-alternative contributions — no merge, linear size); anything else
// merges the involved components and stores, the same way, each merged
// alternative's full answer as its contribution.
func (d *WSD) createTableAs(dst string, core *sqlparse.SelectStmt) error {
	prep, ev, err := d.prepared(core)
	if err != nil {
		return err
	}
	an, err := d.analyze(prep)
	if err != nil {
		return err
	}
	switch dec := d.route(core, an, closureNone, true); dec.kind {
	case routeSingle:
		res, err := ev.batch(newPartsCatalog(d, nil))
		if err != nil {
			return err
		}
		return d.PutCertain(dst, relation.FromBatch(res.WithSchema(res.Schema.Unqualify())))
	case routeComponentwise:
		parts, err := d.queryByComponent(an.Comps, ev.part, nil)
		if err != nil {
			return err
		}
		if err := d.materializeByComponent(dst, parts); err != nil {
			return err
		}
		d.componentwise.Add(1)
		return nil
	case routeRefused:
		return dec.err
	}
	mi, err := d.mergeComponents(an.Comps)
	if err != nil {
		return err
	}
	parts, err := d.mergedParts(mi, ev)
	if err != nil {
		return err
	}
	return d.materializeByComponent(dst, parts)
}

// splitQuery creates dst by split — repairByKey or choiceOf, over cols and
// weight — of a plain-SQL source query: REPAIR BY KEY or CHOICE OF over a
// filtered or projected source. The source is materialized transiently
// (componentwise when its plan decomposes, so an uncertain source's
// contributions ride the feeding alternatives) and the usual split applies:
// each feeding alternative nests its conditional key-group repairs as child
// components. The transient source is removed afterwards; only dst remains.
// A failed split leaves no transient source: the runner's snapshot undoes
// the whole statement.
//
// The naive engine splits the FROM/WHERE rows and projects per world
// afterwards, so the key and weight may name source columns outside the
// select list (`select A, B, C from R repair by key A weight D`). A plain
// projection commutes with the split, so materializing project-then-split
// gives the same worlds — any key/weight column missing from the select
// list is carried through the transient materialization and stripped from
// dst after the split.
func (d *WSD) splitQuery(core *sqlparse.SelectStmt, dst string, cols []string, weight string, split func(src, dst string, cols []string, weight string) error) error {
	tmp, extra, err := d.materializeSource(core, dst, append(append([]string{}, cols...), weight))
	if err != nil {
		return err
	}
	if err := split(tmp, dst, cols, weight); err != nil {
		return err
	}
	if extra > 0 {
		d.projectOutTrailing(dst, extra)
	}
	return d.drop(tmp)
}

// splitSourceBlocker names the construct that stops a repair/choice query
// source from commuting with the split, or "" when the source is
// split-safe. The split applies to the source *rows* (the naive engine
// splits the FROM/WHERE intermediate and evaluates the rest per world), so
// a row-wise projection can be materialized first with identical worlds —
// but constructs that look across rows cannot, and are refused rather than
// silently answered with different worlds than the naive engine.
func splitSourceBlocker(core *sqlparse.SelectStmt) string {
	switch {
	case core.Distinct:
		return "DISTINCT"
	case len(core.GroupBy) > 0:
		return "GROUP BY"
	case core.Having != nil:
		return "HAVING"
	case core.Union != nil:
		return "UNION"
	case len(core.OrderBy) > 0:
		return "ORDER BY"
	case core.Limit >= 0:
		return "LIMIT"
	}
	for _, it := range core.Items {
		if exprAggregates(it.Expr) {
			return "aggregates"
		}
	}
	return ""
}

// exprAggregates reports whether e applies an aggregate to the statement's
// own rows. Subqueries don't count: their aggregates close over their own
// FROM, so the enclosing item stays row-wise.
func exprAggregates(e sqlparse.Expr) bool {
	switch n := e.(type) {
	case sqlparse.FuncCall:
		return true // the dialect's only functions are the aggregates
	case sqlparse.BinaryExpr:
		return exprAggregates(n.L) || exprAggregates(n.R)
	case sqlparse.UnaryExpr:
		return exprAggregates(n.E)
	case sqlparse.IsNullExpr:
		return exprAggregates(n.E)
	}
	return false
}

// materializeSource stores a split statement's query source under a
// transient name derived from dst, after verifying dst itself is free and
// that the source commutes with the split. Columns in need that the select
// list doesn't expose are appended to the materialized projection; the
// returned count tells the caller how many trailing columns to strip from
// the split result.
func (d *WSD) materializeSource(core *sqlparse.SelectStmt, dst string, need []string) (string, int, error) {
	if _, ok := d.schemas[key(dst)]; ok {
		return "", 0, fmt.Errorf("%w: %s", ErrExists, dst)
	}
	tmp := "__src__" + dst
	if _, ok := d.schemas[key(tmp)]; ok {
		return "", 0, fmt.Errorf("%w: %s", ErrExists, tmp)
	}
	q, extra := extendProjection(core, need)
	if err := d.createTableAs(tmp, q); err != nil {
		return "", 0, err
	}
	return tmp, extra, nil
}

// extendProjection returns core with every column of need missing from its
// select list appended as a trailing item, plus the number appended. A
// star item exposes the source columns already, so nothing is appended.
func extendProjection(core *sqlparse.SelectStmt, need []string) (*sqlparse.SelectStmt, int) {
	outs := map[string]bool{}
	for _, it := range core.Items {
		if _, ok := it.Expr.(sqlparse.Star); ok {
			return core, 0
		}
		switch {
		case it.Alias != "":
			outs[strings.ToLower(it.Alias)] = true
		default:
			if cr, ok := it.Expr.(sqlparse.ColumnRef); ok {
				outs[strings.ToLower(cr.Name)] = true
			}
		}
	}
	q := *core
	q.Items = append([]sqlparse.SelectItem{}, core.Items...)
	extra := 0
	for _, col := range need {
		if col == "" || outs[strings.ToLower(col)] {
			continue
		}
		outs[strings.ToLower(col)] = true
		q.Items = append(q.Items, sqlparse.SelectItem{Expr: sqlparse.ColumnRef{Name: col}})
		extra++
	}
	return &q, extra
}

// projectOutTrailing drops relation name's last n columns everywhere it is
// stored — schema, certain part, every alternative's contribution. Used to
// strip the key/weight columns a split carried through the transient
// source beyond the statement's own select list.
func (d *WSD) projectOutTrailing(name string, n int) {
	k := key(name)
	sch := d.schemas[k]
	keep := make([]int, sch.Len()-n)
	for i := range keep {
		keep[i] = i
	}
	d.schemas[k] = sch.Project(keep)
	if r, ok := d.certain[k]; ok {
		d.certain[k] = relation.FromBatch(r.Batch().Project(keep, d.schemas[k]))
	}
	for _, ci := range d.componentsFor(name) {
		c := d.own(ci)
		for i := range c.Alts {
			if contrib, ok := c.Alts[i].Contrib[k]; ok {
				c.Alts[i].Contrib[k] = relation.FromBatch(contrib.Batch().Project(keep, d.schemas[k]))
			}
		}
	}
}

// createTableAsClosure materializes `SELECT <closure core> [GROUP WORLDS
// BY (gw)]` as relation dst — the statement form the naive engine runs as
// CREATE TABLE AS over a closed (and possibly world-grouped) query.
//
// Without grouping the closed answer is world-independent by definition,
// so dst becomes a certain relation holding the closure (computed with
// the usual routing: componentwise for decomposable plans, bounded merge
// otherwise). With GROUP WORLDS BY every world's dst instance is its
// group's closed answer; the result is stored factorized — one copy per
// group, referenced by each alternative of the (possibly merged) grouping
// component (see materializeGrouped).
func (d *WSD) createTableAsClosure(dst string, core *sqlparse.SelectStmt, cl closure, gw *sqlparse.SelectStmt) error {
	if _, ok := d.schemas[key(dst)]; ok {
		return fmt.Errorf("%w: %s", ErrExists, dst)
	}
	if gw != nil {
		return d.materializeGrouped(dst, gw, core, cl)
	}
	rel, err := d.selectClosure(core, cl)
	if err != nil {
		return err
	}
	return d.PutCertain(dst, rel.WithSchema(rel.Schema.Unqualify()))
}
