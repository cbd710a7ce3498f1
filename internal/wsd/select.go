package wsd

// Statement-level query execution over the decomposition: compiled plans
// (through the process-wide shared plan cache), component-touch analysis,
// and one run function per routing decision (see route.go). The statement
// executor (exec.go) runs every SELECT form through this file.

import (
	"errors"
	"slices"
	"strings"

	"maybms/internal/algebra"
	"maybms/internal/colbatch"
	"maybms/internal/core"
	"maybms/internal/expr"
	"maybms/internal/obs"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
)

// Errors reported by statement execution.
var (
	// ErrPerWorld reports a plain SELECT (no closure) whose answer varies
	// across worlds: the compact representation cannot enumerate per-world
	// answers without expanding.
	ErrPerWorld = errors.New("per-world answers over uncertain relations (close with possible, certain or conf)")
)

// Merge and approx cardinality telemetry, exposed on /metrics beside the
// per-route counters (route.go).
var (
	mergeAlternatives = obs.Default().Histogram("maybms_merge_alternatives",
		"Alternatives produced by component merges on the classic path.", obs.CardinalityBuckets)
	approxSamples = obs.Default().Counter("maybms_approx_samples_total",
		"Monte-Carlo world samples drawn by APPROX CONF.")
)

// schemaCatalog exposes the decomposition's relation schemas (over bare,
// empty relations) as the catalog templates compile and are checked
// against: both need names and columns only.
func (d *WSD) schemaCatalog() plan.Catalog {
	return plan.CatalogFunc(func(name string) (*relation.Relation, error) {
		sch, err := d.Schema(name)
		if err != nil {
			return nil, err
		}
		return &relation.Relation{Schema: sch}, nil
	})
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
// subquery once each, not once per row. Every drain runs under the
// statement's one outer context, which evaluations only read.
type evaluator struct {
	d      *WSD
	prep   *plan.Prepared
	deltas *plan.Deltas
	memo   *plan.Memo
	ctx    *expr.Context
	sel    *sqlparse.SelectStmt
}

func (e evaluator) batch(cat plan.Catalog) (*colbatch.Batch, error) {
	op, err := e.prep.Bind(cat, e.memo)
	if err != nil {
		return nil, err
	}
	return algebra.CollectBatch(op, e.ctx)
}

func (e evaluator) part(cat plan.PartsCatalog, delta bool) (*colbatch.Batch, error) {
	if !delta {
		return e.batch(plan.CatalogFunc(cat.Certain))
	}
	op, err := e.deltas.Bind(cat, e.memo)
	if err != nil {
		return nil, err
	}
	return algebra.CollectBatch(op, e.ctx)
}

// prepared compiles sel once — through the process-wide shared plan cache,
// keyed like the naive engine's templates — and returns the template plus
// the evaluator that binds it per catalog, for this one statement.
func (d *WSD) prepared(sel *sqlparse.SelectStmt) (*plan.Prepared, evaluator, error) {
	compileCat := d.schemaCatalog()
	prep, err := plan.Cached(plan.SharedCache(), d.trace, &d.lookups, "cq\x00"+sel.String(), compileCat,
		func() (*plan.Prepared, error) { return plan.Prepare(sel, compileCat) })
	if err != nil {
		return nil, evaluator{}, err
	}
	return prep, evaluator{d: d, prep: prep, deltas: prep.Deltas(), memo: new(plan.Memo),
		ctx: core.StatementCtx(d.interrupt, d.trace), sel: sel}, nil
}

// analyze runs the planner's component-touch analysis on a compiled
// template against this decomposition (component IDs are indexes into the
// component list, valid until the next restructuring operation).
func (d *WSD) analyze(prep *plan.Prepared) (*plan.ComponentAnalysis, error) {
	return prep.Analyze(plan.ComponentCatalogFunc(d.componentsFor))
}

// routeQuery compiles and analyzes the plain-SQL core of a SELECT form and
// decides (routeCore) how it is answered under closure cl — or, with dst
// set, stored as relation dst; the run answers it on that route. A closed
// answer is a set: every route returns the naive engine's tuples (and
// confidences), listed in representation order (fold.go).
func (d *WSD) routeQuery(q *sqlparse.SelectStmt, cl core.Closure, dst string) (decision, func() (*relation.Relation, error), error) {
	prep, ev, err := d.prepared(q)
	if err != nil {
		return decision{}, nil, err
	}
	asp := d.trace.Begin("analyze")
	an, err := d.analyze(prep)
	if err != nil {
		asp.End(d.trace)
		return decision{}, nil, err
	}
	asp.Set("components", len(an.Comps))
	asp.Set("decomposable", an.Decomposable)
	asp.End(d.trace)
	dec := d.routeCore(q, an, cl, dst != "" && cl == core.ClosureNone)
	if conv, ok := d.routeConvolution(an, cl, ev); ok {
		dec = conv
	}
	return dec, func() (*relation.Relation, error) {
		if dst != "" && cl == core.ClosureNone {
			// dst stores the select list, which the naive engine refuses
			// to store under one name twice (a closed answer is checked
			// once evaluated, with its conf column).
			if err := core.CheckStoredNames(prep.Schema().Names()); err != nil {
				return nil, err
			}
		}
		return d.run(dec, ev, cl, dst)
	}, nil
}

// run answers a statement on the route dec, routeCore's decision for it —
// or, with dst set, stores as relation dst its per-world answers, or its
// closed answer as a certain relation: one run function per kind, the
// refusal's error for routeRefused.
func (d *WSD) run(dec decision, ev evaluator, cl core.Closure, dst string) (*relation.Relation, error) {
	if dst != "" && cl != core.ClosureNone {
		rel, err := d.run(dec, ev, cl, "")
		if err == nil {
			err = core.CheckStoredNames(rel.Schema.Names())
		}
		if err == nil {
			err = d.PutCertain(dst, rel.WithSchema(rel.Schema.Unqualify()))
		}
		return nil, err
	}
	var parts *componentParts
	var err error
	switch dec.kind {
	case routeSingle:
		return d.runSingle(dec.comps, ev, cl, dst)
	case routeComponentwise, routeCondFold, routeCondRelation:
		parts, err = d.evalParts(dec, ev.part)
	case routeConvolution:
		return d.runConvolution(dec.conv, cl)
	case routeMerge:
		parts, err = d.mergeEval(dec.comps, ev)
	case routeApproxMC:
		return d.confMonteCarlo(dec.comps, ev.batch)
	default:
		return nil, dec.err
	}
	switch {
	case err != nil:
		return nil, err
	case dst != "":
		return nil, d.materializeByComponent(dst, parts)
	case dec.kind == routeCondRelation:
		return d.conditionalRelation(parts)
	}
	csp := d.trace.Begin("closure")
	defer csp.End(d.trace)
	return d.closeParts(parts, cl)
}

// runSingle evaluates the one world there is — every listed component (none
// for a world-independent core) at its only alternative — and closes over
// that single answer as the fold's certain slot: every closure is (at most) a
// dedup of it. A stored answer is a certain relation.
func (d *WSD) runSingle(comps []int, ev evaluator, cl core.Closure, dst string) (*relation.Relation, error) {
	sp := d.trace.Begin("eval")
	defer sp.End(d.trace)
	res, err := ev.batch(newPartsCatalog(d, firstWorld(comps)))
	switch {
	case err != nil:
		return nil, err
	case dst != "":
		return nil, d.PutCertain(dst, relation.FromBatch(res.WithSchema(res.Schema.Unqualify())))
	case cl == core.ClosureNone:
		return relation.FromBatch(res), nil
	}
	return d.newClosureFold(&componentParts{base: res}, nil).close(cl, res.Schema)
}

// evalParts runs the evaluations of the Σ-alternatives routes — certain-only
// plus one tagged delta, over the whole trees dec's components belong to (a
// flat component is a tree of one node) — under the span named after dec's
// route. No merge, and no world is evaluated. The merge-free closure, the
// conditional relation and the componentwise store all read these parts.
func (d *WSD) evalParts(dec decision, query partQuery) (*componentParts, error) {
	sp := d.trace.Begin(dec.kind.String())
	defer sp.End(d.trace)
	sp.Set("components", len(dec.comps))
	if dec.kind != routeComponentwise {
		sp.Set("conditional_splits", d.nestedAmong(dec.trees))
	}
	return d.queryByComponent(dec.trees, query, sp)
}

// mergeEval is the classic path: merge exactly the involved components
// (bounded partial expansion — route has checked the size) and evaluate each
// merged alternative's full answer as its part.
func (d *WSD) mergeEval(comps []int, ev evaluator) (*componentParts, error) {
	msp := d.trace.Begin("merge_eval")
	defer msp.End(d.trace)
	msp.Set("components", len(comps))
	mi, err := d.mergeComponents(comps)
	if err != nil {
		return nil, err
	}
	parts, err := d.mergedParts(mi, ev)
	if err != nil {
		return nil, err
	}
	alts := len(d.comps[mi].Alts)
	mergeAlternatives.Observe(float64(alts))
	msp.Set("alternatives", alts)
	msp.Set("merge_limit", d.MergeLimit)
	return parts, nil
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
	found := false
	sqlparse.Walk(e, func(n sqlparse.Node) bool {
		switch n.(type) {
		case *sqlparse.SelectStmt:
			return false
		case sqlparse.FuncCall:
			found = true // the dialect's only functions are the aggregates
		}
		return !found
	})
	return found
}

// extendProjection maps the FROM/WHERE positions need, of schema fw, to
// columns of core's answer (-1 stays -1): the first column a select item
// reads plainly from that position — a column reference resolving to it, or
// a star's column. A position no item reads gets an item appended to a copy
// of core; extra counts the appended items, which come last.
func extendProjection(core *sqlparse.SelectStmt, fw *schema.Schema, need []int) (q *sqlparse.SelectStmt, pos []int, extra int) {
	var reads []int // per answer column, the FROM/WHERE position it reads (-1: none)
	for _, it := range core.Items {
		switch n := it.Expr.(type) {
		case sqlparse.Star:
			for i := 0; i < fw.Len(); i++ {
				if n.Qualifier == "" || strings.EqualFold(fw.At(i).Qualifier, n.Qualifier) {
					reads = append(reads, i)
				}
			}
		case sqlparse.ColumnRef:
			i, err := fw.Resolve(n.Qualifier, n.Name)
			if err != nil {
				i = -1
			}
			reads = append(reads, i)
		default:
			reads = append(reads, -1)
		}
	}
	q = core
	pos = make([]int, len(need))
	for j, p := range need {
		if pos[j] = p; p < 0 {
			continue
		}
		if pos[j] = slices.Index(reads, p); pos[j] >= 0 {
			continue
		}
		if q == core {
			cp := *core
			cp.Items = slices.Clone(core.Items)
			q = &cp
		}
		a := fw.At(p)
		q.Items = append(q.Items, sqlparse.SelectItem{Expr: sqlparse.ColumnRef{Qualifier: a.Qualifier, Name: a.Name}})
		pos[j], reads = len(reads), append(reads, p)
		extra++
	}
	return q, pos, extra
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
	d.edit()
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
