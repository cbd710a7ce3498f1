package wsd

// Routing: the one decision a statement over the decomposition takes. route
// is a pure function of the compiled plan's component analysis, the closure
// and the decomposition's shape — it touches no counter, no trace and no
// component — and everything that needs the decision asks it: selectClosure
// runs the route, explainQuery renders the very same value, createTableAs
// and the per-group closures of GROUP WORLDS BY switch on it. Nothing
// overrides it: the only inputs are what the engine observes.

import (
	"errors"
	"fmt"
	"math"

	"maybms/internal/obs"
	"maybms/internal/plan"
	"maybms/internal/sqlparse"
)

// routeKind names a way of answering a statement.
type routeKind int

const (
	// routeSingle: the answer is the same in every world — one evaluation.
	routeSingle routeKind = iota
	// routeComponentwise: the certain-only answer plus one tagged delta of
	// every alternative of flat components — two evaluations, no merge
	// (componentwise.go).
	routeComponentwise
	// routeCondFold: the same evaluations and the same fold over components
	// arranged in d-trees; it differs in the word it reports.
	routeCondFold
	// routeCondRelation: a plain SELECT answered as a relation with a
	// trailing cond column (conditional.go).
	routeCondRelation
	// routeMerge: bounded partial expansion — merge exactly the involved
	// components (merge.go), evaluate each merged alternative's full answer
	// as its part and close with the fold.
	routeMerge
	// routeApproxMC: APPROX CONF whose merge would exceed MergeLimit — the
	// seeded Monte-Carlo estimate (approx.go).
	routeApproxMC
	// routeRefused: no route answers the statement exactly; decision.err
	// says why.
	routeRefused
)

// routeNames holds, per kind, the word traces, metrics and EXPLAIN print for
// it. Both conditional kinds report as "conditional".
var routeNames = [...]string{
	routeSingle:        "single",
	routeComponentwise: "componentwise",
	routeCondFold:      "conditional",
	routeCondRelation:  "conditional",
	routeMerge:         "merge",
	routeApproxMC:      "approx_mc",
	routeRefused:       "refused",
}

func (k routeKind) String() string { return routeNames[k] }

// routeCounts are the maybms_route_total counters, one per route name,
// incremented once per statement. Exposed on /metrics.
var routeCounts = func() (out [len(routeNames)]*obs.Counter) {
	for k, name := range routeNames {
		out[k] = obs.Default().Counter(`maybms_route_total{route="`+name+`"}`,
			"Statements by routing decision (single = world-independent, componentwise = merge-free, conditional = d-tree fold or conditional relation, merge = bounded partial expansion, approx_mc = Monte-Carlo CONF, refused = per-world answers, a statement form the compact backend does not run, or a merge past the limit).")
	}
	return out
}()

// noteRoute records the route a statement takes: one counter tick and the
// trace's route attribute.
func (d *WSD) noteRoute(k routeKind) {
	routeCounts[k].Inc()
	d.trace.Set("route", k.String())
}

// decision is the value route returns.
type decision struct {
	kind routeKind
	// alts is the alternative count of the merged component (routeMerge).
	alts int
	// nested counts the nested components among the involved trees (the
	// conditional routes).
	nested int
	// err is the refusal (routeRefused).
	err error
}

// route decides how a statement whose compiled core has analysis an is
// answered under closure cl — or, with store set (createTableAs, under
// closureNone), how its per-world answers are stored:
//
//   - a core touching no component is evaluated once;
//   - a stored answer may have any shape, but only a concat-structured plan
//     is stored without merging (componentwise);
//   - a plain SELECT (closureNone) must have a compactly representable
//     answer: one world when every involved component has a single
//     alternative left, a conditional relation when the plan is
//     concat-structured, else it is refused — without merging anything;
//   - a closure over a monotone-decomposable plan is computed from
//     per-alternative deltas (reported as componentwise, or as conditional
//     when the involved components carry tree structure);
//   - everything else genuinely correlates the involved components and
//     merges exactly those — if the merged component fits MergeLimit, which
//     mergedAlternatives answers without touching the decomposition. Past the
//     limit APPROX CONF samples and every other statement is refused.
func (d *WSD) route(core *sqlparse.SelectStmt, an *plan.ComponentAnalysis, cl closure, store bool) decision {
	comps := an.Comps
	if len(comps) == 0 {
		return decision{kind: routeSingle}
	}
	switch {
	case store:
		if an.Concat {
			return decision{kind: routeComponentwise}
		}
	case cl == closureNone:
		// With tree structure a singleton component's *activity* still
		// varies, so the one-world shortcut only applies to flat involvement.
		if !d.treeInvolved(comps) && d.allSingleton(comps) {
			return decision{kind: routeSingle}
		}
		if an.Concat {
			return decision{kind: routeCondRelation, nested: d.nestedAmong(d.rootClosure(comps))}
		}
		return decision{kind: routeRefused, err: d.perWorldError(core)}
	case an.Decomposable:
		if d.treeInvolved(comps) {
			return decision{kind: routeCondFold, nested: d.nestedAmong(d.rootClosure(comps))}
		}
		return decision{kind: routeComponentwise}
	}
	alts, fits := d.mergedAlternatives(comps)
	switch {
	case fits:
		return decision{kind: routeMerge, alts: alts}
	case cl == closureApproxConf:
		return decision{kind: routeApproxMC}
	}
	return decision{kind: routeRefused, err: d.errMergeTooBig(len(comps))}
}

// allSingleton reports whether every listed component has exactly one
// alternative (singleton key groups, or asserts narrowed the choices away).
func (d *WSD) allSingleton(comps []int) bool {
	for _, ci := range comps {
		if len(d.comps[ci].Alts) != 1 {
			return false
		}
	}
	return true
}

// describeRoute renders a decision for EXPLAIN: the route's name — the same
// word the trace of a real run carries — and the numbers behind it.
func (d *WSD) describeRoute(core *sqlparse.SelectStmt, comps []int, dec decision) string {
	n := len(comps)
	var detail string
	switch dec.kind {
	case routeSingle:
		detail = "world-independent"
		if n > 0 {
			detail = fmt.Sprintf("%d components, all singleton alternatives", n)
		}
	case routeComponentwise:
		detail = fmt.Sprintf("merge-free, %d components, %s alternatives", n, d.altsBrief(comps))
	case routeCondFold:
		detail = fmt.Sprintf("tree fold, %d components, %d nested", n, dec.nested)
	case routeCondRelation:
		detail = fmt.Sprintf("relation with cond column, %d components, %d nested", n, dec.nested)
	case routeMerge:
		detail = fmt.Sprintf("partial expansion, %d components, %d alternatives, limit %d", n, dec.alts, d.MergeLimit)
	case routeApproxMC:
		detail = fmt.Sprintf("merge of %d components exceeds limit %d; %d samples, seed %d, stderr <= %.4f",
			n, d.MergeLimit, mcSamples, mcSeed, 1/(2*math.Sqrt(mcSamples)))
	default:
		if errors.Is(dec.err, ErrMergeTooBig) {
			detail = fmt.Sprintf("merge of %d components exceeds limit %d alternatives", n, d.MergeLimit)
			break
		}
		// The blocking construct: the uncertain relations the core reads.
		detail = "per-world answers over uncertain relations"
		if names := d.uncertainTables(core); names != "" {
			detail += "; uncertain: " + names
		}
	}
	return fmt.Sprintf("%s (%s)", dec.kind, detail)
}
