package wsd

// Routing: the one decision every statement over the decomposition takes.
// route returns a statement's decision beside the run that carries it out,
// which reuses what deciding computed (compiled plans and their analysis,
// the DML expressions' components, a split's first key-touch round, a
// scalar aggregate's partials). Deciding writes nothing, but two decisions
// read data: a split reads the keys its source's feeders contribute, and for
// a query source stored componentwise the evaluated parts about to be
// stored; a closed scalar SUM or COUNT over flat components reads its
// input's partial per (component, alternative), and takes the convolution
// route unless a SUM meets a value that is not an integer, which keeps the
// merge. Run notes the decision once and then runs it, and Predict renders
// the very same value. A statement of two phases (a grouping and its
// closure; an ASSERT or a transient source before a store) records the
// costlier one, in routeKind's order. The one decision taken after a phase
// has run is a CREATE TABLE AS … ASSERT's store, which reads the world-set
// the assert leaves (decision.then): EXPLAIN forecasts it on the
// decomposition as it stands.

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"maybms/internal/core"
	"maybms/internal/obs"
	"maybms/internal/plan"
	"maybms/internal/sqlparse"
)

// routeKind names a way of answering a statement, cheapest first.
type routeKind int

const (
	// routeSingle: the answer is the same in every world — one evaluation,
	// one rewrite or one split of certain data.
	routeSingle routeKind = iota
	// routeComponentwise: the certain-only answer plus one tagged delta of
	// every alternative of flat components — two evaluations, no merge
	// (componentwise.go) — or one rewrite per piece (dml.go).
	routeComponentwise
	// routeCondFold: the same evaluations and the same fold over components
	// arranged in d-trees; it differs in the word it reports.
	routeCondFold
	// routeCondRelation: a plain SELECT answered as a relation with a
	// trailing cond column (conditional.go).
	routeCondRelation
	// routeCondSplit: a split nesting its components under the alternatives
	// of the components feeding its source (split.go).
	routeCondSplit
	// routeConvolution: a scalar SUM or COUNT closure over flat components —
	// the same two evaluations of the aggregate's input, one partial per
	// (component, alternative), folded component by component; no merge
	// (convolution.go).
	routeConvolution
	// routeMerge: bounded partial expansion — merge exactly the involved
	// components (merge.go) and answer each merged alternative whole.
	routeMerge
	// routeApproxMC: APPROX CONF whose merge would exceed MergeLimit — the
	// seeded Monte-Carlo estimate (approx.go).
	routeApproxMC
	// routeRefused: no route answers the statement exactly; decision.err
	// says why.
	routeRefused
)

// routeNames holds, per kind, the word traces, metrics and EXPLAIN print for
// it. The conditional kinds all report as "conditional".
var routeNames = [...]string{
	routeSingle:        "single",
	routeComponentwise: "componentwise",
	routeCondFold:      "conditional",
	routeCondRelation:  "conditional",
	routeCondSplit:     "conditional",
	routeConvolution:   "convolution",
	routeMerge:         "merge",
	routeApproxMC:      "approx_mc",
	routeRefused:       "refused",
}

func (k routeKind) String() string { return routeNames[k] }

// routeTotals are the maybms_route_total counters, one per route kind (the
// conditional kinds share one series), ticked once per statement. Exposed on
// /metrics.
var routeTotals = func() (out [len(routeNames)]*obs.Counter) {
	for k, name := range routeNames {
		out[k] = obs.Default().Counter(`maybms_route_total{route="`+name+`"}`,
			"Statements by routing decision (single = world-independent, componentwise = merge-free, conditional = d-tree fold, conditional relation or nesting split, convolution = scalar SUM or COUNT folded over independent components, merge = bounded partial expansion, approx_mc = Monte-Carlo CONF, refused = a statement form the compact backend does not run or a merge past the limit).")
	}
	return out
}()

// noteRoute records the route a statement takes — the process-wide counter,
// the session's, the trace's route attribute and a refusal's row. Run calls
// it once per statement.
func (d *WSD) noteRoute(dec decision) {
	routeTotals[dec.kind].Inc()
	d.routes[dec.kind].Add(1)
	d.trace.Set("route", dec.kind.String())
	if dec.refusal != nil {
		d.trace.Set("refusal", dec.refusal.name)
	}
}

// RouteCounts returns the number of statements this decomposition ran per
// route word (every word present), the per-session view of
// maybms_route_total.
func (d *WSD) RouteCounts() map[string]uint64 {
	out := make(map[string]uint64, len(routeNames))
	for k, name := range routeNames {
		out[name] += d.routes[k].Load()
	}
	return out
}

// decision is the value route returns.
type decision struct {
	kind routeKind
	// comps are the components the decisive phase involves.
	comps []int
	// trees lists the whole d-trees comps belong to, ascending (rootClosure):
	// what evalParts evaluates on the Σ-alternatives routes.
	trees []int
	// alts is the alternative count of the merged component (routeMerge).
	alts int
	// conv holds the partials the convolution route read to decide.
	conv *convolution
	// refusal is the refusal-table row (routeRefused; nil for a merge past
	// the limit), err the statement's error and why EXPLAIN's account of it.
	refusal *refusal
	err     error
	why     string
	// then, when set, runs the statement's first phase and decides the rest
	// on the world-set it leaves; Run notes what it returns instead.
	then func() (decision, func() (*core.Result, error))
}

// costlier returns the costlier of two phases' decisions, the first on a tie.
func costlier(a, b decision) decision {
	if b.kind > a.kind {
		return b
	}
	return a
}

// refused is the decision refusing a statement on row r for cause: Exec's
// error wraps both ErrUnsupported and cause.
func refused(r *refusal, cause error) decision {
	return decision{kind: routeRefused, refusal: r, err: fmt.Errorf("%w: %w", ErrUnsupported, cause), why: cause.Error()}
}

// mergeDecision decides a merge of comps: routeMerge when mergedAlternatives
// accepts it, else a refusal — before anything is restructured.
func (d *WSD) mergeDecision(comps []int) decision {
	alts, fits := d.mergedAlternatives(comps)
	if !fits {
		return d.tooBig(comps)
	}
	return decision{kind: routeMerge, comps: comps, alts: alts}
}

// tooBig is the refusal of a merge of comps past MergeLimit.
func (d *WSD) tooBig(comps []int) decision {
	return decision{kind: routeRefused, comps: comps,
		err: fmt.Errorf("%w: merge of %d components exceeds %d alternatives", ErrMergeTooBig, len(comps), d.MergeLimit),
		why: fmt.Sprintf("merge of %d components exceeds limit %d alternatives", len(comps), d.MergeLimit)}
}

// route decides a statement taken apart by decide, and returns the run that
// carries the decision out. An error is the statement's own (a compile
// error, a bad column): nothing was decided.
func (d *WSD) route(stmt sqlparse.Statement, sh shape) (decision, func() (*core.Result, error), error) {
	if sh.refusal != nil {
		return refused(sh.refusal, errors.New(sh.why)), nil, nil
	}
	switch st := stmt.(type) {
	case *sqlparse.SelectStmt:
		return d.routeSelect(st, sh)
	case *sqlparse.CreateTableAs:
		return d.routeCreateAs(st.Name, sh)
	case *sqlparse.Update:
		return d.routeDML(st, st.Table, "updated %d representation row(s) in %s across %s world(s)")
	case *sqlparse.Delete:
		return d.routeDML(st, st.Table, "deleted %d representation row(s) from %s across %s world(s)")
	case *sqlparse.Insert:
		return d.routeInsert(st)
	case *sqlparse.Assert:
		// The compact counterpart of the paper's assert clause, which the
		// naive engine runs inside SELECT and makes durable via CREATE TABLE
		// AS.
		dec, assert, err := d.routeAssert(st.Cond)
		return dec, func() (*core.Result, error) {
			if err := assert(); err != nil {
				return nil, err
			}
			return d.ok("asserted; %s world(s) remain", d.WorldCount())
		}, err
	}
	return decision{kind: routeSingle}, func() (*core.Result, error) { return d.runOther(stmt) }, nil
}

// routeCore decides, from the plan alone, how a compiled core with analysis
// an is answered under closure cl — or, with store set, how its per-world
// answers are stored: a core touching no component is evaluated once; only
// a concat-structured plan is stored without merging; a plain SELECT
// answers as one world when every involved component has one alternative
// left, as a conditional relation when its plan is concat-structured, and
// is refused otherwise; a closure over a monotone-decomposable plan folds
// per-alternative deltas (conditional over d-trees); everything else merges
// exactly the involved components if the merge fits MergeLimit — past it
// APPROX CONF samples and every other statement is refused, before anything
// is restructured. A SELECT closing a scalar SUM or COUNT (an.Scalar) over
// flat components is the one exception routeQuery makes to that merge or
// refusal, once it has read the partials: the convolution route
// (routeConvolution). The GROUP WORLDS BY and split callers keep this
// decision as it is.
func (d *WSD) routeCore(q *sqlparse.SelectStmt, an *plan.ComponentAnalysis, cl core.Closure, store bool) decision {
	comps := an.Comps
	if len(comps) == 0 {
		return decision{kind: routeSingle}
	}
	switch {
	case store:
		if an.Concat {
			return decision{kind: routeComponentwise, comps: comps, trees: d.rootClosure(comps)}
		}
	case cl == core.ClosureNone:
		// One world when every component has one alternative left (singleton
		// key groups, or asserts narrowed the choices away). With tree
		// structure a singleton component's *activity* still varies, so the
		// shortcut only applies to flat involvement.
		choosing := func(ci int) bool { return len(d.comps[ci].Alts) != 1 }
		if !d.treeInvolved(comps) && !slices.ContainsFunc(comps, choosing) {
			return decision{kind: routeSingle, comps: comps}
		}
		if an.Concat {
			return decision{kind: routeCondRelation, comps: comps, trees: d.rootClosure(comps)}
		}
		return d.perWorld(q)
	case an.Decomposable:
		if d.treeInvolved(comps) {
			return decision{kind: routeCondFold, comps: comps, trees: d.rootClosure(comps)}
		}
		return decision{kind: routeComponentwise, comps: comps, trees: comps}
	}
	dec := d.mergeDecision(comps)
	if dec.kind == routeRefused && cl == core.ClosureApproxConf {
		return decision{kind: routeApproxMC, comps: comps}
	}
	return dec
}

// describeRoute renders a decision for EXPLAIN: the route's name — the same
// word the trace of a real run carries — and the numbers behind it.
func (d *WSD) describeRoute(dec decision) string {
	n := len(dec.comps)
	var detail string
	switch dec.kind {
	case routeSingle:
		detail = "world-independent"
		if n > 0 {
			detail = fmt.Sprintf("%d components, all singleton alternatives", n)
		}
	case routeComponentwise:
		detail = fmt.Sprintf("merge-free, %d components, %s alternatives", n, d.altsBrief(dec.comps))
	case routeCondFold:
		detail = fmt.Sprintf("tree fold, %d components, %d nested", n, d.nestedAmong(dec.trees))
	case routeCondRelation:
		detail = fmt.Sprintf("relation with cond column, %d components, %d nested", n, d.nestedAmong(dec.trees))
	case routeCondSplit:
		detail = fmt.Sprintf("nested split, %d feeding components", n)
	case routeConvolution:
		alts := 0
		for _, ci := range dec.comps {
			alts += len(d.comps[ci].Alts)
		}
		detail = fmt.Sprintf("scalar %s, %d components, %d alternatives, limit %d values", dec.conv.sc.Kind, n, alts, d.MergeLimit)
	case routeMerge:
		detail = fmt.Sprintf("partial expansion, %d components, %d alternatives, limit %d", n, dec.alts, d.MergeLimit)
	case routeApproxMC:
		detail = fmt.Sprintf("merge of %d components exceeds limit %d; %d samples, seed %d, stderr <= %.4f",
			n, d.MergeLimit, mcSamples, mcSeed, 1/(2*math.Sqrt(mcSamples)))
	default:
		detail = dec.why
	}
	return fmt.Sprintf("%s (%s)", dec.kind, detail)
}
