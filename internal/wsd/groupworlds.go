package wsd

// GROUP WORLDS BY over the decomposition. The naive engine evaluates the
// grouping subquery in every world, fingerprints each answer, groups
// worlds by fingerprint and applies the closure per group (Figure 4 of
// the paper). The compact engine cannot enumerate worlds, but a world's
// grouping answer depends only on the components the compiled grouping
// plan touches — and when that plan is monotone-decomposable the answer
// *set* of world (a1,…,ak) is the certain-only answer united with one
// delta per component (componentwise.go):
//
//	G(world) = G(cert) ∪ ΔG(c1, a1) ∪ … ∪ ΔG(ck, ak)
//
// Relation fingerprints hash the deduplicated sorted tuple-key set, so a
// world's group key is computable from per-component answer key sets —
// one tagged delta evaluation, never the product. The groups
// themselves come from a frontier fold: starting from the certain-only
// answer, each involved component in turn unions every frontier set with
// each of its alternatives' delta key sets, summing probabilities when two
// selections reach the same set. The frontier is exactly the distinct
// grouping answers over the processed prefix, so its size tracks the
// number of groups (bounded by MergeLimit), not the world count — a
// decomposition of 2^17 worlds whose grouping query splits it into a
// handful of groups folds in a handful × Σ sizes set unions. The final
// fingerprints use the same byte stream as relation.Fingerprint, so even
// hash collisions group exactly as the naive engine would.
//
// The closure of the main query within a group: when the grouping and
// main plans touch disjoint component sets, the main query's answer is
// independent of the grouping choice, so every group's POSSIBLE/CERTAIN
// closure equals the global one, and a group's CONF values are the global confidences scaled by the
// group's probability (by independence: Σ_{w∈g, t∈Q(w)} p_w =
// P(g)·P(t∈Q)). Only when the grouped query genuinely spans components —
// the grouping and main plans share a component — does the engine fall
// back to the bounded residual merge of the involved components,
// evaluating both queries' full answers once per merged alternative and
// closing the main query within each group by the one fold (fold.go), the
// group's alternatives folded as a flat component of their own.

import (
	"fmt"
	"slices"
	"sort"

	"maybms/internal/colbatch"
	"maybms/internal/core"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/sqlparse"
	"maybms/internal/value"
	"maybms/internal/worldset"
)

// groupInfo is one world group produced by the grouping phase: its total
// probability and, for groups of a merged component's alternatives, their
// indexes.
type groupInfo struct {
	prob float64
	alts []int
}

// routeGrouped decides `SELECT <closure core> GROUP WORLDS BY (gw)`, or with
// dst set its factorized store (storeGrouped). A world-independent gw puts
// every world in one group, answered on q's own route. Else the groups come
// from per-component fingerprints (componentwise) when gw decomposes, shares
// no component with q and nothing is stored, or from the merged components
// of the groups (merge); a q disjoint from gw closes once, on its own route,
// and the costlier phase is recorded. The run lists the groups in the naive
// engine's first-appearance order with their probabilities (0 unweighted)
// and answers as sets; conf values are equal up to float accumulation order.
func (d *WSD) routeGrouped(gw, q *sqlparse.SelectStmt, cl core.Closure, dst string) (decision, func() ([]core.GroupRows, error), error) {
	g, err := d.prepareGrouped(gw, q)
	if err != nil {
		return decision{}, nil, err
	}
	if len(g.gwAn.Comps) == 0 {
		dec := d.routeCore(q, g.qAn, cl, false)
		return dec, func() ([]core.GroupRows, error) {
			// One group: stored, the plain closure is certain everywhere.
			whole, err := d.run(dec, g.q, cl, dst)
			if err != nil || dst != "" {
				return nil, err
			}
			return []core.GroupRows{{Prob: oneIfWeighted(d.Weighted), Rel: whole}}, nil
		}, nil
	}
	merged := g.spanning || !g.gwAn.Decomposable || dst != ""
	dec := decision{kind: routeComponentwise, comps: g.gwAn.Comps}
	if merged {
		dec = d.mergeDecision(g.comps())
	}
	var qdec decision // the main query's own route, when it closes once for all groups
	if !g.spanning {
		qdec = d.routeCore(q, g.qAn, groupedClosure(cl), false)
		dec = costlier(dec, qdec)
	}
	return dec, func() ([]core.GroupRows, error) {
		if !merged {
			groups, err := d.groupsByComponent(g.gwAn.Comps, g.gw.part)
			if err != nil {
				return nil, err
			}
			return d.closePerGroup(groups, g.q, cl, qdec)
		}
		mc, groups, answers, err := d.groupMerged(g, cl, qdec)
		if err != nil || dst == "" {
			return answers, err
		}
		return nil, d.storeGrouped(dst, mc, groups, answers)
	}, nil
}

// groupedClosure is the closure a grouped statement's main query is routed
// under when it closes once for every group: APPROX CONF's sampling escape
// does not extend to grouped closures, so it routes as CONF, and a merge past
// MergeLimit is refused.
func groupedClosure(cl core.Closure) core.Closure {
	if cl == core.ClosureApproxConf {
		return core.ClosureConf
	}
	return cl
}

// grouped is a GROUP WORLDS BY statement compiled and analyzed against the
// decomposition: the grouping query gw, the main query q, and whether they
// span components — share one, or involve d-trees, whose frontier fold and
// independence argument assume flat independent components; the spanning
// merge condenses trees exactly (see condenseTrees).
type grouped struct {
	gw, q     evaluator
	gwAn, qAn *plan.ComponentAnalysis
	spanning  bool
}

// comps returns the components a world's group is a function of: the
// grouping query's, plus the main query's when the statement spans.
func (g *grouped) comps() []int {
	idx := append([]int(nil), g.gwAn.Comps...)
	if g.spanning {
		idx = sortedUniqueInts(append(idx, g.qAn.Comps...))
	}
	return idx
}

// prepareGrouped compiles and analyzes a GROUP WORLDS BY statement's
// grouping and main queries.
func (d *WSD) prepareGrouped(gw, core *sqlparse.SelectStmt) (*grouped, error) {
	gwPrep, gwEv, err := d.prepared(gw)
	if err != nil {
		return nil, err
	}
	gwAn, err := d.analyze(gwPrep)
	if err != nil {
		return nil, err
	}
	qPrep, qEv, err := d.prepared(core)
	if err != nil {
		return nil, err
	}
	qAn, err := d.analyze(qPrep)
	if err != nil {
		return nil, err
	}
	spanning := intersects(gwAn.Comps, qAn.Comps) || d.treeInvolved(gwAn.Comps) || d.treeInvolved(qAn.Comps)
	return &grouped{gw: gwEv, q: qEv, gwAn: gwAn, qAn: qAn, spanning: spanning}, nil
}

// intersects reports whether two sorted component-index sets share an
// element.
func intersects(a, b []int) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// sortedBatchKeys returns the deduplicated sorted canonical tuple keys of
// a part batch — the key set relation.Fingerprint hashes (AppendKey writes
// tuple.Encode's exact byte stream). Duplicates are probed on the scratch
// buffer, so only distinct keys materialize strings.
func sortedBatchKeys(b *colbatch.Batch) []string {
	n := b.Len()
	seen := make(map[string]struct{}, n)
	keys := make([]string, 0, n)
	var buf []byte
	for i := 0; i < n; i++ {
		buf = b.AppendKey(buf[:0], i)
		if _, ok := seen[string(buf)]; ok {
			continue
		}
		k := string(buf)
		seen[k] = struct{}{}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// unionSorted merges two sorted deduplicated key lists.
func unionSorted(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// canonOf builds the canonical encoding of a sorted key list — the exact
// byte stream relation.FingerprintKeys hashes, shared via
// relation.CanonicalKeyBytes so frontier deduplication and the final
// fingerprints can never desynchronize.
func canonOf(keys []string) string {
	return string(relation.CanonicalKeyBytes(keys))
}

// groupsByComponent computes the world groups of a monotone-decomposable
// grouping query from the certain-only answer and per-alternative deltas —
// certain-only plus one tagged delta evaluation and a frontier fold, no
// merge, the decomposition untouched.
// Groups are returned in the naive engine's first-appearance order (the
// frontier enumerates alternative selections lexicographically, earlier
// components more significant, exactly like the world odometer).
func (d *WSD) groupsByComponent(compIdx []int, eval partQuery) ([]groupInfo, error) {
	parts, err := d.queryByComponent(compIdx, eval, nil)
	if err != nil {
		return nil, err
	}
	partKeys := make([][][]string, len(compIdx))
	for i, ci := range compIdx {
		alts := d.comps[ci].Alts
		partKeys[i] = make([][]string, len(alts))
		for a := range alts {
			if err := d.interrupted(); err != nil {
				return nil, err
			}
			partKeys[i][a] = sortedBatchKeys(parts.part(ci, a).batch())
		}
	}

	type entry struct {
		keys []string
		prob float64
	}
	frontier := []entry{{keys: sortedBatchKeys(parts.base), prob: oneIfWeighted(d.Weighted)}}
	for i := range compIdx {
		var next []entry
		index := map[string]int{}
		for _, e := range frontier {
			// Poll per frontier entry, like the merge path's per-base-row
			// poll: a deadlined request must not hold the engine through a
			// large fold. Aborting leaves the decomposition unchanged.
			if err := d.interrupted(); err != nil {
				return nil, err
			}
			for a := range partKeys[i] {
				merged := unionSorted(e.keys, partKeys[i][a])
				canon := canonOf(merged)
				p := e.prob * d.comps[compIdx[i]].Alts[a].Prob
				if j, ok := index[canon]; ok {
					next[j].prob += p
					continue
				}
				// Bound the frontier as it grows, before materializing a
				// generation that could not be returned anyway.
				if len(next) >= d.MergeLimit {
					return nil, fmt.Errorf("%w: group worlds by produced more than %d distinct answers", ErrMergeTooBig, d.MergeLimit)
				}
				index[canon] = len(next)
				next = append(next, entry{keys: merged, prob: p})
			}
		}
		frontier = next
	}

	// Collapse by the final uint64 fingerprint so hash collisions group
	// exactly as the naive engine's fingerprint comparison would.
	fps := make([]uint64, len(frontier))
	for i, e := range frontier {
		fps[i] = relation.FingerprintKeys(e.keys)
	}
	var out []groupInfo
	for _, idxs := range worldset.Group(fps) {
		g := groupInfo{}
		for _, i := range idxs {
			g.prob += frontier[i].prob
		}
		out = append(out, g)
	}
	return out, nil
}

// groupMerged merges the components of g's groups into one and groups its
// alternatives by their grouping answers. A spanning statement's main query
// closes within each group (closeEachGroup); otherwise its closure is shared
// across the groups (closePerGroup, on its route qdec). It returns the
// merged component beside the groups and their answers: a pointer, since
// closePerGroup's own route may merge other components and so move the
// merged one's index.
func (d *WSD) groupMerged(g *grouped, cl core.Closure, qdec decision) (*Component, []groupInfo, []core.GroupRows, error) {
	mi, err := d.mergeComponents(g.comps())
	if err != nil {
		return nil, nil, nil, err
	}
	merged := d.comps[mi]
	groups, err := d.groupsFromAlternatives(mi, g.gw)
	if err != nil {
		return nil, nil, nil, err
	}
	var answers []core.GroupRows
	if g.spanning {
		answers, err = d.closeEachGroup(mi, groups, g.q, cl)
	} else {
		answers, err = d.closePerGroup(groups, g.q, cl, qdec)
	}
	return merged, groups, answers, err
}

// groupsFromAlternatives evaluates the grouping query's full answer per
// alternative of the merged component mi and groups the alternatives by
// answer fingerprint (first-appearance order, matching the world odometer).
func (d *WSD) groupsFromAlternatives(mi int, gw evaluator) ([]groupInfo, error) {
	parts, err := d.mergedParts(mi, gw)
	if err != nil {
		return nil, err
	}
	alts := d.comps[mi].Alts
	fps := make([]uint64, len(alts))
	for a := range alts {
		if err := d.interrupted(); err != nil {
			return nil, err
		}
		answer := parts.base // empty: the alternative has no part
		if r := parts.part(mi, a); r.Len() > 0 {
			answer = r.b
		}
		fps[a] = relation.FromBatch(answer).Fingerprint()
	}
	var out []groupInfo
	for _, idxs := range worldset.Group(fps) {
		g := groupInfo{alts: idxs}
		for _, a := range idxs {
			g.prob += alts[a].Prob
		}
		out = append(out, g)
	}
	return out, nil
}

// closePerGroup computes the main query's closure once, on the route dec
// routeGrouped decided for it (its components are disjoint from the grouping
// components, so the per-group answer is the global one), and attaches it to
// every group — scaling confidences by each group's probability.
func (d *WSD) closePerGroup(groups []groupInfo, q evaluator, cl core.Closure, dec decision) ([]core.GroupRows, error) {
	// A merge forming the groups may have moved the main query's components
	// (flat, and untouched by it) to other indexes: read them again.
	qAn, err := d.analyze(q.prep)
	if err != nil {
		return nil, err
	}
	dec.comps, dec.trees = qAn.Comps, d.rootClosure(qAn.Comps)
	rcl := groupedClosure(cl)
	closed, err := d.run(dec, q, rcl, "")
	if err != nil {
		return nil, err
	}
	out := make([]core.GroupRows, len(groups))
	for gi, g := range groups {
		var rel *relation.Relation
		if cl.IsConf() {
			rel = scaleConf(closed, g.prob)
		} else if gi == 0 {
			rel = closed
		} else {
			// Each group gets its own relation, like the naive engine's
			// per-group closures: callers mutating one group's answer must
			// not corrupt the others'.
			rel = closed.Clone()
		}
		out[gi] = core.GroupRows{Prob: g.prob, Rel: rel}
	}
	return out, nil
}

// scaleConf multiplies the trailing conf column by f (a group's
// probability), preserving tuple order.
func scaleConf(rel *relation.Relation, f float64) *relation.Relation {
	b := rel.Batch()
	keep := make([]int, b.Width()-1)
	for j := range keep {
		keep[j] = j
	}
	conf := make([]float64, b.Len())
	for i := range conf {
		conf[i] = f * b.At(i, len(keep)).AsFloat()
	}
	rest := b.Project(keep, rel.Schema.Project(keep))
	return relation.FromBatch(rest.Extend(rel.Schema, colbatch.Col{Kind: value.KindFloat, Floats: conf}))
}

// closeEachGroup evaluates the main query's full answer per alternative of
// the merged component mi and closes it within each group by the one fold,
// over the group's alternatives as a flat component of their own: CERTAIN
// within a group means in every alternative of the group.
func (d *WSD) closeEachGroup(mi int, groups []groupInfo, q evaluator, cl core.Closure) ([]core.GroupRows, error) {
	parts, err := d.mergedParts(mi, q)
	if err != nil {
		return nil, err
	}
	merged := d.comps[mi]
	out := make([]core.GroupRows, len(groups))
	for gi, g := range groups {
		group := &Component{ID: merged.ID, Parent: -1, Alts: make([]Alternative, len(g.alts))}
		within := &componentParts{idx: parts.idx, base: parts.base}
		for j, a := range g.alts {
			group.Alts[j] = merged.Alts[a]
			if r := parts.part(mi, a); r.Len() > 0 {
				within.parts = append(within.parts, part{ci: mi, a: j, rows: r})
			}
		}
		rel, err := d.newClosureFold(within, group).close(cl, parts.base.Schema)
		if err != nil {
			return nil, err
		}
		out[gi] = core.GroupRows{Prob: g.prob, Rel: rel}
	}
	return out, nil
}

// storeGrouped stores `SELECT <closed core> GROUP WORLDS BY (gw)` as
// relation dst, factorized: every world's dst instance is its group's closed
// answer, and worlds in the same group share one stored copy. A world's
// group is a function of the *joint* choice of the components the grouping
// plan touches, so groupMerged has merged those (and, when the main query
// shares components with the grouping, the union) into one — no merge at
// all when a single component feeds the grouping query — and each merged
// alternative references its group's answer: per-group contributions, not
// per-alternative copies.
func (d *WSD) storeGrouped(dst string, merged *Component, groups []groupInfo, answers []core.GroupRows) error {
	err := core.CheckStoredNames(answers[0].Rel.Schema.Names())
	if err == nil {
		err = d.registerUncertain(dst, answers[0].Rel.Schema.Unqualify())
	}
	if err != nil {
		return err
	}
	merged = d.own(slices.Index(d.comps, merged))
	k := key(dst)
	for gi, grp := range groups {
		rel := answers[gi].Rel
		if rel.Empty() {
			continue
		}
		contribution := rel.WithSchema(d.schemas[k])
		for _, ai := range grp.alts {
			merged.Alts[ai].Contrib[k] = contribution
		}
	}
	return nil
}
