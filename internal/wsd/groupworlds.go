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
// Σ component sizes delta evaluations, never the product. The groups
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
// evaluating both queries once per merged alternative.

import (
	"fmt"
	"sort"

	"maybms/internal/colbatch"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/sqlparse"
	"maybms/internal/tuple"
	"maybms/internal/value"
	"maybms/internal/worldset"
)

// GroupAnswer is the closed answer over one group of worlds: the group's
// total probability (0 in unweighted decompositions) and the closure of
// the main query over the group's worlds.
type GroupAnswer struct {
	Prob float64
	Rel  *relation.Relation
}

// groupInfo is one world group produced by the grouping phase: its total
// probability and, for the spanning path, the merged-alternative indexes
// it contains.
type groupInfo struct {
	prob float64
	alts []int
}

// GroupWorldsClosure evaluates `SELECT <closure core> GROUP WORLDS BY
// (gw)`: worlds are grouped by the fingerprint of gw's per-world answer
// and the closure of core is computed within each group. Groups are
// returned in the naive engine's first-appearance order, each with the
// naive engine's possible/certain answer as a set; conf values are
// mathematically equal (float accumulation order differs on multi-component
// paths).
func (d *WSD) GroupWorldsClosure(gw, core *sqlparse.SelectStmt, cl Closure) ([]GroupAnswer, error) {
	if cl == ClosureNone {
		return nil, fmt.Errorf("group worlds by requires possible, certain or conf")
	}
	if cl.IsConf() && !d.Weighted {
		return nil, ErrConfUnweighted
	}
	gwPrep, gwEv, err := d.prepared(gw)
	if err != nil {
		return nil, err
	}
	gwAn, err := d.analyze(gwPrep)
	if err != nil {
		return nil, err
	}

	// A world-independent grouping query puts every world in one group;
	// the answer is the plain closure.
	if len(gwAn.Comps) == 0 {
		rel, err := d.SelectClosure(core, cl)
		if err != nil {
			return nil, err
		}
		return []GroupAnswer{{Prob: oneIfWeighted(d.Weighted), Rel: rel}}, nil
	}

	qPrep, qEv, err := d.prepared(core)
	if err != nil {
		return nil, err
	}
	qAn, err := d.analyze(qPrep)
	if err != nil {
		return nil, err
	}

	// Tree-involved components route through the spanning merge: the
	// frontier fold and the disjointness independence argument assume flat
	// independent components, and the merge path condenses trees exactly
	// (see condenseTrees).
	if intersects(gwAn.Comps, qAn.Comps) ||
		d.treeInvolved(append(append([]int(nil), gwAn.Comps...), qAn.Comps...)) {
		return d.groupWorldsSpanning(gwAn.Comps, qAn.Comps, gwEv.rel, qEv.rel, cl)
	}

	// Disjoint component sets: groups from the grouping query alone, the
	// closure shared across groups.
	var groups []groupInfo
	if gwAn.Decomposable {
		groups, err = d.groupsByComponent(gwAn.Comps, gwEv.part)
		if err != nil {
			return nil, err
		}
		d.componentwise.Add(1)
	} else {
		// The grouping query itself correlates its components: merge
		// exactly those (never the main query's) and fingerprint per
		// merged alternative.
		merged, err := d.mergeComponents(append([]int(nil), gwAn.Comps...))
		if err != nil {
			return nil, err
		}
		groups, err = d.groupsFromAlternatives(merged, gwEv.rel)
		if err != nil {
			return nil, err
		}
	}

	// The merge above may have restructured the component list; re-run the
	// main query's analysis against the current decomposition.
	qAn, err = d.analyze(qPrep)
	if err != nil {
		return nil, err
	}
	return d.closePerGroup(groups, qAn, qEv, cl)
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
// 1 + Σ component sizes evaluations and a frontier fold, no merge, the
// decomposition untouched.
// Groups are returned in the naive engine's first-appearance order (the
// frontier enumerates alternative selections lexicographically, earlier
// components more significant, exactly like the world odometer).
func (d *WSD) groupsByComponent(compIdx []int, eval partQuery) ([]groupInfo, error) {
	parts, err := d.QueryByComponent(compIdx, eval, nil)
	if err != nil {
		return nil, err
	}
	partKeys := make([][][]string, len(parts.deltas))
	for i, alts := range parts.deltas {
		partKeys[i] = make([][]string, len(alts))
		for a, b := range alts {
			if err := d.interrupted(); err != nil {
				return nil, err
			}
			partKeys[i][a] = sortedBatchKeys(b)
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

// groupsFromAlternatives evaluates the grouping query once per
// alternative of a merged component and groups the alternatives by answer
// fingerprint (first-appearance order, matching the world odometer).
func (d *WSD) groupsFromAlternatives(merged *Component, eval func(cat plan.Catalog) (*relation.Relation, error)) ([]groupInfo, error) {
	fps, err := mapAlts(d, len(merged.Alts), func(i int) (uint64, error) {
		rel, err := eval(altCatalog{d: d, alt: &merged.Alts[i]})
		if err != nil {
			return 0, err
		}
		return rel.Fingerprint(), nil
	})
	if err != nil {
		return nil, err
	}
	var out []groupInfo
	for _, idxs := range worldset.Group(fps) {
		g := groupInfo{alts: idxs}
		for _, i := range idxs {
			g.prob += merged.Alts[i].Prob
		}
		out = append(out, g)
	}
	return out, nil
}

// closePerGroup computes the main query's closure once (its components
// are disjoint from the grouping components, so the per-group answer is
// the global one) and attaches it to every group — scaling confidences by
// each group's probability.
func (d *WSD) closePerGroup(groups []groupInfo, qAn *plan.ComponentAnalysis, qEv evaluator, cl Closure) ([]GroupAnswer, error) {
	// The ungrouped closure runs on the route route picks for it. APPROX
	// CONF's sampling escape does not extend to grouped closures: it routes
	// as CONF, so a merge past MergeLimit is refused.
	rcl := cl
	if rcl == ClosureApproxConf {
		rcl = ClosureConf
	}
	closed, err := d.run(d.route(qEv.sel, qAn, rcl, false), qAn.Comps, qEv, rcl)
	if err != nil {
		return nil, err
	}
	out := make([]GroupAnswer, len(groups))
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
		out[gi] = GroupAnswer{Prob: g.prob, Rel: rel}
	}
	return out, nil
}

// scaleConf multiplies the trailing conf column by f (a group's
// probability), preserving tuple order.
func scaleConf(rel *relation.Relation, f float64) *relation.Relation {
	rows := make([]tuple.Tuple, 0, rel.Len())
	for _, t := range rel.Rows() {
		nt := t.Clone()
		nt[len(nt)-1] = value.Float(f * nt[len(nt)-1].AsFloat())
		rows = append(rows, nt)
	}
	return relation.FromRowsShared(rel.Schema, rows)
}

// groupWorldsSpanning is the bounded residual merge: the grouping and
// main queries share components, so their union merges into one component
// and both evaluate once per merged alternative — the grouping answers
// fingerprint the alternatives into groups (first-appearance order over
// alternatives equals the world odometer's), the main answers close within
// each group.
func (d *WSD) groupWorldsSpanning(gwComps, qComps []int, gwEval, qEval func(cat plan.Catalog) (*relation.Relation, error), cl Closure) ([]GroupAnswer, error) {
	idx := sortedUniqueInts(append(append([]int(nil), gwComps...), qComps...))
	merged, err := d.mergeComponents(idx)
	if err != nil {
		return nil, err
	}
	groups, err := d.groupsFromAlternatives(merged, gwEval)
	if err != nil {
		return nil, err
	}
	return d.closeAltGroups(merged, groups, qEval, cl)
}

// closeAltGroups evaluates the main query once per alternative of a
// merged component and closes the answers within each alternative group.
func (d *WSD) closeAltGroups(merged *Component, groups []groupInfo, qEval func(cat plan.Catalog) (*relation.Relation, error), cl Closure) ([]GroupAnswer, error) {
	qResults, err := mapAlts(d, len(merged.Alts), func(i int) (*relation.Relation, error) {
		return qEval(altCatalog{d: d, alt: &merged.Alts[i]})
	})
	if err != nil {
		return nil, err
	}
	out := make([]GroupAnswer, len(groups))
	for gi, g := range groups {
		rels := make([]*relation.Relation, len(g.alts))
		probs := make([]float64, len(g.alts))
		for j, ai := range g.alts {
			rels[j] = qResults[ai]
			probs[j] = merged.Alts[ai].Prob
		}
		rel, err := d.closeAnswers(rels, probs, cl)
		if err != nil {
			return nil, err
		}
		out[gi] = GroupAnswer{Prob: g.prob, Rel: rel}
	}
	return out, nil
}

// materializeGrouped stores `SELECT <closed core> GROUP WORLDS BY (gw)`
// as relation dst, factorized: every world's dst instance is its group's
// closed answer, and worlds in the same group share one stored copy. A
// world's group is a function of the *joint* choice of the components the
// grouping plan touches, so those components (and, when the main query
// shares components with the grouping, the union) merge into one — no
// merge at all when a single component feeds the grouping query — and
// each merged alternative references its group's answer: per-group
// contributions, not per-alternative copies.
func (d *WSD) materializeGrouped(dst string, gw, core *sqlparse.SelectStmt, cl Closure) error {
	gwPrep, gwEv, err := d.prepared(gw)
	if err != nil {
		return err
	}
	gwAn, err := d.analyze(gwPrep)
	if err != nil {
		return err
	}

	// A world-independent grouping query puts every world in one group:
	// the stored relation is the plain closure, certain everywhere.
	if len(gwAn.Comps) == 0 {
		rel, err := d.SelectClosure(core, cl)
		if err != nil {
			return err
		}
		return d.PutCertain(dst, rel.WithSchema(rel.Schema.Unqualify()))
	}

	qPrep, qEv, err := d.prepared(core)
	if err != nil {
		return err
	}
	qAn, err := d.analyze(qPrep)
	if err != nil {
		return err
	}

	idx := append([]int(nil), gwAn.Comps...)
	spanning := intersects(gwAn.Comps, qAn.Comps) ||
		d.treeInvolved(append(append([]int(nil), gwAn.Comps...), qAn.Comps...))
	if spanning {
		idx = sortedUniqueInts(append(idx, qAn.Comps...))
	}
	merged, err := d.mergeComponents(idx)
	if err != nil {
		return err
	}
	groups, err := d.groupsFromAlternatives(merged, gwEv.rel)
	if err != nil {
		return err
	}

	var answers []GroupAnswer
	if spanning {
		answers, err = d.closeAltGroups(merged, groups, qEv.rel, cl)
	} else {
		// The merge may have restructured the component list; re-run the
		// main query's analysis against the current decomposition. Its
		// closure is shared across groups (conf scaled by group
		// probability), computed componentwise whenever the plan allows.
		qAn, err = d.analyze(qPrep)
		if err != nil {
			return err
		}
		answers, err = d.closePerGroup(groups, qAn, qEv, cl)
	}
	if err != nil {
		return err
	}

	if err := d.registerUncertain(dst, answers[0].Rel.Schema.Unqualify()); err != nil {
		return err
	}
	k := key(dst)
	for gi, g := range groups {
		rel := answers[gi].Rel
		if rel.Empty() {
			continue
		}
		contribution := rel.WithSchema(d.schemas[k])
		for _, ai := range g.alts {
			if merged.Alts[ai].Contrib == nil {
				merged.Alts[ai].Contrib = map[string]*relation.Relation{}
			}
			merged.Alts[ai].Contrib[k] = contribution
		}
	}
	if len(idx) <= 1 {
		d.componentwise.Add(1)
	}
	return nil
}
