package wsd

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"maybms/internal/colbatch"
	"maybms/internal/relation"
	"maybms/internal/tuple"
	"maybms/internal/worldset"
)

// ErrNotDecomposable is returned when a world-set cannot be represented
// by this package's decompositions (e.g. heterogeneous schemas).
var ErrNotDecomposable = errors.New("world-set cannot be decomposed")

// Decompose factorizes the instances of relation name across an explicit
// world-set into a WSD: the certain part (tuples in every world) plus
// independent components — the "complete → incomplete and back" direction
// of the companion papers (the inverse of Expand).
//
// The algorithm follows the ICDT'07 playbook:
//
//  1. extract the certain tuples;
//  2. group the remaining tuples by statistical dependence of their
//     presence indicators (transitive closure of pairwise dependence);
//  3. for each group, the alternatives are the distinct local states
//     (sub-instances) observed across worlds, weighted by total world
//     probability;
//  4. verify the factorization exactly by expansion; if the product does
//     not reconstruct the input (pairwise independence does not imply
//     joint independence), dependent groups are merged and the check is
//     repeated, degrading in the worst case to one component (which is
//     always exact).
//
// Unweighted sets are decomposed by treating worlds as equiprobable
// support (the factorization then concerns the support only).
func Decompose(set *worldset.Set, name string) (*WSD, error) {
	if set.Len() == 0 {
		return nil, worldset.ErrEmpty
	}
	// Collect per-world instances and validate a single schema width.
	insts := make([]*relation.Relation, set.Len())
	probs := make([]float64, set.Len())
	for i, w := range set.Worlds {
		rel, err := w.Lookup(name)
		if err != nil {
			return nil, err
		}
		insts[i] = rel.Distinct()
		if insts[i].Schema.Len() != insts[0].Schema.Len() {
			return nil, fmt.Errorf("%w: schema width varies across worlds", ErrNotDecomposable)
		}
		if set.Weighted {
			probs[i] = w.Prob
		} else {
			probs[i] = 1 / float64(set.Len())
		}
	}

	// Presence matrix: tuple key → bitset over worlds (as []bool).
	var order []string
	rep := map[string]tuple.Tuple{}
	present := map[string][]bool{}
	for i, inst := range insts {
		b := inst.Batch()
		for j := 0; j < b.Len(); j++ {
			k := string(b.AppendKey(nil, j))
			if _, ok := present[k]; !ok {
				order = append(order, k)
				rep[k] = b.Row(j)
				present[k] = make([]bool, set.Len())
			}
			present[k][i] = true
		}
	}
	sort.Strings(order) // determinism

	d := New(set.Weighted)
	cert := relation.New(insts[0].Schema.Unqualify())
	var uncertain []string
	for _, k := range order {
		all := true
		for _, p := range present[k] {
			if !p {
				all = false
				break
			}
		}
		if all {
			cert.MustAppend(rep[k])
		} else {
			uncertain = append(uncertain, k)
		}
	}
	if err := d.PutCertain(name, cert); err != nil {
		return nil, err
	}
	if len(uncertain) == 0 {
		return d, nil
	}
	// From here on, `name` gains component contributions; re-register it
	// as uncertain is unnecessary (schema already known), contributions
	// reference the same key.
	groups := dependenceGroups(uncertain, present, probs)
	for {
		if !buildComponents(d, name, groups, uncertain, rep, present, probs, insts, set.Weighted) {
			return nil, fmt.Errorf("%w: internal grouping failure", ErrNotDecomposable)
		}
		// Verify: expansion of the candidate must reconstruct the input
		// world-set of this relation exactly.
		if verifyDecomposition(d, name, insts, probs, set.Weighted) {
			return d, nil
		}
		// Not jointly independent: merge everything into one component
		// (exact by construction) unless already merged.
		d.editList()
		d.comps = nil
		if len(groups) == 1 {
			return nil, fmt.Errorf("%w: exact single-component encoding failed verification", ErrNotDecomposable)
		}
		merged := []int{}
		for i := range uncertain {
			merged = append(merged, i)
		}
		groups = [][]int{merged}
	}
}

// dependenceGroups partitions the uncertain tuple indexes by the
// transitive closure of pairwise statistical dependence of their presence
// indicators.
func dependenceGroups(keys []string, present map[string][]bool, probs []float64) [][]int {
	n := len(keys)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	marg := make([]float64, n)
	for i, k := range keys {
		for w, p := range present[k] {
			if p {
				marg[i] += probs[w]
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			joint := 0.0
			for w := range probs {
				if present[keys[i]][w] && present[keys[j]][w] {
					joint += probs[w]
				}
			}
			if math.Abs(joint-marg[i]*marg[j]) > 1e-9 {
				parent[find(i)] = find(j)
			}
		}
	}
	groupsByRoot := map[int][]int{}
	var roots []int
	for i := 0; i < n; i++ {
		r := find(i)
		if _, ok := groupsByRoot[r]; !ok {
			roots = append(roots, r)
		}
		groupsByRoot[r] = append(groupsByRoot[r], i)
	}
	out := make([][]int, len(roots))
	for i, r := range roots {
		out[i] = groupsByRoot[r]
	}
	return out
}

// buildComponents adds one component per group: the alternatives are the
// distinct local states across worlds with their probability mass.
func buildComponents(d *WSD, name string, groups [][]int, keys []string,
	rep map[string]tuple.Tuple, present map[string][]bool, probs []float64,
	insts []*relation.Relation, weighted bool) bool {

	k := key(name)
	for _, group := range groups {
		// Local state of a world: which group tuples it contains.
		stateOf := func(w int) string {
			s := make([]byte, len(group))
			for gi, ti := range group {
				if present[keys[ti]][w] {
					s[gi] = '1'
				} else {
					s[gi] = '0'
				}
			}
			return string(s)
		}
		var stateOrder []string
		mass := map[string]float64{}
		for w := range insts {
			st := stateOf(w)
			if _, ok := mass[st]; !ok {
				stateOrder = append(stateOrder, st)
			}
			mass[st] += probs[w]
		}
		alts := make([]Alternative, 0, len(stateOrder))
		sch := insts[0].Schema.Unqualify()
		for _, st := range stateOrder {
			alt := Alternative{Contrib: map[string]*relation.Relation{}}
			if weighted {
				alt.Prob = mass[st]
			}
			var ts []tuple.Tuple
			for gi, ti := range group {
				if st[gi] == '1' {
					ts = append(ts, rep[keys[ti]])
				}
			}
			if len(ts) > 0 {
				alt.Contrib[k] = relation.FromBatch(colbatch.FromRows(sch, ts))
			}
			alts = append(alts, alt)
		}
		if _, err := d.addComponent(alts); err != nil {
			return false
		}
	}
	return true
}

// verifyDecomposition expands the candidate WSD and compares the
// world-multiset of the relation with the input (fingerprints + probability
// mass per instance).
func verifyDecomposition(d *WSD, name string, insts []*relation.Relation, probs []float64, weighted bool) bool {
	limit := 1
	for _, c := range d.comps {
		limit *= len(c.Alts)
		if limit > DefaultMergeLimit {
			return false // refuse unverifiable candidates
		}
	}
	set, err := d.Expand(DefaultMergeLimit)
	if err != nil {
		return false
	}
	want := map[uint64]float64{}
	for i, inst := range insts {
		want[inst.Fingerprint()] += probs[i]
	}
	got := map[uint64]float64{}
	for _, w := range set.Worlds {
		rel, err := w.Lookup(name)
		if err != nil {
			return false
		}
		if weighted {
			got[rel.Fingerprint()] += w.Prob
		} else {
			got[rel.Fingerprint()] += 1 / float64(set.Len())
		}
	}
	if weighted {
		if len(got) != len(want) {
			return false
		}
		for f, p := range want {
			if math.Abs(got[f]-p) > 1e-9 {
				return false
			}
		}
		return true
	}
	// Unweighted: the supports must coincide.
	if len(got) != len(want) {
		return false
	}
	for f := range want {
		if _, ok := got[f]; !ok {
			return false
		}
	}
	return true
}
