package plan

// Component-touch analysis for repair/choice targets (world splits over
// uncertain sources).
//
// REPAIR BY KEY over an uncertain source chooses one candidate tuple per
// key group, and a key group's candidate set in world (a1,…,ak) is the
// certain candidates plus whatever the selected alternatives contribute
// under that key. The choice within a group therefore depends exactly on
// the components contributing candidates to the group's key:
//
//   - a key fed by the certain part only is an independent choice — a
//     fresh component, like repairing a certain relation;
//   - a key fed by (at most) one component is a choice *conditional on
//     that component's alternative* — the component can be split in
//     place, each alternative spawning its own key-group choices, with
//     no merge and Σ-alternatives work;
//   - a key fed by two or more components couples those components'
//     choices: they must merge (bounded partial expansion) before the
//     split.
//
// AnalyzeSplit certifies which case applies per component: it partitions
// the source's components by the transitive closure of "contribute
// candidates under a common key", so the engine merges exactly the
// crossing groups — never more — and reports NoMerge when splitting
// avoids merging entirely (the Σ-alternatives path, which the compact
// engine's route decision reports as conditional rather than merge).
// The analysis is value-level (key values are data, not plan structure),
// so it complements the operator-tree analysis in components.go: the
// tree analysis certifies that the source *plan* exposes the certain ∪
// per-component structure, this one certifies that the *data* keeps the
// per-key choices independent.

// KeyTouch lists the candidate-key values one component can contribute to
// a repair source: the union, over the component's alternatives, of the
// key-column projections of the tuples it contributes (canonical
// tuple-key encodings).
type KeyTouch struct {
	// Comp identifies the component (an index into the decomposition's
	// component list, as used by ComponentCatalog).
	Comp int
	// Keys are the canonical key values the component can contribute.
	Keys []string
}

// SplitAnalysis reports how a repair over an uncertain source decomposes.
type SplitAnalysis struct {
	// MergeGroups lists the sets of ≥ 2 components whose contributed key
	// values overlap, directly or transitively: each set must merge into
	// one component before its keys can be split. Component order within
	// a group and group order follow the input order.
	MergeGroups [][]int
	// NoMerge reports that no two components share a key: splitting each
	// component in place avoids merging entirely.
	NoMerge bool
}

// AnalyzeSplit partitions the source's components by shared candidate
// keys (transitive closure) and returns the groups that must merge.
func AnalyzeSplit(touches []KeyTouch) *SplitAnalysis {
	parent := make([]int, len(touches))
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
	owner := map[string]int{} // key value → first touch index
	for i, tch := range touches {
		for _, k := range tch.Keys {
			if j, ok := owner[k]; ok {
				parent[find(i)] = find(j)
			} else {
				owner[k] = i
			}
		}
	}
	members := map[int][]int{}
	var roots []int
	for i := range touches {
		r := find(i)
		if _, ok := members[r]; !ok {
			roots = append(roots, r)
		}
		members[r] = append(members[r], i)
	}
	out := &SplitAnalysis{NoMerge: true}
	for _, r := range roots {
		if len(members[r]) < 2 {
			continue
		}
		group := make([]int, 0, len(members[r]))
		for _, i := range members[r] {
			group = append(group, touches[i].Comp)
		}
		out.MergeGroups = append(out.MergeGroups, group)
		out.NoMerge = false
	}
	return out
}
