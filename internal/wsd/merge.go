package wsd

// Merges restructure the decomposition and nothing else: mergeComponents
// multiplies the involved components into one flat component (condensing
// d-trees first), condenseTrees flattens trees ahead of a split, and both
// refuse past MergeLimit before touching anything. A merged component is an
// ordinary component afterwards — every statement over it is answered by the
// same parts, fold, storage and piece rewrite as any other (componentwise.go,
// fold.go, dml.go). Assert, which filters the merged alternatives, is the one
// consumer kept here.

import (
	"fmt"
	"math/big"
	"slices"

	"maybms/internal/core"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/sqlparse"
)

// mergeCount is a merge's alternative count n as an int, and false past
// 2^31, where every merge is refused.
func mergeCount(n *big.Int) (int, bool) {
	if !n.IsInt64() || n.Int64() > 1<<31 {
		return 0, false
	}
	return int(n.Int64()), true
}

// mergedAlternatives computes the alternative count a merge of comps would
// produce, without merging, and whether mergeComponents accepts it: fits is
// false when the count overflows or exceeds MergeLimit — except for a lone
// childless component, which is returned as it is and multiplies nothing.
// Tree-involved components first condense whole trees (see condenseTrees),
// so the count is the product of the involved trees' world counts — the
// per-component alternative product in the flat case. route and
// mergeComponents share this one number, so a statement is refused for size
// before anything is restructured.
func (d *WSD) mergedAlternatives(comps []int) (alts int, fits bool) {
	closure := d.rootClosure(comps)
	children := d.index().children
	product := big.NewInt(1)
	for _, ci := range closure {
		if d.comps[ci].Parent >= 0 {
			continue
		}
		if product.Mul(product, d.treeWorlds(children, ci)); product.BitLen() > 32 {
			return 0, false
		}
	}
	alts, ok := mergeCount(product)
	return alts, ok && (len(closure) <= 1 || alts <= d.MergeLimit)
}

// mergeComponents replaces the components at the given indexes with their
// product: one alternative per combination, with multiplied probabilities
// and unioned contributions. This is the *partial expansion* at the heart
// of WSD query processing — bounded by MergeLimit, never the full world
// count — and a merge past the bound is refused before anything is
// restructured. A merge commits with its statement: the runner's snapshot
// undoes the merge of one that fails. It returns the merged component's
// index (-1 when idx is empty).
//
// Nested components are handled by first *condensing*: every involved
// index is expanded to the full d-tree containing it, each multi-node
// tree is flattened into one flat component (one alternative per valid
// digit assignment, in expansion order), and only then does condense run
// again, over the flat components, whose assignments are their product.
// Every merge-based route (Assert, the merge route's closures and storage,
// DML rewrites over uncertain expressions, spanning world groups) is
// thereby tree-correct without further changes.
func (d *WSD) mergeComponents(idx []int) (int, error) {
	if dec := d.mergeDecision(idx); dec.kind == routeRefused {
		return -1, dec.err
	}
	if len(idx) == 0 {
		return -1, nil
	}
	idx, err := d.condenseFitting(idx)
	if err != nil {
		return -1, err
	}
	if len(idx) == 1 {
		return idx[0], nil
	}
	if _, err := d.condense(idx); err != nil {
		return -1, err
	}
	return len(d.comps) - 1, nil
}

// condenseTrees condenses the d-trees containing the given indexes ahead of
// a split that cannot nest under them (split.go), under the same bound and
// the same promise as mergeComponents: a tree whose condensed alternatives
// would exceed MergeLimit is refused before any tree is restructured.
func (d *WSD) condenseTrees(idx []int) ([]int, error) {
	if dec := d.condenseDecision(idx); dec.kind == routeRefused {
		return nil, dec.err
	}
	return d.condenseFitting(idx)
}

// condenseDecision decides condenseTrees(idx): routeMerge with the largest
// condensed tree's alternatives, or a refusal when one exceeds MergeLimit.
func (d *WSD) condenseDecision(idx []int) decision {
	closure := d.rootClosure(idx)
	children := d.index().children
	dec := decision{kind: routeMerge, comps: closure}
	for _, ci := range closure {
		if d.comps[ci].Parent >= 0 || len(children[ci]) == 0 {
			continue // not a root, or a lone component: nothing condenses
		}
		n, ok := mergeCount(d.treeWorlds(children, ci))
		if !ok || n > d.MergeLimit {
			return d.tooBig(closure)
		}
		dec.alts = max(dec.alts, n)
	}
	return dec
}

// condenseFitting prepares component indexes for a flat product: indexes
// are expanded to the full d-trees containing them, every multi-node tree
// is condensed into one flat component, and the surviving (now flat)
// indexes are returned. Flat decompositions pass through untouched. The
// callers have checked the condensed sizes against MergeLimit.
func (d *WSD) condenseFitting(idx []int) ([]int, error) {
	if d.flat() {
		return idx, nil
	}
	ix := d.index()
	closure := d.rootClosure(idx)
	var roots []int
	for _, ci := range closure {
		if d.comps[ci].Parent < 0 {
			roots = append(roots, ci)
		}
	}
	// Group the closure by tree, roots ascending, keeping member IDs
	// (positions go stale as trees condense; IDs of untouched components do
	// not).
	trees := make([][]int, len(roots))
	for _, ci := range closure {
		t, _ := slices.BinarySearch(roots, ix.root(ci))
		trees[t] = append(trees[t], d.comps[ci].ID)
	}
	resultIDs := make([]int, 0, len(trees))
	for _, ids := range trees {
		if len(ids) == 1 {
			resultIDs = append(resultIDs, ids[0])
			continue
		}
		ix = d.index()
		idxs := make([]int, len(ids))
		for i, id := range ids {
			idxs[i] = ix.position(id)
		}
		c, err := d.condense(idxs)
		if err != nil {
			return nil, err
		}
		resultIDs = append(resultIDs, c.ID)
	}
	ix = d.index()
	out := make([]int, len(resultIDs))
	for i, id := range resultIDs {
		out[i] = ix.position(id)
	}
	return out, nil
}

// condense flattens the components at the given indexes into one flat
// component: one alternative per valid digit assignment (walkAssignments,
// the first component most significant), with the assignment's path
// probability and the union of the active alternatives' contributions in
// component list order. Over one complete d-tree that condenses the tree;
// over flat components it is their product. Bounded by MergeLimit (checked
// by mergeComponents and condenseTrees before anything condenses); counts as
// a merge (it restructures the decomposition). The world-set represented is
// unchanged. It polls the interrupt before each alternative; the merged
// alternatives are new, and the condensed components are only unlinked from
// the component list, never written.
func (d *WSD) condense(idxs []int) (*Component, error) {
	idxs = slices.Sorted(slices.Values(idxs)) // a copy: the caller's may be an analysis's
	var alts []Alternative
	err := d.walkAssignments(idxs, func(digits []int, prob float64) error {
		if err := d.interrupted(); err != nil {
			return err
		}
		na := Alternative{Contrib: map[string]*relation.Relation{}}
		if d.Weighted {
			na.Prob = prob
		}
		union := map[string][]*relation.Relation{}
		for p, ci := range idxs {
			if digits[p] < 0 {
				continue
			}
			for name, rel := range d.comps[ci].Alts[digits[p]].Contrib {
				union[name] = append(union[name], rel)
			}
		}
		for name, rels := range union {
			na.Contrib[name] = concatRels(rels[0].Schema, rels)
		}
		alts = append(alts, na)
		return nil
	})
	if err != nil {
		return nil, err
	}

	d.merges.Add(1)
	d.editList()
	for i := len(idxs) - 1; i >= 0; i-- {
		d.comps = append(d.comps[:idxs[i]], d.comps[idxs[i]+1:]...)
	}
	out := &Component{ID: d.nextID, Alts: alts, Parent: -1}
	d.nextID++
	d.comps = append(d.comps, out)
	return out, nil
}

func oneIfWeighted(weighted bool) float64 {
	if weighted {
		return 1
	}
	return 0
}

// routeAssert decides an ASSERT condition (an I-SQL-free boolean
// expression): single over certain data alone, else a merge of the
// components of the relations it reads. It compiles once through the shared
// plan cache, and the run binds it per merged alternative through one memo.
func (d *WSD) routeAssert(e sqlparse.Expr) (decision, func() error, error) {
	compileCat := d.schemaCatalog()
	pp, err := plan.Cached(plan.SharedCache(), d.trace, &d.lookups, "ca\x00"+e.String(), compileCat,
		func() (*plan.PreparedPredicate, error) { return plan.PreparePredicate(e, compileCat) })
	if err != nil {
		return decision{}, nil, err
	}
	var involved []int
	for _, name := range sqlparse.ReferencedTables(&sqlparse.SelectStmt{Where: e, Limit: -1}) {
		involved = append(involved, d.componentsFor(name)...)
	}
	dec := decision{kind: routeSingle}
	if len(involved) > 0 {
		dec = d.mergeDecision(sortedUniqueInts(involved))
	}
	return dec, func() error {
		var memo plan.Memo
		outer := core.StatementCtx(d.interrupt, d.trace)
		return d.assert(dec.comps, func(cat plan.Catalog) (bool, error) {
			pred, err := pp.Bind(cat, outer, &memo)
			if err != nil {
				return false, err
			}
			return pred()
		})
	}, nil
}

// assert keeps only the worlds satisfying pred and renormalizes. comps must
// list every component feeding an uncertain relation pred reads. pred runs
// once per alternative, in alternative order, after a poll of the interrupt
// hook; the involved components are merged (partial expansion) and filtered
// locally — thanks to independence, renormalizing within the merged
// component renormalizes the whole world-set (Example 2.5 semantics at WSD
// scale).
func (d *WSD) assert(comps []int, pred func(cat plan.Catalog) (bool, error)) error {
	mi, err := d.mergeComponents(comps)
	if err != nil {
		return err
	}
	if mi < 0 {
		// Pure certain condition: either all worlds survive or none.
		ok, err := pred(newPartsCatalog(d, nil))
		if err != nil {
			return err
		}
		if !ok {
			return ErrEmpty
		}
		return nil
	}
	merged := d.comps[mi]
	var kept []Alternative
	total := 0.0
	for i, a := range merged.Alts {
		if err := d.interrupted(); err != nil {
			return err
		}
		ok, err := pred(newPartsCatalog(d, map[int]int{mi: i}))
		if err != nil {
			return err
		}
		if ok {
			kept = append(kept, a)
			total += a.Prob
		}
	}
	if len(kept) == 0 {
		return ErrEmpty
	}
	if d.Weighted {
		if total <= 0 {
			return fmt.Errorf("assert left zero total probability")
		}
		for i := range kept {
			kept[i].Prob /= total
		}
	}
	d.own(mi).Alts = kept
	return nil
}
