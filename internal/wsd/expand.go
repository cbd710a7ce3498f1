package wsd

import (
	"fmt"
	"math/big"
	"slices"

	"maybms/internal/colbatch"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/world"
	"maybms/internal/worldset"
)

// Expand enumerates the represented world-set explicitly, for equivalence
// testing against the naive engine and for inspecting small WSDs. It
// refuses to expand beyond limit worlds (pass 0 for the default 1<<16).
//
// The enumeration is the activity-aware odometer of walkAssignments over
// every component: components are visited in list order, the last varying
// fastest, and a component whose parent does not select its conditioning
// alternative is inactive — skipped, contributing neither a digit nor
// tuples. On a flat decomposition world wi thus picks the mixed-radix
// digits of wi; with nested components this order reproduces the naive
// chain's interleaved child-world order after repair/choice of an
// uncertain source exactly.
func (d *WSD) Expand(limit int) (*worldset.Set, error) {
	if limit <= 0 {
		limit = DefaultMergeLimit
	}
	count := d.WorldCount()
	if count.Cmp(big.NewInt(int64(limit))) > 0 {
		return nil, fmt.Errorf("cannot expand %s worlds (limit %d): %w", count, limit, ErrMergeTooBig)
	}

	set := &worldset.Set{Weighted: d.Weighted, Worlds: make([]*world.World, 0, int(count.Int64()))}
	idxs := make([]int, len(d.comps))
	for i := range idxs {
		idxs[i] = i
	}
	_ = d.walkAssignments(idxs, func(digits []int, prob float64) error { // visit never fails
		w := world.New(fmt.Sprintf("w%d", len(set.Worlds)+1))
		if d.Weighted {
			w.Prob = prob
		}
		// Each relation is its certain part followed by the active
		// alternatives' contributions.
		perRel := map[string][]*relation.Relation{}
		for k, cert := range d.certain {
			perRel[k] = []*relation.Relation{cert}
		}
		for ci, c := range d.comps {
			if digits[ci] < 0 {
				continue // inactive under this world's parent path
			}
			for name, rel := range c.Alts[digits[ci]].Contrib {
				perRel[name] = append(perRel[name], rel)
			}
		}
		for k, sch := range d.schemas {
			w.Put(d.names[k], concatRels(sch, perRel[k]))
		}
		set.Worlds = append(set.Worlds, w)
		return nil
	})
	return set, nil
}

// concatRels returns the rows of rels, in order, as one relation under sch:
// a zero-copy view of a single relation, else one colbatch.Concat.
func concatRels(sch *schema.Schema, rels []*relation.Relation) *relation.Relation {
	if len(rels) == 1 {
		return rels[0].WithSchema(sch)
	}
	parts := make([]colbatch.Part, len(rels))
	for i, r := range rels {
		parts[i] = colbatch.Part{B: r.Batch()}
	}
	return relation.FromBatch(colbatch.Concat(sch, parts))
}

// walkAssignments calls visit with every valid digit assignment of the
// components at the sorted indexes idxs, in expansion order: idxs[0] most
// significant, the last varying fastest, and a component whose parent is
// not among idxs at its conditioning alternative inactive — pinned to -1,
// contributing no factor. digits is indexed like idxs and reused between
// calls; prob is the product of the active alternatives' probabilities,
// taken left to right. The first error visit returns stops the walk.
func (d *WSD) walkAssignments(idxs []int, visit func(digits []int, prob float64) error) error {
	ix := d.index()
	digits := make([]int, len(idxs))
	var walk func(p int, prob float64) error
	walk = func(p int, prob float64) error {
		if p == len(idxs) {
			return visit(digits, prob)
		}
		c := d.comps[idxs[p]]
		if c.Parent >= 0 {
			if pp, ok := slices.BinarySearch(idxs, ix.parent(c)); !ok || digits[pp] != c.ParentAlt {
				digits[p] = -1
				return walk(p+1, prob)
			}
		}
		for a := range c.Alts {
			digits[p] = a
			if err := walk(p+1, prob*c.Alts[a].Prob); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(0, 1)
}
