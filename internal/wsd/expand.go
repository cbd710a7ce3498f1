package wsd

import (
	"fmt"
	"math/big"

	"maybms/internal/exec"
	"maybms/internal/relation"
	"maybms/internal/world"
	"maybms/internal/worldset"
)

// Expand enumerates the represented world-set explicitly, for equivalence
// testing against the naive engine and for inspecting small WSDs. It
// refuses to expand beyond limit worlds (pass 0 for the default 1<<16).
//
// On a flat decomposition, world wi picks alternative
// (wi / stride[ci]) % |Alts(ci)| of component ci, with the last component
// varying fastest — the mixed-radix digits of wi. With nested components
// the enumeration is the activity-aware odometer: components are visited
// in list order, the last varying fastest, and a component whose parent
// does not select its conditioning alternative is inactive — skipped,
// contributing neither a digit nor tuples. This order reproduces the
// naive chain's interleaved child-world order after repair/choice of an
// uncertain source exactly. Every world is independent of the others and
// the per-world builds run on the worker pool (d.Workers), producing the
// exact world order and probabilities of the sequential odometer.
func (d *WSD) Expand(limit int) (*worldset.Set, error) {
	if limit <= 0 {
		limit = DefaultMergeLimit
	}
	count := d.WorldCount()
	if count.Cmp(big.NewInt(int64(limit))) > 0 {
		return nil, fmt.Errorf("cannot expand %s worlds (limit %d): %w", count, limit, ErrMergeTooBig)
	}
	n := int(count.Int64())

	digitsFor := d.expandDigits(n)

	set := &worldset.Set{Weighted: d.Weighted, Workers: d.Workers}
	worlds, _ := exec.Map(d.Workers, n, func(wi int) (*world.World, error) {
		digits := digitsFor(wi)
		w := world.New(fmt.Sprintf("w%d", wi+1))
		if d.Weighted {
			w.Prob = 1
		}
		// Start from the certain part.
		perRel := map[string]*relation.Relation{}
		for k, sch := range d.schemas {
			rel := relation.New(sch)
			if cert, ok := d.certain[k]; ok {
				rel.AppendRows(cert.Rows())
			}
			perRel[k] = rel
		}
		for ci, c := range d.comps {
			if digits[ci] < 0 {
				continue // inactive under this world's parent path
			}
			a := c.Alts[digits[ci]]
			if d.Weighted {
				w.Prob *= a.Prob
			}
			for name, rel := range a.Contrib {
				perRel[name].AppendRows(rel.Rows())
			}
		}
		for k, rel := range perRel {
			w.Put(d.names[k], rel)
		}
		return w, nil
	})
	set.Worlds = worlds
	if len(set.Worlds) == 0 {
		set.Worlds = append(set.Worlds, world.New("w1"))
		if d.Weighted {
			set.Worlds[0].Prob = 1
		}
	}
	return set, nil
}

// expandDigits returns a lookup from world index to the per-component
// digit vector (-1 marks an inactive component). The flat case computes
// digits by stride arithmetic; with nested components the activity-aware
// odometer materializes all n vectors up front (n is already bounded by
// the expansion limit).
func (d *WSD) expandDigits(n int) func(wi int) []int {
	if d.nested == 0 {
		// stride[ci] = product of the sizes of the components after ci.
		stride := make([]int, len(d.comps))
		acc := 1
		for ci := len(d.comps) - 1; ci >= 0; ci-- {
			stride[ci] = acc
			acc *= len(d.comps[ci].Alts)
		}
		return func(wi int) []int {
			digits := make([]int, len(d.comps))
			for ci, c := range d.comps {
				digits[ci] = (wi / stride[ci]) % len(c.Alts)
			}
			return digits
		}
	}
	all := make([][]int, 0, n)
	idxs := make([]int, len(d.comps))
	for i := range idxs {
		idxs[i] = i
	}
	_ = d.walkAssignments(idxs, func(digits []int, _ float64) error { // visit never fails
		all = append(all, append([]int(nil), digits...))
		return nil
	})
	return func(wi int) []int { return all[wi] }
}

// walkAssignments calls visit with every valid digit assignment of the
// components at the sorted indexes idxs, in expansion order: idxs[0] most
// significant, the last varying fastest, and a component whose parent is
// not among idxs at its conditioning alternative inactive — pinned to -1,
// contributing no factor. digits is indexed like idxs and reused between
// calls; prob is the product of the active alternatives' probabilities,
// taken left to right. The first error visit returns stops the walk.
func (d *WSD) walkAssignments(idxs []int, visit func(digits []int, prob float64) error) error {
	pos := make(map[int]int, len(idxs)) // component ID → position in idxs
	for p, ci := range idxs {
		pos[d.comps[ci].ID] = p
	}
	digits := make([]int, len(idxs))
	var walk func(p int, prob float64) error
	walk = func(p int, prob float64) error {
		if p == len(idxs) {
			return visit(digits, prob)
		}
		c := d.comps[idxs[p]]
		if c.Parent >= 0 {
			if pp, ok := pos[c.Parent]; !ok || digits[pp] != c.ParentAlt {
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
