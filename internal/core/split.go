package core

import (
	"errors"
	"fmt"

	"maybms/internal/relation"
)

// ErrTooManyWorlds guards against explosive splits on the naive
// (enumerating) engine; the WSD engine handles such workloads compactly.
var ErrTooManyWorlds = errors.New("world-set would exceed the session's MaxWorlds limit; use the WSD engine for workloads of this size")

// piece is one alternative produced by a world split: a sub-relation of the
// split input and its conditional probability (the probability of choosing
// this piece given the parent world). Probs of all pieces of one split sum
// to 1 in weighted mode and are 0 in unweighted mode.
type piece struct {
	rel  *relation.Relation
	prob float64
}

// repairs enumerates the repairs of rel under the key columns keyIdx: every
// way of choosing exactly one tuple from each key group (the maximal
// subsets of rel satisfying the key), last group fastest. With weightIdx >=
// 0, the probability of choosing tuple t within its group is w(t)/Σ_group w
// (Example 2.4); with weighted && weightIdx < 0 the choice is uniform
// within each group. The empty input has one repair, the empty relation.
// maxPieces bounds the enumeration.
func repairs(rel *relation.Relation, keyIdx []int, weightIdx int, weighted bool, maxPieces int) ([]piece, error) {
	b := rel.Batch()
	p := relation.PartitionBy(b, keyIdx, nil)
	total := 1
	sizes := make([]int, p.Len())
	probs := make([][]float64, p.Len())
	for g := range sizes {
		rows := p.Group(g)
		if total*len(rows) > maxPieces {
			return nil, fmt.Errorf("%w (key groups multiply beyond %d repairs)", ErrTooManyWorlds, maxPieces)
		}
		total *= len(rows)
		sizes[g] = len(rows)
		if weighted {
			w, err := relation.Weights(b, rows, weightIdx)
			if err != nil {
				return nil, err
			}
			probs[g] = relation.Normalize(w)
		}
	}

	out := make([]piece, 0, total)
	sel := make([]int32, len(sizes))
	relation.EachPick(sizes, func(pick []int) error {
		pc := piece{prob: oneIf(weighted)}
		for g, i := range pick {
			sel[g] = p.Group(g)[i]
			if weighted {
				pc.prob *= probs[g][i]
			}
		}
		pc.rel = relation.FromBatch(b.Pick(sel))
		out = append(out, pc)
		return nil
	})
	return out, nil
}

// choices partitions rel by the attribute columns attrIdx: one piece per
// distinct value combination, containing that partition (Example 2.6).
// With weightIdx >= 0 the piece probability is Σ_partition w / Σ w
// (Example 2.7); with weighted && weightIdx < 0 it is uniform over pieces.
func choices(rel *relation.Relation, attrIdx []int, weightIdx int, weighted bool) ([]piece, error) {
	b := rel.Batch()
	p := relation.PartitionBy(b, attrIdx, nil)
	if p.Len() == 0 {
		return nil, fmt.Errorf("choice of over an empty relation produces no worlds")
	}
	var probs []float64
	if weighted {
		var err error
		if probs, err = p.ChoiceProbs(b, weightIdx); err != nil {
			return nil, err
		}
	}
	out := make([]piece, p.Len())
	for g := range out {
		out[g].rel = relation.FromBatch(b.Pick(p.Group(g)))
		if weighted {
			out[g].prob = probs[g]
		}
	}
	return out, nil
}

func oneIf(weighted bool) float64 {
	if weighted {
		return 1
	}
	return 0
}
