package core

import (
	"errors"
	"fmt"
	"maybms/internal/colbatch"

	"maybms/internal/relation"
	"maybms/internal/value"
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
// subsets of rel satisfying the key). With weightIdx >= 0, the probability
// of choosing tuple t within its group is w(t)/Σ_group w (Example 2.4);
// with weighted && weightIdx < 0 the choice is uniform within each group.
// maxPieces bounds the enumeration.
func repairs(rel *relation.Relation, keyIdx []int, weightIdx int, weighted bool, maxPieces int) ([]piece, error) {
	order, groups := rel.GroupBy(keyIdx)
	if len(order) == 0 {
		// Empty input: the only repair is the empty relation.
		return []piece{{rel: relation.New(rel.Schema), prob: oneIf(weighted)}}, nil
	}

	// Per-group choice probabilities (normalized within the group).
	total := 1
	groupProbs := make([][]float64, len(order))
	for gi, key := range order {
		tuples := groups[key]
		if total*len(tuples) > maxPieces {
			return nil, fmt.Errorf("%w (key groups multiply beyond %d repairs)", ErrTooManyWorlds, maxPieces)
		}
		total *= len(tuples)
		probs := make([]float64, len(tuples))
		if weighted {
			if weightIdx >= 0 {
				sum := 0.0
				for _, t := range tuples {
					w, err := weightOf(t[weightIdx])
					if err != nil {
						return nil, err
					}
					sum += w
				}
				for i, t := range tuples {
					w, _ := weightOf(t[weightIdx])
					probs[i] = w / sum
				}
			} else {
				for i := range tuples {
					probs[i] = 1 / float64(len(tuples))
				}
			}
		}
		groupProbs[gi] = probs
	}

	// Odometer over one choice per group.
	choice := make([]int, len(order))
	out := make([]piece, 0, total)
	for {
		p := piece{rel: relation.New(rel.Schema), prob: oneIf(weighted)}
		for gi, key := range order {
			t := groups[key][choice[gi]]
			p.rel.AppendRow(t)
			if weighted {
				p.prob *= groupProbs[gi][choice[gi]]
			}
		}
		out = append(out, p)
		// Advance odometer.
		i := len(choice) - 1
		for ; i >= 0; i-- {
			choice[i]++
			if choice[i] < len(groups[order[i]]) {
				break
			}
			choice[i] = 0
		}
		if i < 0 {
			return out, nil
		}
	}
}

// choices partitions rel by the attribute columns attrIdx: one piece per
// distinct value combination, containing that partition (Example 2.6).
// With weightIdx >= 0 the piece probability is Σ_partition w / Σ w
// (Example 2.7); with weighted && weightIdx < 0 it is uniform over pieces.
func choices(rel *relation.Relation, attrIdx []int, weightIdx int, weighted bool) ([]piece, error) {
	order, groups := rel.GroupBy(attrIdx)
	if len(order) == 0 {
		return nil, fmt.Errorf("choice of over an empty relation produces no worlds")
	}
	out := make([]piece, 0, len(order))
	var weights []float64
	totalW := 0.0
	if weighted && weightIdx >= 0 {
		weights = make([]float64, len(order))
		for i, key := range order {
			sum := 0.0
			for _, t := range groups[key] {
				w, err := weightOf(t[weightIdx])
				if err != nil {
					return nil, err
				}
				sum += w
			}
			weights[i] = sum
			totalW += sum
		}
		if totalW <= 0 {
			return nil, fmt.Errorf("choice of: total weight is %g, want > 0", totalW)
		}
	}
	for i, key := range order {
		p := piece{rel: relation.FromBatch(colbatch.FromRows(rel.Schema, groups[key]))}
		if weighted {
			if weightIdx >= 0 {
				p.prob = weights[i] / totalW
			} else {
				p.prob = 1 / float64(len(order))
			}
		}
		out = append(out, p)
	}
	return out, nil
}

// weightOf validates and extracts a weight value: numeric and positive
// (the paper: "this makes sense, of course, if all D-values are numbers
// greater than zero").
func weightOf(v value.Value) (float64, error) {
	if !v.IsNumeric() {
		return 0, fmt.Errorf("weight value %v is not numeric", v)
	}
	w := v.AsFloat()
	if w <= 0 {
		return 0, fmt.Errorf("weight value %g must be positive", w)
	}
	return w, nil
}

func oneIf(weighted bool) float64 {
	if weighted {
		return 1
	}
	return 0
}
