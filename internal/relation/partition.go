package relation

import (
	"fmt"
	"math"
	"slices"

	"maybms/internal/colbatch"
	"maybms/internal/value"
)

// Partition groups rows of one batch by their values on a column list — the
// key groups of REPAIR BY KEY and IMPORT REPAIR KEY, the partitions of
// CHOICE OF — in first-appearance order, each group's rows ascending. It is
// one flat selection vector plus group offsets, group g being
// Rows[Start[g]:Start[g+1]]: two slices however many groups there are.
type Partition struct {
	Rows, Start []int32
}

// PartitionBy partitions the rows of b — only the ascending rows subset when
// it is non-nil — by their values on cols.
func PartitionBy(b *colbatch.Batch, cols []int, subset []int32) Partition {
	row := func(k int) int32 {
		if subset != nil {
			return subset[k]
		}
		return int32(k)
	}
	ids := make([]int32, b.Len())
	if subset != nil {
		ids = ids[:len(subset)]
	}
	index := map[string]int32{}
	var next []int32 // per group: its size, then its next slot in Rows
	var key []byte
	for k := range ids {
		key = b.AppendKeyOn(key[:0], cols, int(row(k)))
		g, ok := index[string(key)]
		if !ok {
			g = int32(len(next))
			index[string(key)] = g
			next = append(next, 0)
		}
		ids[k] = g
		next[g]++
	}
	p := Partition{Rows: make([]int32, len(ids)), Start: make([]int32, len(next)+1)}
	for g, n := range next {
		p.Start[g+1] = p.Start[g] + n
		next[g] = p.Start[g]
	}
	for k, g := range ids {
		p.Rows[next[g]] = row(k)
		next[g]++
	}
	return p
}

// Len returns the number of groups.
func (p Partition) Len() int { return len(p.Start) - 1 }

// Group returns the rows of group g.
func (p Partition) Group(g int) []int32 { return p.Rows[p.Start[g]:p.Start[g+1]:p.Start[g+1]] }

// ChoiceProbs returns each group's probability of being chosen: its share
// Σ_group w / Σ w of the weight (Example 2.7), uniform when weightIdx < 0.
func (p Partition) ChoiceProbs(b *colbatch.Batch, weightIdx int) ([]float64, error) {
	w, err := Weights(b, p.Rows, weightIdx)
	if err != nil {
		return nil, err
	}
	fitSum(w)
	probs := make([]float64, p.Len())
	for g := range probs {
		if weightIdx < 0 {
			probs[g] = 1
			continue
		}
		for _, x := range w[p.Start[g]:p.Start[g+1]] {
			probs[g] += x
		}
	}
	return Normalize(probs), nil
}

// Weights is the one weight rule of the splits: it returns the weights of
// the rows sel of b, the cells of column weightIdx — each a finite number
// greater than zero (Section 2: weighting "makes sense, of course, if all
// D-values are numbers greater than zero") or a *WeightError — or 1 for
// every row when weightIdx < 0.
func Weights(b *colbatch.Batch, sel []int32, weightIdx int) ([]float64, error) {
	w := make([]float64, len(sel))
	for i, r := range sel {
		w[i] = 1
		if weightIdx < 0 {
			continue
		}
		v := b.At(int(r), weightIdx)
		if !v.IsNumeric() || v.AsFloat() <= 0 || math.IsInf(v.AsFloat(), 1) {
			return nil, &WeightError{Row: int(r), Value: v}
		}
		w[i] = v.AsFloat()
	}
	return w, nil
}

// A WeightError is a weight cell of row Row that is not a finite number
// greater than zero.
type WeightError struct {
	Row   int
	Value value.Value
}

func (e *WeightError) Error() string {
	if !e.Value.IsNumeric() {
		return fmt.Sprintf("weight value %v is not numeric", e.Value)
	}
	if w := e.Value.AsFloat(); w > 0 {
		return fmt.Sprintf("weight value %g must be finite", w)
	}
	return fmt.Sprintf("weight value %g must be positive", e.Value.AsFloat())
}

// Normalize divides each weight by their sum, in place, and returns w: the
// probabilities of a choice among options weighted w, as w(t)/Σ_group w
// within a key group (Example 2.4).
func Normalize(w []float64) []float64 {
	sum := fitSum(w)
	for i := range w {
		w[i] /= sum
	}
	return w
}

// fitSum returns the sum of w, first dividing every weight by the largest
// (which keeps their shares) when the sum overflows.
func fitSum(w []float64) (sum float64) {
	for _, x := range w {
		sum += x
	}
	if math.IsInf(sum, 1) {
		m := slices.Max(w)
		sum = 0
		for i := range w {
			w[i] /= m
			sum += w[i]
		}
	}
	return sum
}

// EachPick calls f with every way of picking one of sizes[g] (> 0) options
// from each group g, the last group varying fastest: the world order of a
// split that chooses in every group at once. No groups make one pick, the
// empty one. f must not keep pick; an error from f stops the enumeration.
func EachPick(sizes []int, f func(pick []int) error) error {
	pick := make([]int, len(sizes))
	for {
		if err := f(pick); err != nil {
			return err
		}
		g := len(pick) - 1
		for ; g >= 0; g-- {
			if pick[g]++; pick[g] < sizes[g] {
				break
			}
			pick[g] = 0
		}
		if g < 0 {
			return nil
		}
	}
}
