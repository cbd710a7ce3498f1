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
// it is non-nil — by their values on cols. Two rows are in one group when
// their key cells encode alike (AppendKeyOn): of one kind and payload, NULL
// equal to NULL, floats by their bits. Each row's key is hashed to 64 bits
// column at a time (HashKeysOn); rows of one hash whose keys differ are told
// apart by a chain of the hash's groups, compared cell by cell (SameKeyOn).
func PartitionBy(b *colbatch.Batch, cols []int, subset []int32) Partition {
	rows := subset
	if rows == nil {
		rows = make([]int32, b.Len())
		for i := range rows {
			rows[i] = int32(i)
		}
	}
	hashes := make([]uint64, len(rows))
	hashKeys(b, cols, rows, hashes)

	// Per group: its first row; the hash's previous group, or -1; its size,
	// then its next slot in Rows. There are at most len(rows) groups.
	n := len(rows)
	groups := make([]int32, 3*n)
	first, chain, next := groups[:0:n], groups[n:n:2*n], groups[2*n:2*n]
	index := map[uint64]int32{} // hash → its latest group
	ids := make([]int32, n)
	for k, r := range rows {
		head, ok := index[hashes[k]]
		if !ok {
			head = -1
		}
		g := head
		for g >= 0 && !b.SameKeyOn(cols, int(first[g]), int(r)) {
			g = chain[g]
		}
		if g < 0 {
			g = int32(len(first))
			first, chain, next = append(first, r), append(chain, head), append(next, 0)
			index[hashes[k]] = g
		}
		ids[k] = g
		next[g]++
	}
	p := Partition{Rows: make([]int32, len(ids)), Start: make([]int32, len(next)+1)}
	for g, size := range next {
		p.Start[g+1] = p.Start[g] + size
		next[g] = p.Start[g]
	}
	for k, g := range ids {
		p.Rows[next[g]] = rows[k]
		next[g]++
	}
	return p
}

// hashKeys is the partition's key hash, a variable so that a test can make
// every key collide.
var hashKeys = (*colbatch.Batch).HashKeysOn

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
