package wsd

// APPROX CONF escape hatch: when the classic routing would have to merge
// involved components past MergeLimit, the confidence closure degrades to
// a seeded Monte-Carlo estimate instead of failing. Worlds are sampled by
// drawing one alternative per involved component according to its
// probabilities; a tuple's confidence estimate is the fraction of sampled
// worlds whose answer contains it. The estimator is unbiased with standard
// error ≤ 1/(2√samples), surfaced as a trailing "cerr" column next to
// each estimate (and as the trace's stderr_bound attribute). Sampling runs
// on the batch-native closure seam: each world's answer comes back as a
// colbatch batch and is counted on arena-encoded batch keys.

import (
	"fmt"
	"math"
	"math/rand"

	"maybms/internal/colbatch"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

// APPROX CONF samples mcSamples worlds from a sampler seeded with mcSeed:
// the estimate is deterministic.
const (
	mcSamples       = 1000
	mcSeed    int64 = 0
)

func cerrSchema() *schema.Schema { return schema.New("cerr") }

// confMonteCarlo estimates the CONF closure over the worlds spanned by the
// involved components compIdx without merging them: each sample draws one
// alternative per component, evaluates the query in that world, and counts
// the distinct tuples of the answer. Output rows appear in first-appearance
// order across samples, each extended with its estimated confidence and the
// ±1/(2√samples) standard-error bound.
func (d *WSD) confMonteCarlo(compIdx []int, eval func(cat plan.Catalog) (*colbatch.Batch, error)) (*relation.Relation, error) {
	const samples = mcSamples
	approxSamples.Add(samples)
	bound := 1 / (2 * math.Sqrt(samples))
	sp := d.trace.Begin("approx_mc")
	sp.Set("samples", samples)
	sp.Set("seed", mcSeed)
	sp.Set("stderr_bound", fmt.Sprintf("%.4f", bound))
	defer sp.End(d.trace)
	rng := rand.New(rand.NewSource(mcSeed))

	counts := map[string]int{}
	rep := map[string]tuple.Tuple{}
	var order []string
	var out *relation.Relation
	// Sample whole trees: an inactive component (its parent sampled away
	// from the conditioning alternative) contributes nothing, so walk the
	// root closure in list order — parents precede children — and draw a
	// digit only for active components.
	relevant := d.rootClosure(compIdx)
	ix := d.index()
	sel := make(map[int]int, len(relevant))
	seen := map[string]struct{}{}
	var buf []byte
	for s := 0; s < samples; s++ {
		if err := d.interrupted(); err != nil {
			return nil, err
		}
		clear(sel)
		for _, ci := range relevant {
			c := d.comps[ci]
			if c.Parent >= 0 {
				if pa, ok := sel[ix.parent(c)]; !ok || pa != c.ParentAlt {
					continue
				}
			}
			sel[ci] = sampleAlternative(c, rng)
		}
		res, err := eval(newPartsCatalog(d, sel))
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = relation.New(res.Schema.Concat(confSchema()).Concat(cerrSchema()))
		}
		clear(seen)
		for r, n := 0, res.Len(); r < n; r++ {
			buf = res.AppendKey(buf[:0], r)
			if _, dup := seen[string(buf)]; dup {
				continue
			}
			k := string(buf)
			seen[k] = struct{}{}
			if _, ok := counts[k]; !ok {
				order = append(order, k)
				// Row() of a row-form batch returns the stored tuple; clone
				// before extending it below.
				rep[k] = res.Row(r).Clone()
			}
			counts[k]++
		}
	}
	for _, k := range order {
		conf := float64(counts[k]) / float64(samples)
		out.MustAppend(append(rep[k], value.Float(conf), value.Float(bound)))
	}
	return out, nil
}

// sampleAlternative draws an alternative index of c according to the
// alternatives' probabilities (the last alternative absorbs residual mass,
// so float accumulation noise cannot select out of range).
func sampleAlternative(c *Component, rng *rand.Rand) int {
	u := rng.Float64()
	acc := 0.0
	for i := 0; i < len(c.Alts)-1; i++ {
		acc += c.Alts[i].Prob
		if u < acc {
			return i
		}
	}
	return len(c.Alts) - 1
}
