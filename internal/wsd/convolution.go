package wsd

// The convolution route: a scalar SUM or COUNT over flat, independent
// components, answered with no merge — the paper's Examples 2.8 (`select
// possible sum(B) from I`) and 2.10 (`select conf from I where 50 >
// (select sum(B) from I)`) at any number of components.
//
// The planner recognises the statement (plan.ScalarAggregate) when the
// aggregate's input keeps the bag identity: in a world choosing a1, …, ak,
// the input's rows are Q(cert)'s followed by ΔQ(c1, a1), …, ΔQ(ck, ak). So
// the world's aggregate is the certain part's partial plus one partial per
// component, taken from the alternative the world chooses. The input is
// evaluated twice, as on the componentwise route — over the certain parts,
// and as one tagged delta split by tag — and each (component, alternative)
// gets its partial: its rows' sum or count, 0 and "no value" when it has no
// row. The components are independent, so folding them one at a time — every
// value reached so far plus every partial of the next component, probabilities
// multiplied and the values deduplicated — gives the aggregate's distribution
// over all worlds (Ré and Suciu, "Efficient Evaluation of HAVING Queries on a
// Probabilistic Database", DBPL 2007). POSSIBLE is its support, CERTAIN its
// one value if it has one, CONF its probabilities; Example 2.10's form adds
// to the state whether the outer FROM's table has a row, and its confidence
// is the weight of the states where it has one and the comparison holds.
//
// The state is bounded by the number of distinct partial sums, not by the
// worlds: P4's n two-way keys with values k%10 and 10+k%10 reach n + 1
// values. A fold past MergeLimit values fails with ErrMergeTooBig; it cannot
// fail where the merge would fit, as the values never outnumber the
// alternatives the merge would make. The decomposition is left as it is.
//
// Only integer sums are folded. A SUM reading a float (or any non-integer)
// value keeps the merge route, whose row-order float sum the naive engine's
// is bit for bit; the route reads the partials to decide, as a split reads
// its source's keys.

import (
	"fmt"
	"sort"

	"maybms/internal/colbatch"
	"maybms/internal/core"
	"maybms/internal/expr"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

// partial is the aggregate's share of one part — the certain part, or one
// (component, alternative) — and, added up, of a world.
type partial struct {
	// sum is SUM's integer sum or COUNT's count; any reports that SUM saw a
	// non-NULL value (SUM over none is NULL). row reports that the boolean
	// form's outer table has a row.
	sum      int64
	any, row bool
}

// plus is the partial of two parts together.
func (p partial) plus(q partial) partial {
	return partial{sum: p.sum + q.sum, any: p.any || q.any, row: p.row || q.row}
}

// convolution is a scalar aggregate's partials: the certain part's, and one
// per alternative of every listed component.
type convolution struct {
	sc    *plan.ScalarAggregate
	sch   *schema.Schema // the answer's, before a conf column
	comps []int          // the listed components' positions, ascending
	base  partial
	parts [][]partial // parts[i][a]: alternative a of comps[i]
	rows  int         // delta rows the partials were read from
}

// foldState is one distinct partial a world can reach, with the total
// probability of the worlds reaching it.
type foldState struct {
	p    partial
	prob float64
}

// routeConvolution decides a closure of an.Scalar over flat components: it
// evaluates the aggregate's input over the certain parts and as one tagged
// delta, and takes the convolution route unless a partial is not an integer
// sum — or the input fails to evaluate — where routeQuery keeps the merge.
func (d *WSD) routeConvolution(an *plan.ComponentAnalysis, cl core.Closure, ev evaluator) (decision, bool) {
	sc := an.Scalar
	closes := cl == core.ClosureConf || sc != nil && sc.Outer == "" && (cl == core.ClosurePossible || cl == core.ClosureCertain)
	if sc == nil || !closes || d.treeInvolved(an.Comps) {
		return decision{}, false
	}
	in := ev
	in.prep, in.deltas = sc.Input, sc.Deltas
	p, err := d.queryByComponent(an.Comps, in.part, nil)
	if err != nil {
		return decision{}, false
	}
	c := &convolution{sc: sc, sch: ev.prep.Schema(), comps: an.Comps, parts: make([][]partial, len(an.Comps))}
	var ok bool
	if c.base, ok = c.partialOf(whole(p.base)); !ok {
		return decision{}, false
	}
	total := 0
	for _, ci := range c.comps {
		total += len(d.comps[ci].Alts)
	}
	flat := make([]partial, total)
	for i, ci := range c.comps {
		n := len(d.comps[ci].Alts)
		c.parts[i], flat = flat[:n:n], flat[n:]
	}
	at := 0 // index into comps of the part's component: parts ascend
	for _, pt := range p.parts {
		for c.comps[at] != pt.ci {
			at++
		}
		if c.parts[at][pt.a], ok = c.partialOf(pt.rows); !ok {
			return decision{}, false
		}
		c.rows += pt.rows.Len()
	}
	if sc.Outer != "" {
		k := key(sc.Outer)
		c.base.row = d.certain[k].Len() > 0
		for i, ci := range c.comps {
			for a := range d.comps[ci].Alts {
				c.parts[i][a].row = d.comps[ci].Alts[a].Contrib[k].Len() > 0
			}
		}
	}
	return decision{kind: routeConvolution, comps: an.Comps, conv: c}, true
}

// partialOf is the aggregate over the rows r of the evaluated input; ok is
// false when SUM meets a value other than an integer or NULL.
func (c *convolution) partialOf(r rowRange) (p partial, ok bool) {
	if c.sc.Kind == expr.AggCountStar {
		return partial{sum: int64(r.Len())}, true
	}
	for i := r.lo; i < r.hi; i++ {
		v := r.b.At(i, 0)
		switch {
		case v.IsNull():
		case c.sc.Kind == expr.AggCount:
			p.sum++
		case v.Kind() != value.KindInt:
			return partial{}, false
		default:
			p.sum += v.AsInt()
			p.any = true
		}
	}
	return p, true
}

// value is the aggregate's value at partial p.
func (c *convolution) value(p partial) value.Value {
	if c.sc.Kind == expr.AggSum && !p.any {
		return value.Null()
	}
	return value.Int(p.sum)
}

// fold convolves the components' partials into the distinct partials the
// worlds reach, in the order first reached, weighed when weigh is set. It
// polls the interrupt hook once per component and fails with ErrMergeTooBig
// once more than MergeLimit partials are reached over two or more
// components.
func (d *WSD) fold(c *convolution, weigh bool) ([]foldState, error) {
	cur := []foldState{{p: c.base, prob: 1}}
	var next []foldState
	at := map[partial]int{} // a reached partial's position in next
	for i, ci := range c.comps {
		if err := d.interrupted(); err != nil {
			return nil, err
		}
		alts := d.comps[ci].Alts
		next = next[:0]
		clear(at)
		for _, s := range cur {
			for a, pa := range c.parts[i] {
				k := s.p.plus(pa)
				j, seen := at[k]
				if !seen {
					j = len(next)
					at[k] = j
					next = append(next, foldState{p: k})
				}
				if weigh {
					next[j].prob += s.prob * alts[a].Prob
				}
			}
		}
		if len(c.comps) > 1 && len(next) > d.MergeLimit {
			return nil, fmt.Errorf("%w: convolution of %d components reached %d values after %d, limit %d",
				ErrMergeTooBig, len(c.comps), len(next), i+1, d.MergeLimit)
		}
		cur, next = next, cur
	}
	return cur, nil
}

// runConvolution answers closure cl from the folded partials: the
// aggregate's values ascending (NULL first) — all of them for POSSIBLE, the
// one value for CERTAIN if there is one, each with its confidence for CONF —
// or, for the boolean form, the empty tuple with the confidence of the worlds
// where the outer table has a row and the comparison holds, when some world
// has it.
func (d *WSD) runConvolution(c *convolution, cl core.Closure) (*relation.Relation, error) {
	sp := d.trace.Begin(routeConvolution.String())
	defer sp.End(d.trace)
	sp.Set("components", len(c.comps))
	sp.Set("delta_rows", c.rows)
	states, err := d.fold(c, cl.IsConf())
	if err != nil {
		return nil, err
	}
	sp.Set("fold_states", len(states))
	sch := c.sch
	if cl.IsConf() {
		sch = sch.Concat(confSchema())
	}
	var rows []tuple.Tuple
	if c.sc.Outer != "" {
		conf, held := 0.0, false
		for _, s := range states {
			if s.p.row && c.sc.Holds(c.value(s.p)) {
				conf, held = conf+s.prob, true
			}
		}
		if held {
			rows = append(rows, tuple.Tuple{value.Float(min(conf, 1))})
		}
		return relation.FromBatch(colbatch.FromRows(sch, rows)), nil
	}
	if cl == core.ClosureCertain && len(states) > 1 {
		states = nil
	}
	sort.Slice(states, func(i, j int) bool {
		x, y := states[i].p, states[j].p
		if x.any != y.any {
			return !x.any
		}
		return x.sum < y.sum
	})
	w := sch.Len()
	cells := make([]value.Value, 0, w*len(states)) // one slab for every row
	for _, s := range states {
		cells = append(cells, c.value(s.p))
		if cl.IsConf() {
			cells = append(cells, value.Float(min(s.prob, 1)))
		}
		rows = append(rows, cells[len(cells)-w:len(cells):len(cells)])
	}
	return relation.FromBatch(colbatch.FromRows(sch, rows)), nil
}
