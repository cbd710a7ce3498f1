package algebra

import (
	"fmt"

	"maybms/internal/colbatch"
	"maybms/internal/expr"
	"maybms/internal/schema"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

// Aggregate groups its input by GroupBy column indexes and computes the
// aggregate specs per group. The output schema is the group-by columns
// followed by one column per aggregate (named in Out).
//
// With no group-by columns the operator is a scalar aggregate: it emits
// exactly one row even for empty input (count()=0, sum()=NULL), matching
// SQL. With group-by columns, empty input yields no rows.
//
// Groups are keyed through one reused byte arena. Over a columnar batch the
// vectorizable aggregate arguments are evaluated batch-at-a-time and the
// others row by row through a RowEval, fed per row in spec order, so
// results and error order are the row-at-a-time evaluation's.
type Aggregate struct {
	Child   Operator
	GroupBy []int
	Specs   []expr.AggSpec
	Out     *schema.Schema
	out     *colbatch.Batch
	done    bool
	key     []byte
	vec     []bool
	args    []expr.Vec
	ev      RowEval
}

// aggGroup is one group: its key cells and one accumulator per spec.
type aggGroup struct {
	key  tuple.Tuple
	accs []*expr.Accumulator
}

// Schema implements Operator.
func (a *Aggregate) Schema() *schema.Schema { return a.Out }

// Open implements Operator: it drains the child and computes all groups.
func (a *Aggregate) Open(outer *expr.Context) error {
	if a.Out.Len() != len(a.GroupBy)+len(a.Specs) {
		return fmt.Errorf("%w: aggregate schema %s does not cover %d group cols + %d aggs",
			ErrExec, a.Out, len(a.GroupBy), len(a.Specs))
	}
	if err := a.Child.Open(outer); err != nil {
		return err
	}
	defer a.Child.Close()
	a.vec = a.vec[:0]
	for _, spec := range a.Specs {
		a.vec = append(a.vec, spec.Arg != nil && expr.Vectorizable(spec.Arg))
	}
	a.ev.Reset(a.Child.Schema(), outer)
	index := map[string]int{}
	var groups []aggGroup
	for {
		b, err := a.Child.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if groups, err = a.add(b, index, groups); err != nil {
			return err
		}
	}
	if len(groups) == 0 && len(a.GroupBy) == 0 {
		// Scalar aggregate over empty input: one row of empty-input results.
		groups = append(groups, a.newGroup(tuple.Tuple{}))
	}
	a.out = a.result(groups)
	a.done = false
	return nil
}

func (a *Aggregate) newGroup(key tuple.Tuple) aggGroup {
	g := aggGroup{key: key, accs: make([]*expr.Accumulator, len(a.Specs))}
	for i, spec := range a.Specs {
		g.accs[i] = expr.NewAccumulator(spec)
	}
	return g
}

// add feeds b's rows to their groups, appending new groups in first-
// appearance order.
func (a *Aggregate) add(b *colbatch.Batch, index map[string]int, groups []aggGroup) ([]aggGroup, error) {
	rowBacked := b.RowBacked()
	a.args = a.args[:0]
	for s, spec := range a.Specs {
		var v expr.Vec
		if !rowBacked && a.vec[s] {
			v = expr.EvalVec(spec.Arg, b)
		}
		a.args = append(a.args, v)
	}
	for i := 0; i < b.Len(); i++ {
		a.key = b.AppendKeyOn(a.key[:0], a.GroupBy, i)
		gi, ok := index[string(a.key)]
		if !ok {
			kt := make(tuple.Tuple, len(a.GroupBy))
			for j, c := range a.GroupBy {
				kt[j] = b.At(i, c)
			}
			gi = len(groups)
			index[string(a.key)] = gi
			groups = append(groups, a.newGroup(kt))
		}
		for s, acc := range groups[gi].accs {
			var err error
			switch {
			case a.Specs[s].Arg == nil:
				acc.AddStar()
			case !rowBacked && a.vec[s]:
				if err = a.args[s].ErrAt(i); err == nil {
					err = acc.AddValue(a.args[s].At(i))
				}
			default:
				err = acc.Add(a.ev.Row(b, i))
			}
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrExec, err)
			}
		}
	}
	return groups, nil
}

// result lays the groups out as tuples over one value slab, in the form
// colbatch picks for their number.
func (a *Aggregate) result(groups []aggGroup) *colbatch.Batch {
	w := a.Out.Len()
	slab := make([]value.Value, 0, len(groups)*w)
	rows := make([]tuple.Tuple, len(groups))
	for i, g := range groups {
		start := len(slab)
		slab = append(slab, g.key...)
		for _, acc := range g.accs {
			slab = append(slab, acc.Result())
		}
		rows[i] = tuple.Tuple(slab[start:len(slab):len(slab)])
	}
	return colbatch.FromRows(a.Out, rows)
}

// NextBatch implements Operator.
func (a *Aggregate) NextBatch() (*colbatch.Batch, error) {
	if a.done || a.out.Len() == 0 {
		return nil, nil
	}
	a.done = true
	return a.out, nil
}

// Close implements Operator.
func (a *Aggregate) Close() error { return nil }
