// The execution model. Every operator runs batch-at-a-time over colbatch
// batches, and the form of a batch is colbatch's choice: a Scan emits the
// relation's batch as it is stored, and an operator's output is built by
// colbatch, which keeps rows under its floor and columns otherwise. Each
// operator picks its inner loop by the form it is handed. A row-form batch
// — an INSERT-built or figure-sized relation, a split contribution, a
// one-row delta — runs the row-at-a-time loop; a columnar batch runs the
// vectorized loop: filters evaluate predicates column-at-a-time into
// selection vectors, projections evaluate expression columns, and the
// joins, Distinct and Aggregate build their hash keys column-wise into
// reusable byte arenas instead of allocating a Tuple.Key() string per row.
// Expressions outside the vectorizable subset run row-at-a-time inside the
// same operators, through a tuple refilled from the columns per row
// (RowEval), so no operator lays a columnar batch out as rows to evaluate
// it. An operator keeps its state across the drains of a bound
// tree (a subquery is drained once per outer row) and resets it on Open.
//
// Answers are row for row and error for error the row-at-a-time reference
// operators' (kept as the oracle of the equivalence fuzz): the same tuples,
// the same first-appearance order, the same wrapped error messages and the
// same error precedence — an operator that hits a per-row error emits the
// rows preceding it first and fails on the next call, so a downstream error
// the row-at-a-time evaluation would reach earlier still wins, and a LIMIT
// stops where a row-at-a-time LIMIT stops.
//
// One operator set replaced two — Volcano row iterators under the floor and
// a batch mirror of them built per drain over it — that each won a workload
// (forcing the mirror everywhere had cost point.short 23–26 % stmts_per_s
// and worlds.naive 13–19 %). The one set holds every workload: medians of
// alternating pairs of `bench/run.sh --workload <w> --seed <i> --seconds 10
// --trace 0` on a 2-core box (seeds 1–10, 1–5 for wide.encode and
// ingest.dml), two operator sets → one:
//
//	workload         stmts_per_s     p50_ms          rss_mb
//	point.short      6600 → 6814     0.189 → 0.189   22.5 → 23.8
//	worlds.naive     160.4 → 199.6   9.08 → 7.24     20.5 → 19.5
//	closure.compact  119.1 → 139.4   13.30 → 12.08   27.9 → 27.5
//	wide.encode      166.8 → 152.3   6.76 → 6.29     37.3 → 37.3
//	ingest.dml       217.4 → 233.5   1.74 → 1.64     50.9 → 52.1
package algebra

import (
	"sort"

	"maybms/internal/colbatch"
	"maybms/internal/expr"
	"maybms/internal/value"
)

// batchSize is the most rows a batch carries.
const batchSize = 1024

// drain runs op to completion into one batch under op's schema, by one of
// two rules. A tree that only reads a stored batch — a Scan, or a Project of
// depth-0 columns over one — is answered by a zero-copy view of that batch
// (see view): the answer may be the stored batch itself. Any other tree is
// drained: a single batch is shared zero-copy as it comes, and several are
// kept as zero-copy headers and concatenated once (colbatch.Concat) into
// columns allocated at their total length, so no cell is copied twice.
// Either way the answer's data is immutable and its slices are
// capacity-clamped, so an append to it never reaches what it shares.
func drain(op Operator, outer *expr.Context) (*colbatch.Batch, error) {
	if b, ok, err := view(op, outer); ok {
		return b, err
	}
	if err := op.Open(outer); err != nil {
		return nil, err
	}
	defer op.Close()
	var first *colbatch.Batch
	var parts []colbatch.Part
	for {
		b, err := op.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		b = b.Slice(0, b.Len()) // the header is op's; the data is immutable
		switch {
		case first == nil:
			first = b
		case parts == nil:
			parts = []colbatch.Part{{B: first}, {B: b}}
		default:
			parts = append(parts, colbatch.Part{B: b})
		}
	}
	switch {
	case first == nil:
		return colbatch.New(op.Schema()), nil
	case parts == nil:
		first.Schema = op.Schema()
		return first, nil
	}
	return colbatch.Concat(op.Schema(), parts), nil
}

// view answers op without opening it when op only reads a stored batch: a
// Scan, or a Project whose every expression is a depth-0 column of the
// scanned batch, is that batch under op's schema (Batch.WithSchema,
// Batch.Project) — no cell copied, after one interrupt poll. ok is false for
// any other tree, which drain then opens and drains.
func view(op Operator, outer *expr.Context) (b *colbatch.Batch, ok bool, err error) {
	var idx []int
	var buf [16]int
	s, isScan := op.(*Scan)
	if !isScan {
		p, isProject := op.(*Project)
		if !isProject {
			return nil, false, nil
		}
		if s, isScan = p.Child.(*Scan); !isScan || len(p.Exprs) != p.Out.Len() {
			return nil, false, nil
		}
		w := s.Rel.Batch().Width()
		idx = buf[:0]
		for _, e := range p.Exprs {
			c, isCol := e.(expr.Column)
			if !isCol || c.Depth != 0 || c.Index < 0 || c.Index >= w {
				return nil, false, nil
			}
			idx = append(idx, c.Index)
		}
	}
	if hook := outer.FindInterrupt(); hook != nil {
		if err := hook(); err != nil {
			return nil, true, err
		}
	}
	stored := s.Rel.Batch()
	switch {
	case stored.Len() == 0:
		return colbatch.New(op.Schema()), true, nil
	case idx == nil:
		return stored.WithSchema(op.Schema()), true, nil
	}
	return stored.Project(idx, op.Schema()), true, nil
}

// interruptHook polls an Interrupt hook (found on the Open context chain)
// once per batch, so at least every batchSize rows.
type interruptHook struct{ hook func() error }

func (h *interruptHook) init(outer *expr.Context) { h.hook = outer.FindInterrupt() }

func (h *interruptHook) poll() error {
	if h.hook == nil {
		return nil
	}
	return h.hook()
}

// sortRows orders perm, indexes of b's rows, stably by keys with the
// canonical tuple order (tuple.Compare) as tie-break.
func sortRows(perm []int32, b *colbatch.Batch, keys []SortKey) {
	w := b.Width()
	sort.SliceStable(perm, func(x, y int) bool {
		i, j := int(perm[x]), int(perm[y])
		for _, k := range keys {
			c := value.Compare(b.At(i, k.Index), b.At(j, k.Index))
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		for c := 0; c < w; c++ {
			if d := value.Compare(b.At(i, c), b.At(j, c)); d != 0 {
				return d < 0
			}
		}
		return false
	})
}
