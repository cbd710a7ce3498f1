package wsd

// The batch-native closure seam. Per-alternative evaluations hand whole
// colbatch batches to the closure builders (see algebra.CollectBatch):
// possible/certain/conf unions, the group-worlds frontier fold and APPROX
// CONF sampling all dedup/merge on arena-encoded batch keys — byte-identical
// to tuple.Encode, so grouping, ordering and hash-collision behavior are
// exactly the row path's — and output rows are materialized once at the very
// end instead of once per evaluation. Stored state is batch-backed (the
// batch is the truth; rows are a lazy view), so the componentwise catalog
// hands stored batches to the evaluations directly — there is no
// per-evaluation re-columnarize and no contribution cache to keep coherent.
//
// Whether an evaluation's batch is columnar or row-backed follows from the
// one rule in internal/algebra: trees scanning fewer than 32 rows, trees
// with no batch mirror and bare scans run the row operators (and come back
// as zero-copy row-backed batches); everything else runs batches; nothing
// sets this. The closure code is the same either way — AppendKey delegates
// to the tuple encoding on row-backed batches — and this file holds the
// output builder that follows the evaluations' representation.

import (
	"maybms/internal/colbatch"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

// unionBuilder accumulates closure output rows in emission order. The mode
// follows the first evaluation's batch: columnar results gather column-wise
// into one output batch whose rows materialize once at finish (and the
// finished relation carries the batch as its columnar view); row-backed
// results — evaluations that ran the row operators — append tuple
// references exactly like the classic closures did.
type unionBuilder struct {
	colMode bool
	rows    []tuple.Tuple
	out     *colbatch.Batch
}

func newUnionBuilder(model *colbatch.Batch) *unionBuilder {
	if model.RowBacked() {
		return &unionBuilder{}
	}
	return &unionBuilder{colMode: true, out: colbatch.New(model.Schema)}
}

// addSel appends b's rows at the selected indexes, in sel order.
func (ub *unionBuilder) addSel(b *colbatch.Batch, sel []int32) {
	if len(sel) == 0 {
		return
	}
	if ub.colMode {
		if len(sel) == b.Len() {
			// Every row selected: sel is ascending by construction, so this
			// is a straight column-wise append.
			ub.out.AppendBatch(b)
			return
		}
		ub.out.AppendGather(b, sel)
		return
	}
	rows := b.Rows()
	for _, s := range sel {
		ub.rows = append(ub.rows, rows[s])
	}
}

// finish materializes the accumulated rows as a relation under sch. In
// columnar mode the output batch itself becomes the relation's store.
func (ub *unionBuilder) finish(sch *schema.Schema) *relation.Relation {
	if ub.colMode {
		return relation.FromBatch(ub.out.WithSchema(sch))
	}
	return relation.FromRowsShared(sch, ub.rows)
}

// finishConf materializes the accumulated rows extended with a trailing conf
// column (confs has one entry per accumulated row) under sch.
func (ub *unionBuilder) finishConf(sch *schema.Schema, confs []float64) *relation.Relation {
	if ub.colMode {
		return relation.FromBatch(ub.out.ExtendFloat(sch, confs))
	}
	rows := make([]tuple.Tuple, len(ub.rows))
	for i, t := range ub.rows {
		rows[i] = append(t.Clone(), value.Float(confs[i]))
	}
	return relation.FromRowsShared(sch, rows)
}
