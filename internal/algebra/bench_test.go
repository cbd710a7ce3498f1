package algebra

// bench_test.go holds the ablation benchmarks for the physical operator
// choices: the planner compiles a WHERE's cross-binding `a = b` into
// HashJoin keys and joins the rest as filtered cross joins. The ablation
// quantifies the gap between the two, and AblationJoinHash what the key
// canonicalisation (SQL `=` over mixed kinds) costs the int-key fast path.

import (
	"fmt"
	"testing"

	"maybms/internal/colbatch"
	"maybms/internal/expr"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

func benchRelation(n int, keyMod int) *relation.Relation {
	r := relation.New(schema.New("K", "V"))
	for i := 0; i < n; i++ {
		r.MustAppend(tuple.New(value.Int(int64(i%keyMod)), value.Int(int64(i))))
	}
	return r
}

func BenchmarkAblationJoinCross(b *testing.B) {
	for _, n := range []int{32, 128, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			l := benchRelation(n, n/4)
			r := benchRelation(n, n/4)
			pred := expr.Cmp{Op: expr.CmpEq, L: expr.Column{Index: 0}, R: expr.Column{Index: 2}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := &Filter{Child: &CrossJoin{Left: NewScan(l), Right: NewScan(r)}, Pred: pred}
				if _, err := Collect(op, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationJoinHash(b *testing.B) {
	for _, n := range []int{32, 128, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			l := benchRelation(n, n/4)
			r := benchRelation(n, n/4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := &HashJoin{Left: NewScan(l), Right: NewScan(r), LeftKeys: []int{0}, RightKeys: []int{0}}
				if _, err := Collect(op, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDistinct measures the streaming dedup that backs the
// POSSIBLE closure.
func BenchmarkAblationDistinct(b *testing.B) {
	r := benchRelation(4096, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Collect(&Distinct{Child: NewScan(r)}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAggregate measures hash aggregation (GROUP BY), the
// core of Example 2.8's per-world sums.
func BenchmarkAblationAggregate(b *testing.B) {
	r := benchRelation(4096, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := &Aggregate{
			Child:   NewScan(r),
			GroupBy: []int{0},
			Specs:   []expr.AggSpec{{Kind: expr.AggSum, Arg: expr.Column{Index: 1}}},
			Out:     schema.New("K", "sum"),
		}
		if _, err := Collect(op, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- the operators at bulk and at figure size ----
//
// The bulk benchmarks drain 8192-row relations whose scans emit columns;
// the figure-sized ones drain what per-world and per-alternative evaluation
// drains thousands of times per statement. scripts/check_batch_allocs.sh
// gates their allocs/op in CI.

func benchCollect(b *testing.B, build func() Operator) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Collect(build(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchScan drains a scan of r the way a downstream operator does: zero-copy
// slices of the relation's columnar form.
func benchScan(b *testing.B, r *relation.Relation) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewScan(r)
		if err := s.Open(nil); err != nil {
			b.Fatal(err)
		}
		rows := 0
		for {
			bt, err := s.NextBatch()
			if err != nil {
				b.Fatal(err)
			}
			if bt == nil {
				break
			}
			rows += bt.Len()
		}
		if err := s.Close(); err != nil || rows != r.Len() {
			b.Fatal(err, rows)
		}
	}
}

func BenchmarkBatchScan(b *testing.B) {
	r := benchRelation(8192, 64)
	r.Batch() // build + cache the columnar form once, like a warm table
	benchScan(b, r)
}

// BenchmarkStoredBatchScan scans a relation whose store is columnar — an
// imported or closure-built table. Open is an identity lookup of the
// stored batch and every chunk is a zero-copy slice into it, so the whole
// scan allocates O(1) (the first chunk header), not O(rows): the
// batches-as-truth contract check_batch_allocs.sh gates on.
func BenchmarkStoredBatchScan(b *testing.B) {
	base := benchRelation(8192, 64)
	benchScan(b, relation.FromBatch(colbatch.FromRows(base.Schema, base.Rows())))
}

// BenchmarkCollectStoredScan collects a Scan, and a Project of plain
// columns over one, of a relation whose store is columnar: drain answers both
// with a view of the stored batch, so a Collect allocates O(1) — the answer's
// header and relation — not O(rows) or O(batches).
func BenchmarkCollectStoredScan(b *testing.B) {
	base := benchRelation(8192, 64)
	r := relation.FromBatch(colbatch.FromRows(base.Schema, base.Rows()))
	b.Run("scan", func(b *testing.B) { benchDrains(b, NewScan(r), r.Len()) })
	b.Run("project", func(b *testing.B) {
		op := &Project{Child: NewScan(r), Exprs: []expr.Expr{expr.Column{Index: 1}, expr.Column{Index: 0}}, Out: schema.New("V", "K")}
		benchDrains(b, op, r.Len())
	})
}

func benchFilterTree(r *relation.Relation) func() Operator {
	// K < 32 over K ∈ [0,64): selects half the input, column-at-a-time.
	return func() Operator {
		return &Filter{Child: NewScan(r), Pred: expr.Cmp{
			Op: expr.CmpLt, L: expr.Column{Index: 0}, R: expr.Const{Value: value.Int(32)},
		}}
	}
}

func BenchmarkBatchFilter(b *testing.B) {
	r := benchRelation(8192, 64)
	r.Batch()
	benchCollect(b, benchFilterTree(r))
}

// Join keys are unique (keyMod = n) so the measurement is the build+probe
// machinery itself, not output materialization: the build side hashes an int
// column, each key its own hash.
func BenchmarkHashJoinBatch(b *testing.B) {
	l, r := benchRelation(8192, 8192), benchRelation(8192, 8192)
	l.Batch()
	r.Batch()
	benchCollect(b, func() Operator {
		return &HashJoin{Left: NewScan(l), Right: NewScan(r), LeftKeys: []int{0}, RightKeys: []int{0}}
	})
}

// BenchmarkFigurePipeline drains bound trees the size of the paper's
// figures, reusing each tree across drains as a bound subquery or a
// per-alternative plan is: an 8-row row-backed Scan → Filter → Project
// (K < 4, then K and V + 1), and a one-row row-backed delta probing a
// 100-row build side shared read-only by every drain (HashJoin.Build, as
// plan.Deltas shares a certain build). Row-backed input runs the row loops
// and comes out row-backed, so a drain allocates its answer and little else.
func BenchmarkFigurePipeline(b *testing.B) {
	b.Run("scan-filter-project", func(b *testing.B) {
		r := benchRelation(8, 8)
		op := &Project{
			Child: &Filter{Child: NewScan(r), Pred: expr.Cmp{
				Op: expr.CmpLt, L: expr.Column{Index: 0}, R: expr.Const{Value: value.Int(4)},
			}},
			Exprs: []expr.Expr{expr.Column{Index: 0}, expr.Arith{Op: value.OpAdd, L: expr.Column{Index: 1}, R: expr.Const{Value: value.Int(1)}}},
			Out:   schema.New("K", "V1"),
		}
		benchDrains(b, op, 4)
	})
	b.Run("delta-probe", func(b *testing.B) {
		build := benchRelation(100, 100)
		table, err := BuildJoinTable(NewScan(build), []int{0}, nil)
		if err != nil {
			b.Fatal(err)
		}
		delta := benchRelation(1, 1)
		op := &HashJoin{Left: NewScan(delta), Right: NewScan(build), LeftKeys: []int{0}, RightKeys: []int{0},
			Build: func(*expr.Context) (*JoinTable, error) { return table, nil }}
		benchDrains(b, op, 1)
	})
}

func benchDrains(b *testing.B, op Operator, rows int) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := Collect(op, nil)
		if err != nil || rel.Len() != rows {
			b.Fatal(err, rel.Len())
		}
	}
}
