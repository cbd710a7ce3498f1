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

// ---- row vs batch: the vectorized-executor ablation ----
//
// Each pair below runs the same operator tree on the row iterators (Row…,
// the drain Collect uses under the size floor) and through Collect, which
// picks the batch operators at these sizes (…Batch). scripts/bench.sh
// records both, so BENCH_<date>.json carries the row-vs-batch trajectory;
// scripts/check_batch_allocs.sh gates the batch variants' allocs/op in CI.

func benchCollect(b *testing.B, batch bool, build func() Operator) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if batch {
			_, err = Collect(build(), nil)
		} else {
			_, err = drainRows(build(), nil)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// Scan: both variants drain the operator the way a downstream consumer
// does — the row path one Next() call per tuple, the batch path zero-copy
// slices of the relation's cached columnar form. (A bare scan is not
// routed through Vectorize at the Collect seam — the rows already exist —
// so the batch variant drives the batch operator directly.)
func BenchmarkRowScan(b *testing.B) {
	r := benchRelation(8192, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewScan(r)
		if err := s.Open(nil); err != nil {
			b.Fatal(err)
		}
		rows := 0
		for {
			_, ok, err := s.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			rows++
		}
		if err := s.Close(); err != nil || rows != r.Len() {
			b.Fatal(err, rows)
		}
	}
}

func BenchmarkBatchScan(b *testing.B) {
	r := benchRelation(8192, 64)
	r.Batch() // build + cache the columnar form once, like a warm table
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &batchScan{rel: r}
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

// BenchmarkStoredBatchScan scans a relation whose store is columnar — an
// imported or closure-built table. Open is an identity lookup of the
// stored batch and every chunk is a zero-copy slice into it, so the whole
// scan allocates O(1) (the first chunk header), not O(rows): the
// batches-as-truth contract check_batch_allocs.sh gates on.
func BenchmarkStoredBatchScan(b *testing.B) {
	base := benchRelation(8192, 64)
	stored := relation.FromBatch(colbatch.FromRows(base.Schema, base.Rows()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &batchScan{rel: stored}
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
		if err := s.Close(); err != nil || rows != stored.Len() {
			b.Fatal(err, rows)
		}
	}
}

func benchFilterTree(r *relation.Relation) func() Operator {
	// K < 32 over K ∈ [0,64): selects half the input, column-at-a-time on
	// the batch path.
	return func() Operator {
		return &Filter{Child: NewScan(r), Pred: expr.Cmp{
			Op: expr.CmpLt, L: expr.Column{Index: 0}, R: expr.Const{Value: value.Int(32)},
		}}
	}
}

func BenchmarkRowFilter(b *testing.B) {
	r := benchRelation(8192, 64)
	benchCollect(b, false, benchFilterTree(r))
}

func BenchmarkBatchFilter(b *testing.B) {
	r := benchRelation(8192, 64)
	r.Batch()
	benchCollect(b, true, benchFilterTree(r))
}

func benchJoinTree(l, r *relation.Relation) func() Operator {
	return func() Operator {
		return &HashJoin{Left: NewScan(l), Right: NewScan(r), LeftKeys: []int{0}, RightKeys: []int{0}}
	}
}

// Join keys are unique (keyMod = n) so the measurement is the build+probe
// machinery itself, not output materialization. Both paths build a
// JoinTable: the row path over the collected tuples, keys canonically
// encoded, the batch path over an int column, each key its own hash.
func BenchmarkHashJoinRow(b *testing.B) {
	l, r := benchRelation(8192, 8192), benchRelation(8192, 8192)
	benchCollect(b, false, benchJoinTree(l, r))
}

func BenchmarkHashJoinBatch(b *testing.B) {
	l, r := benchRelation(8192, 8192), benchRelation(8192, 8192)
	l.Batch()
	r.Batch()
	benchCollect(b, true, benchJoinTree(l, r))
}
