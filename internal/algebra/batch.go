// Vectorized (batch-at-a-time) execution. Vectorize mirrors a row operator
// tree as a pipeline of BatchOperators over colbatch batches: scans emit
// cached columnar chunks, filters evaluate predicates column-at-a-time into
// selection vectors, projections evaluate expression columns, and the joins,
// Distinct and Aggregate build their hash keys column-wise into reusable
// byte arenas instead of allocating a Tuple.Key() string per row. The hash
// join shares its build structure with the row HashJoin (JoinTable, join.go):
// its keys meet exactly when SQL `=` (value.Equal) holds — 1 meets 1.0, NULL
// and NaN meet nothing — and a table built once may serve many joins
// (HashJoin.Build).
//
// The batch pipeline is a pure wrapper over the row operators' children —
// it never mutates the row tree, so a bound plan can be vectorized per
// execution with no sharing concerns. Outputs are row-for-row and
// error-for-error identical to the row path (same tuples, same first-
// appearance order, same wrapped error messages, same error precedence:
// an operator that hits a per-row error emits the rows preceding it first,
// so a downstream error the row path would reach earlier still wins).
// Collect picks whichever path applies, so every caller — the naive
// per-world engine, the WSD componentwise loop, compiled subqueries —
// vectorizes through the one choke point. Expressions outside the
// vectorizable subset fall back to row-at-a-time evaluation inside the
// batch pipeline.
//
// The one rule, applied by Vectorize on every drain: trees scanning fewer
// than 32 rows, trees with no batch mirror (or a LIMIT that could observe
// laziness) and bare scans run the row operators; everything else runs
// batches; nothing sets this. Both operator sets stay because each wins on a
// benchmark workload. Forcing batches everywhere (floor 0, every mirrored
// tree) against the rule above, `bench/run.sh --workload <w> --seed {1,2,3}
// --seconds 10 --trace 0` on a 2-core box measured:
//
//	workload      metric       rule (seeds 1/2/3)     batches everywhere    change
//	point.short   stmts_per_s  11377 / 11394 / 11654  8565 / 8457 / 8954    -23 … -26 %
//	point.short   setup_s      0.554 / 0.557 / 0.537  0.731 / 0.704 / 0.685 +26 … +32 %
//	point.short   p50_ms       0.123 / 0.122 / 0.120  0.142 / 0.147 / 0.139 +15 … +20 %
//	worlds.naive  stmts_per_s  107.1 / 109.8 / 109.5  86.8 / 95.3 / 88.8    -13 … -19 %
//	worlds.naive  p50_ms       8.64 / 8.11 / 7.27     11.89 / 9.81 / 9.86   +21 … +38 %
//
// while closure.compact and wide.encode sit over the floor and run batches.
// Deleting the row operators needs a small-input fast path in the batch
// operators that beats the left column first.
package algebra

import (
	"fmt"

	"maybms/internal/colbatch"
	"maybms/internal/expr"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

// batchSize is the number of rows per batch on the vectorized path.
const batchSize = 1024

// batchFloor is the floor on total scanned rows below which Vectorize
// declines even when the tree would otherwise benefit: building columns and
// batch operator state costs more than the per-tuple savings on relations
// this small (per-world evaluation over figure-sized examples sits well
// under it, bulk per-alternative work well over it).
const batchFloor = colbatch.Floor

// ClearsBatchFloor reports whether a tree scanning rows rows is large enough
// for the batch operators. Catalog builders (wsd's componentwise path)
// consult it to skip assembling columnar input views for evaluations
// Vectorize would decline anyway.
func ClearsBatchFloor(rows int) bool { return rows >= batchFloor }

// scanRows sums the leaf relation sizes of op's subtree — the static
// input-cardinality estimate compared against batchFloor.
func scanRows(op Operator) int {
	switch n := op.(type) {
	case *Filter:
		return scanRows(n.Child)
	case *Project:
		return scanRows(n.Child)
	case *CrossJoin:
		return scanRows(n.Left) + scanRows(n.Right)
	case *HashJoin:
		return scanRows(n.Left) + scanRows(n.Right)
	case *Distinct:
		return scanRows(n.Child)
	case *Union:
		return scanRows(n.Left) + scanRows(n.Right)
	case *Aggregate:
		return scanRows(n.Child)
	case *Sort:
		return scanRows(n.Child)
	case *Limit:
		return scanRows(n.Child)
	case scanSource:
		return n.ScanSource().Len()
	default:
		return 0
	}
}

// BatchOperator is the batch-at-a-time counterpart of Operator. NextBatch
// returns a nil batch at end of stream; returned batches are immutable and
// owned by the caller until the next NextBatch call.
type BatchOperator interface {
	Schema() *schema.Schema
	Open(outer *expr.Context) error
	NextBatch() (*colbatch.Batch, error)
	Close() error
}

// ScanSource exposes the scanned relation of Scan (and of planner scan
// wrappers embedding it), letting Vectorize recognize leaf scans without
// depending on the planner's types.
func (s *Scan) ScanSource() *relation.Relation { return s.Rel }

type scanSource interface{ ScanSource() *relation.Relation }

// Vectorize builds the batch pipeline mirroring op, or reports ok=false
// when the tree scans fewer than batchFloor rows, has no batch form, or
// nothing in it benefits (a bare scan is faster row-at-a-time: row scans
// return stored tuples by reference). This is the engine's one choice
// between the two operator sets; it reads only the tree it is given.
func Vectorize(op Operator) (BatchOperator, bool) {
	if !ClearsBatchFloor(scanRows(op)) {
		return nil, false
	}
	b, benefit := vectorize(op)
	if b == nil || !benefit {
		return nil, false
	}
	return b, true
}

// vectorize returns (nil, false) when op has no batch form, else the batch
// mirror and whether any node in the subtree gains from batching.
func vectorize(op Operator) (BatchOperator, bool) {
	switch n := op.(type) {
	case *Filter:
		c, ben := vectorize(n.Child)
		if c == nil {
			return nil, false
		}
		vec := expr.Vectorizable(n.Pred)
		return &batchFilter{child: c, pred: n.Pred, vec: vec}, ben || vec
	case *Project:
		c, ben := vectorize(n.Child)
		if c == nil {
			return nil, false
		}
		vec := true
		for _, e := range n.Exprs {
			if !expr.Vectorizable(e) {
				vec = false
				break
			}
		}
		return &batchProject{child: c, exprs: n.Exprs, out: n.Out, vec: vec}, ben || vec
	case *CrossJoin:
		l, _ := vectorize(n.Left)
		if l == nil {
			return nil, false
		}
		r, _ := vectorize(n.Right)
		if r == nil {
			return nil, false
		}
		return &batchCrossJoin{left: l, right: r}, true
	case *HashJoin:
		l, _ := vectorize(n.Left)
		if l == nil {
			return nil, false
		}
		r, _ := vectorize(n.Right)
		if r == nil {
			return nil, false
		}
		return &batchHashJoin{left: l, right: r, leftKeys: n.LeftKeys, rightKeys: n.RightKeys, build: n.Build}, true
	case *Distinct:
		c, _ := vectorize(n.Child)
		if c == nil {
			return nil, false
		}
		return &batchDistinct{child: c, loadExcept: n.Except}, true
	case *Union:
		l, lben := vectorize(n.Left)
		if l == nil {
			return nil, false
		}
		r, rben := vectorize(n.Right)
		if r == nil {
			return nil, false
		}
		return &batchUnion{left: l, right: r}, lben || rben
	case *Aggregate:
		c, _ := vectorize(n.Child)
		if c == nil {
			return nil, false
		}
		return &batchAggregate{child: c, groupBy: n.GroupBy, specs: n.Specs, out: n.Out}, true
	case *Sort:
		c, ben := vectorize(n.Child)
		if c == nil {
			return nil, false
		}
		return &batchSort{child: c, keys: n.Keys}, ben
	case *Limit:
		c, ben := vectorize(n.Child)
		if c == nil {
			return nil, false
		}
		// A batch pipeline evaluates whole batches eagerly, so a LIMIT over
		// a lazily erroring child could surface errors the row path never
		// reaches. Scans cannot fail per row and Sort/Aggregate materialize
		// everything on Open in both paths, so only those children are safe
		// to cut short.
		switch c.(type) {
		case *batchSort, *batchScan, *batchAggregate:
			return &batchLimit{child: c, n: n.N}, ben
		default:
			return nil, false
		}
	case scanSource:
		return &batchScan{rel: n.ScanSource()}, false
	default:
		return nil, false
	}
}

// collectBatches drains a batch pipeline into a materialized relation,
// converting each batch to rows through one value slab.
func collectBatches(b BatchOperator, outer *expr.Context) (*relation.Relation, error) {
	if err := b.Open(outer); err != nil {
		return nil, err
	}
	defer b.Close()
	// Single-batch answers — a stored relation scanned in one chunk —
	// pass through as zero-copy views of the stored columns; longer
	// pipelines append column-wise into one combined batch. Either way no
	// row tuple is materialized here: the returned relation is backed by
	// the batch and rows stay a lazy view.
	var single *colbatch.Batch
	var acc *colbatch.Batch
	for {
		bt, err := b.NextBatch()
		if err != nil {
			return nil, err
		}
		if bt == nil {
			break
		}
		switch {
		case single == nil && acc == nil:
			// Operators reuse the emitted batch's headers across NextBatch
			// calls; Slice snapshots them (data stays shared).
			single = bt.Slice(0, bt.Len())
		case acc == nil:
			acc = colbatch.New(b.Schema())
			acc.AppendBatch(single)
			single = nil
			acc.AppendBatch(bt)
		default:
			acc.AppendBatch(bt)
		}
	}
	switch {
	case acc != nil:
		return relation.FromBatch(acc.WithSchema(b.Schema())), nil
	case single != nil:
		return relation.FromBatch(single.WithSchema(b.Schema())), nil
	}
	return relation.New(b.Schema()), nil
}

// interruptHook polls an Interrupt hook once per batch (roughly every
// batchSize rows; the row path polls every interruptEvery rows).
type interruptHook struct{ hook func() error }

func (h *interruptHook) init(outer *expr.Context) { h.hook = outer.FindInterrupt() }

func (h *interruptHook) poll() error {
	if h.hook == nil {
		return nil
	}
	return h.hook()
}

// batchScan emits the cached columnar view of a relation in zero-copy
// chunks.
type batchScan struct {
	rel   *relation.Relation
	b     *colbatch.Batch
	chunk colbatch.Batch // reused zero-copy window, rewritten per NextBatch
	pos   int
	ip    interruptHook
}

func (s *batchScan) Schema() *schema.Schema { return s.rel.Schema }

func (s *batchScan) Open(outer *expr.Context) error {
	s.b = s.rel.Batch()
	s.pos = 0
	s.ip.init(outer)
	return nil
}

func (s *batchScan) NextBatch() (*colbatch.Batch, error) {
	if err := s.ip.poll(); err != nil {
		return nil, err
	}
	if s.pos >= s.b.Len() {
		return nil, nil
	}
	hi := s.pos + batchSize
	if hi > s.b.Len() {
		hi = s.b.Len()
	}
	out := s.b.SliceInto(&s.chunk, s.pos, hi)
	s.pos = hi
	return out, nil
}

func (s *batchScan) Close() error { return nil }

// batchFilter evaluates the predicate over each batch — vectorized into a
// selection vector when the predicate allows, else row-at-a-time with a
// reused context — and gathers the passing rows. A per-row predicate error
// is deferred until the rows preceding it have been emitted, preserving the
// row path's error interleaving with downstream operators.
type batchFilter struct {
	child BatchOperator
	pred  expr.Expr
	vec   bool
	outer *expr.Context
	sel   []int32
	err   error
}

func (f *batchFilter) Schema() *schema.Schema { return f.child.Schema() }

func (f *batchFilter) Open(outer *expr.Context) error {
	f.outer = outer
	f.err = nil
	return f.child.Open(outer)
}

func (f *batchFilter) NextBatch() (*colbatch.Batch, error) {
	for {
		if f.err != nil {
			return nil, f.err
		}
		b, err := f.child.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		n := b.Len()
		if n == 0 {
			continue
		}
		sel := f.sel[:0]
		if f.vec {
			v := expr.EvalVec(f.pred, b)
			// Stop selecting at the first error row; rows before it are
			// emitted now, the error fires on the following call.
			stop := n
			if v.Errs != nil {
				for i, e := range v.Errs {
					if e != nil {
						stop = i
						f.err = fmt.Errorf("%w: filter %s: %w", ErrExec, f.pred, e)
						break
					}
				}
			}
			switch {
			case v.Const:
				if !v.CV.Truth() {
					if f.err != nil {
						return nil, f.err
					}
					continue
				}
				if stop == n {
					return b, nil
				}
				for i := 0; i < stop; i++ {
					sel = append(sel, int32(i))
				}
			case v.Col.Kind == value.KindBool && v.Col.Any == nil:
				bools, nulls := v.Col.Bools, v.Col.Nulls
				for i := 0; i < stop; i++ {
					if bools[i] && (nulls == nil || !nulls[i]) {
						sel = append(sel, int32(i))
					}
				}
			default:
				for i := 0; i < stop; i++ {
					if v.At(i).Truth() {
						sel = append(sel, int32(i))
					}
				}
			}
		} else {
			rows := b.Rows()
			ctx := &expr.Context{Schema: f.child.Schema(), Outer: f.outer}
			for i, t := range rows {
				ctx.Tuple = t
				v, err := f.pred.Eval(ctx)
				if err != nil {
					f.err = fmt.Errorf("%w: filter %s: %w", ErrExec, f.pred, err)
					break
				}
				if v.Truth() {
					sel = append(sel, int32(i))
				}
			}
		}
		f.sel = sel
		if len(sel) == 0 {
			if f.err != nil {
				return nil, f.err
			}
			continue
		}
		if len(sel) == n {
			return b, nil
		}
		return b.Gather(sel), nil
	}
}

func (f *batchFilter) Close() error { return f.child.Close() }

// batchProject evaluates the output expressions per batch, deferring a
// per-row error until the preceding rows have been emitted.
type batchProject struct {
	child BatchOperator
	exprs []expr.Expr
	out   *schema.Schema
	vec   bool
	outer *expr.Context
	err   error
}

func (p *batchProject) Schema() *schema.Schema { return p.out }

func (p *batchProject) Open(outer *expr.Context) error {
	if len(p.exprs) != p.out.Len() {
		return fmt.Errorf("%w: project arity %d vs schema %s", ErrExec, len(p.exprs), p.out)
	}
	p.outer = outer
	p.err = nil
	return p.child.Open(outer)
}

func (p *batchProject) NextBatch() (*colbatch.Batch, error) {
	for {
		if p.err != nil {
			return nil, p.err
		}
		b, err := p.child.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		n := b.Len()
		if n == 0 {
			continue
		}
		if p.vec {
			vecs := make([]expr.Vec, len(p.exprs))
			for j, e := range p.exprs {
				vecs[j] = expr.EvalVec(e, b)
			}
			// Find the first error in the row path's order: row-major,
			// expression-minor.
			stop := n
		scan:
			for i := 0; i < n; i++ {
				for j := range vecs {
					if err := vecs[j].ErrAt(i); err != nil {
						stop = i
						p.err = fmt.Errorf("%w: projecting %s: %w", ErrExec, p.exprs[j], err)
						break scan
					}
				}
			}
			if stop == 0 {
				return nil, p.err
			}
			cols := make([]colbatch.Col, len(vecs))
			for j := range vecs {
				cols[j] = colFromVec(&vecs[j], n, stop)
			}
			return colbatch.FromCols(p.out, cols, stop), nil
		}
		rows := b.Rows()
		builders := make([]colbatch.ColBuilder, len(p.exprs))
		vals := make([]value.Value, len(p.exprs))
		ctx := &expr.Context{Schema: p.child.Schema(), Outer: p.outer}
		stop := n
	rowScan:
		for i, t := range rows {
			ctx.Tuple = t
			for j, e := range p.exprs {
				v, err := e.Eval(ctx)
				if err != nil {
					stop = i
					p.err = fmt.Errorf("%w: projecting %s: %w", ErrExec, e, err)
					break rowScan
				}
				vals[j] = v
			}
			for j := range builders {
				builders[j].Append(vals[j])
			}
		}
		if stop == 0 {
			return nil, p.err
		}
		cols := make([]colbatch.Col, len(builders))
		for j := range builders {
			cols[j] = builders[j].Col()
		}
		return colbatch.FromCols(p.out, cols, stop), nil
	}
}

func (p *batchProject) Close() error { return p.child.Close() }

// colFromVec materializes the first stop cells of a Vec as a column
// (broadcasting constants; the column is shared zero-copy when whole).
func colFromVec(v *expr.Vec, n, stop int) colbatch.Col {
	if v.Const {
		var cb colbatch.ColBuilder
		for i := 0; i < stop; i++ {
			cb.Append(v.CV)
		}
		return cb.Col()
	}
	if stop == n {
		return v.Col
	}
	return sliceCol(&v.Col, stop)
}

// sliceCol returns a zero-copy prefix of a column.
func sliceCol(c *colbatch.Col, stop int) colbatch.Col {
	if c.Any != nil {
		return colbatch.Col{Any: c.Any[:stop]}
	}
	out := colbatch.Col{Kind: c.Kind}
	if c.Nulls != nil {
		out.Nulls = c.Nulls[:stop]
	}
	switch c.Kind {
	case value.KindInt:
		out.Ints = c.Ints[:stop]
	case value.KindFloat:
		out.Floats = c.Floats[:stop]
	case value.KindString:
		out.Strs = c.Strs[:stop]
	case value.KindBool:
		out.Bools = c.Bools[:stop]
	}
	return out
}

// drainToBatch collects a batch pipeline into one combined batch (the
// materialized build side of the joins). The child is opened and closed
// here, mirroring the row joins' Collect on Open.
func drainToBatch(b BatchOperator, outer *expr.Context) (*colbatch.Batch, error) {
	if err := b.Open(outer); err != nil {
		return nil, err
	}
	defer b.Close()
	out := colbatch.New(b.Schema())
	for {
		bt, err := b.NextBatch()
		if err != nil {
			return nil, err
		}
		if bt == nil {
			return out, nil
		}
		out.AppendBatch(bt)
	}
}

// batchCrossJoin is the Cartesian product with a materialized right side,
// emitting gathered output batches in left-major order.
type batchCrossJoin struct {
	left, right BatchOperator
	out         *schema.Schema
	rightAll    *colbatch.Batch
	cur         *colbatch.Batch
	li, ri      int
	open        bool
	ip          interruptHook
	lsel, rsel  []int32
}

func (j *batchCrossJoin) Schema() *schema.Schema {
	if j.out == nil {
		j.out = j.left.Schema().Concat(j.right.Schema())
	}
	return j.out
}

func (j *batchCrossJoin) Open(outer *expr.Context) error {
	if err := j.left.Open(outer); err != nil {
		return err
	}
	right, err := drainToBatch(j.right, outer)
	if err != nil {
		j.left.Close()
		return err
	}
	j.rightAll = right
	j.cur = nil
	j.open = true
	j.ip.init(outer)
	return nil
}

func (j *batchCrossJoin) NextBatch() (*colbatch.Batch, error) {
	for {
		if err := j.ip.poll(); err != nil {
			return nil, err
		}
		if j.cur == nil {
			b, err := j.left.NextBatch()
			if err != nil || b == nil {
				return nil, err
			}
			if b.Len() == 0 || j.rightAll.Len() == 0 {
				continue
			}
			j.cur = b
			j.li, j.ri = 0, 0
		}
		lsel, rsel := j.lsel[:0], j.rsel[:0]
		for len(lsel) < batchSize && j.li < j.cur.Len() {
			lsel = append(lsel, int32(j.li))
			rsel = append(rsel, int32(j.ri))
			j.ri++
			if j.ri == j.rightAll.Len() {
				j.ri = 0
				j.li++
			}
		}
		j.lsel, j.rsel = lsel, rsel
		cur := j.cur
		if j.li >= cur.Len() {
			j.cur = nil
		}
		if len(lsel) == 0 {
			continue
		}
		return colbatch.GatherConcat(j.Schema(), cur, lsel, j.rightAll, rsel), nil
	}
}

func (j *batchCrossJoin) Close() error {
	if !j.open {
		return nil
	}
	j.open = false
	return j.left.Close()
}

// batchHashJoin is the equi-join over the row operator's build structure
// (JoinTable, join.go): neither building nor probing allocates a key string,
// and probe hits gather typed columns instead of concatenating tuples. Match
// order (build order per probe row) is the row operator's.
type batchHashJoin struct {
	left, right         BatchOperator
	leftKeys, rightKeys []int
	build               func(*expr.Context) (*JoinTable, error) // HashJoin.Build
	out                 *schema.Schema
	table               *JoinTable
	probeCol            *colbatch.Col // intMode: j.cur's key column
	cur                 *colbatch.Batch
	li                  int
	chainRow            int32 // current candidate build row, -1 = none
	curRow              int32
	open                bool
	ip                  interruptHook
	lsel, rsel          []int32
	key                 []byte
}

func (j *batchHashJoin) Schema() *schema.Schema {
	if j.out == nil {
		j.out = j.left.Schema().Concat(j.right.Schema())
	}
	return j.out
}

func (j *batchHashJoin) Open(outer *expr.Context) error {
	if len(j.leftKeys) != len(j.rightKeys) || len(j.leftKeys) == 0 {
		return fmt.Errorf("%w: hash join needs matching non-empty key lists", ErrExec)
	}
	if err := j.left.Open(outer); err != nil {
		return err
	}
	table, err := j.buildTable(outer)
	if err != nil {
		j.left.Close()
		return err
	}
	j.table = table
	j.cur, j.li, j.chainRow = nil, 0, -1
	j.open = true
	j.ip.init(outer)
	return nil
}

func (j *batchHashJoin) buildTable(outer *expr.Context) (*JoinTable, error) {
	if j.build != nil {
		return j.build(outer)
	}
	right, err := drainToBatch(j.right, outer)
	if err != nil {
		return nil, err
	}
	return newJoinTable(right, j.rightKeys), nil
}

func (j *batchHashJoin) NextBatch() (*colbatch.Batch, error) {
	for {
		if err := j.ip.poll(); err != nil {
			return nil, err
		}
		if j.cur == nil {
			b, err := j.left.NextBatch()
			if err != nil || b == nil {
				return nil, err
			}
			if b.Len() == 0 {
				continue
			}
			j.cur = b
			j.li = 0
			j.chainRow = -1
			if j.table.intMode {
				j.probeCol = b.Col(j.leftKeys[0])
			}
		}
		lsel, rsel := j.lsel[:0], j.rsel[:0]
		for len(lsel) < batchSize {
			if j.chainRow >= 0 {
				r := j.chainRow
				j.chainRow = j.table.next[r]
				if j.table.matches(r, j.key) {
					lsel = append(lsel, j.curRow)
					rsel = append(rsel, r)
				}
				continue
			}
			if j.li >= j.cur.Len() {
				break
			}
			i := j.li
			j.li++
			j.key, j.chainRow = j.table.probeBatch(j.key[:0], j.cur, j.leftKeys, i, j.probeCol)
			j.curRow = int32(i)
		}
		j.lsel, j.rsel = lsel, rsel
		cur := j.cur
		if j.li >= cur.Len() && j.chainRow < 0 {
			j.cur = nil
		}
		if len(lsel) == 0 {
			continue
		}
		return colbatch.GatherConcat(j.Schema(), cur, lsel, j.table.rows, rsel), nil
	}
}

func (j *batchHashJoin) Close() error {
	if !j.open {
		return nil
	}
	j.open = false
	return j.left.Close()
}

// batchDistinct drops duplicate rows streaming, keying each row through the
// shared byte arena (one key-string allocation per distinct row, none per
// duplicate).
type batchDistinct struct {
	child      BatchOperator
	loadExcept func(outer *expr.Context) (map[string]struct{}, error) // Distinct.Except
	except     map[string]struct{}
	seen       map[string]struct{}
	sel        []int32
	key        []byte
}

func (d *batchDistinct) Schema() *schema.Schema { return d.child.Schema() }

func (d *batchDistinct) Open(outer *expr.Context) error {
	d.seen = make(map[string]struct{})
	if d.loadExcept != nil {
		var err error
		if d.except, err = d.loadExcept(outer); err != nil {
			return err
		}
	}
	return d.child.Open(outer)
}

func (d *batchDistinct) NextBatch() (*colbatch.Batch, error) {
	for {
		b, err := d.child.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		n := b.Len()
		sel := d.sel[:0]
		for i := 0; i < n; i++ {
			d.key = b.AppendKey(d.key[:0], i)
			if _, dup := d.seen[string(d.key)]; dup {
				continue
			}
			if _, dup := d.except[string(d.key)]; dup {
				continue
			}
			d.seen[string(d.key)] = struct{}{}
			sel = append(sel, int32(i))
		}
		d.sel = sel
		if len(sel) == 0 {
			continue
		}
		if len(sel) == n {
			return b, nil
		}
		return b.Gather(sel), nil
	}
}

func (d *batchDistinct) Close() error { return d.child.Close() }

// batchUnion concatenates two equal-arity inputs, left first.
type batchUnion struct {
	left, right BatchOperator
	onRight     bool
}

func (u *batchUnion) Schema() *schema.Schema { return u.left.Schema() }

func (u *batchUnion) Open(outer *expr.Context) error {
	if u.left.Schema().Len() != u.right.Schema().Len() {
		return fmt.Errorf("%w: union arity mismatch %s vs %s", ErrExec, u.left.Schema(), u.right.Schema())
	}
	u.onRight = false
	if err := u.left.Open(outer); err != nil {
		return err
	}
	return u.right.Open(outer)
}

func (u *batchUnion) NextBatch() (*colbatch.Batch, error) {
	if !u.onRight {
		b, err := u.left.NextBatch()
		if err != nil {
			return nil, err
		}
		if b != nil {
			return b, nil
		}
		u.onRight = true
	}
	return u.right.NextBatch()
}

func (u *batchUnion) Close() error {
	err1 := u.left.Close()
	err2 := u.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// batchSort materializes and sorts its input on Open, emitting the sorted
// rows as one row-backed batch.
type batchSort struct {
	child BatchOperator
	keys  []SortKey
	rows  []tuple.Tuple
	done  bool
}

func (s *batchSort) Schema() *schema.Schema { return s.child.Schema() }

func (s *batchSort) Open(outer *expr.Context) error {
	rel, err := collectBatches(s.child, outer)
	if err != nil {
		return err
	}
	// Collect output may share a stored relation's row slice; copy before
	// the in-place sort.
	s.rows = append([]tuple.Tuple(nil), rel.Rows()...)
	sortTuples(s.rows, s.keys)
	s.done = false
	return nil
}

func (s *batchSort) NextBatch() (*colbatch.Batch, error) {
	if s.done {
		return nil, nil
	}
	s.done = true
	if len(s.rows) == 0 {
		return nil, nil
	}
	return colbatch.FromRowsShared(s.Schema(), s.rows), nil
}

func (s *batchSort) Close() error { return s.child.Close() }

// batchLimit caps the emitted rows; only used over children whose error
// behavior cannot observe the cut (scans, and operators that materialize
// fully on Open).
type batchLimit struct {
	child BatchOperator
	n     int
	count int
}

func (l *batchLimit) Schema() *schema.Schema { return l.child.Schema() }

func (l *batchLimit) Open(outer *expr.Context) error {
	l.count = 0
	return l.child.Open(outer)
}

func (l *batchLimit) NextBatch() (*colbatch.Batch, error) {
	if l.count >= l.n {
		return nil, nil
	}
	b, err := l.child.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	take := l.n - l.count
	if take >= b.Len() {
		l.count += b.Len()
		return b, nil
	}
	l.count += take
	return b.Slice(0, take), nil
}

func (l *batchLimit) Close() error { return l.child.Close() }

// batchAggregate groups batches by arena-encoded keys and feeds accumulator
// cells column-wise: vectorizable aggregate arguments are evaluated
// batch-at-a-time and dispatched per row in spec order, so results and
// error order match the row operator exactly.
type batchAggregate struct {
	child   BatchOperator
	groupBy []int
	specs   []expr.AggSpec
	out     *schema.Schema
	rows    []tuple.Tuple
	done    bool
	key     []byte
}

func (a *batchAggregate) Schema() *schema.Schema { return a.out }

func (a *batchAggregate) Open(outer *expr.Context) error {
	if a.out.Len() != len(a.groupBy)+len(a.specs) {
		return fmt.Errorf("%w: aggregate schema %s does not cover %d group cols + %d aggs",
			ErrExec, a.out, len(a.groupBy), len(a.specs))
	}
	if err := a.child.Open(outer); err != nil {
		return err
	}
	defer a.child.Close()

	type group struct {
		key  tuple.Tuple
		accs []*expr.Accumulator
	}
	newGroup := func(key tuple.Tuple) *group {
		g := &group{key: key, accs: make([]*expr.Accumulator, len(a.specs))}
		for i, spec := range a.specs {
			g.accs[i] = expr.NewAccumulator(spec)
		}
		return g
	}
	index := map[string]int{}
	var groups []*group

	vec := make([]bool, len(a.specs))
	needRows := false
	for s, spec := range a.specs {
		if spec.Arg != nil {
			if expr.Vectorizable(spec.Arg) {
				vec[s] = true
			} else {
				needRows = true
			}
		}
	}
	childSchema := a.child.Schema()
	argVecs := make([]expr.Vec, len(a.specs))
	for {
		b, err := a.child.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		n := b.Len()
		for s, spec := range a.specs {
			if vec[s] {
				argVecs[s] = expr.EvalVec(spec.Arg, b)
			}
		}
		var rows []tuple.Tuple
		var ctx *expr.Context
		if needRows {
			rows = b.Rows()
			ctx = &expr.Context{Schema: childSchema, Outer: outer}
		}
		for i := 0; i < n; i++ {
			a.key = b.AppendKeyOn(a.key[:0], a.groupBy, i)
			gi, ok := index[string(a.key)]
			if !ok {
				kt := make(tuple.Tuple, len(a.groupBy))
				for j, c := range a.groupBy {
					kt[j] = b.At(i, c)
				}
				gi = len(groups)
				index[string(a.key)] = gi
				groups = append(groups, newGroup(kt))
			}
			g := groups[gi]
			for s := range a.specs {
				acc := g.accs[s]
				switch {
				case a.specs[s].Arg == nil:
					acc.AddStar()
				case vec[s]:
					if err := argVecs[s].ErrAt(i); err != nil {
						return fmt.Errorf("%w: %v", ErrExec, err)
					}
					if err := acc.AddValue(argVecs[s].At(i)); err != nil {
						return fmt.Errorf("%w: %v", ErrExec, err)
					}
				default:
					ctx.Tuple = rows[i]
					if err := acc.Add(ctx); err != nil {
						return fmt.Errorf("%w: %v", ErrExec, err)
					}
				}
			}
		}
	}

	if len(groups) == 0 && len(a.groupBy) == 0 {
		groups = append(groups, newGroup(tuple.Tuple{}))
	}
	a.rows = a.rows[:0]
	for _, g := range groups {
		row := make(tuple.Tuple, 0, a.out.Len())
		row = append(row, g.key...)
		for _, acc := range g.accs {
			row = append(row, acc.Result())
		}
		a.rows = append(a.rows, row)
	}
	a.done = false
	return nil
}

func (a *batchAggregate) NextBatch() (*colbatch.Batch, error) {
	if a.done {
		return nil, nil
	}
	a.done = true
	if len(a.rows) == 0 {
		return nil, nil
	}
	return colbatch.FromRowsShared(a.out, a.rows), nil
}

func (a *batchAggregate) Close() error { return nil }
