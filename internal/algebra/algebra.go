// Package algebra implements the physical relational operators in the
// classic Volcano iterator style: Scan, Filter, Project, CrossJoin,
// HashJoin, Aggregate, Distinct, Sort, Union and Limit.
//
// Operators are opened with the expression context of the *enclosing* query
// (nil at the top level), so correlated subqueries can reach outer columns
// through expr.Context.Outer chains.
package algebra

import (
	"errors"
	"fmt"

	"maybms/internal/colbatch"
	"maybms/internal/expr"
	"maybms/internal/obs"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/tuple"
)

// ErrExec is wrapped by operator execution errors.
var ErrExec = errors.New("execution error")

// Process-wide collect counters, exposed on GET /metrics. Incremented once
// per Collect call / once per collected relation — never per row — so the
// instrumented hot path pays a handful of atomic adds per alternative.
var (
	batchCollects = obs.Default().Counter(`maybms_collects_total{path="batch"}`,
		"Collect calls by execution path (batch = vectorized, row = Volcano iterators).")
	rowCollects = obs.Default().Counter(`maybms_collects_total{path="row"}`, "")
	collectRows = obs.Default().Counter("maybms_collect_rows_total",
		"Tuples materialized by Collect across all statements.")
)

// Operator is a Volcano-style iterator over tuples.
type Operator interface {
	// Schema describes the tuples produced by Next.
	Schema() *schema.Schema
	// Open prepares the iterator. outer is the expression context of the
	// enclosing query for correlated references, or nil.
	Open(outer *expr.Context) error
	// Next returns the next tuple; ok is false at end of stream.
	Next() (t tuple.Tuple, ok bool, err error)
	// Close releases resources. Close is idempotent.
	Close() error
}

// drain runs op to completion on the operator set Vectorize selects — the
// one path choice in the engine — and ticks the per-path and row counters
// once per call: one maybms_collects_total{path=batch|row} tick by the path
// actually taken, rows counted once. fromBatches finishes a batch pipeline;
// fromRows wraps the tuples the row iterators produced.
func drain[T interface{ Len() int }](op Operator, outer *expr.Context,
	fromBatches func(BatchOperator, *expr.Context) (T, error),
	fromRows func(*schema.Schema, []tuple.Tuple) T) (T, error) {
	var out T
	stats := outer.FindStats()
	if b, ok := Vectorize(op); ok {
		batchCollects.Inc()
		if stats != nil {
			stats.BatchCollects.Add(1)
		}
		var err error
		if out, err = fromBatches(b, outer); err != nil {
			return out, err
		}
	} else {
		rowCollects.Inc()
		if stats != nil {
			stats.RowCollects.Add(1)
		}
		rows, err := drainRows(op, outer)
		if err != nil {
			return out, err
		}
		out = fromRows(op.Schema(), rows)
	}
	collectRows.Add(uint64(out.Len()))
	if stats != nil {
		stats.Rows.Add(uint64(out.Len()))
	}
	return out, nil
}

// drainRows runs the row iterators of op to completion.
func drainRows(op Operator, outer *expr.Context) ([]tuple.Tuple, error) {
	if err := op.Open(outer); err != nil {
		return nil, err
	}
	defer op.Close()
	var rows []tuple.Tuple
	for {
		t, ok, err := op.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return rows, nil
		}
		rows = append(rows, t)
	}
}

// Collect drains op into a materialized relation. Trees that Vectorize
// accepts run batch-at-a-time with identical results (see batch.go);
// everything else runs the row iterators.
func Collect(op Operator, outer *expr.Context) (*relation.Relation, error) {
	return drain(op, outer, collectBatches, relation.FromRowsShared)
}

// CollectBatch drains op into one combined columnar batch — the
// batch-native Collect variant behind the wsd closure builders. On the
// batch path the pipeline's batches append column-wise into the result and
// no row tuples are materialized at all; on the row path the collected
// tuples are wrapped as a row-backed batch (FromRowsShared) with zero
// copying, so callers always receive a batch and decide themselves when (if
// ever) to materialize rows.
func CollectBatch(op Operator, outer *expr.Context) (*colbatch.Batch, error) {
	return drain(op, outer, drainToBatch, colbatch.FromRowsShared)
}

// interruptEvery is how many rows a long-running iterator produces between
// polls of the Interrupt hook on the evaluation context chain. A power of
// two keeps the check a mask; the poll itself costs one pointer test per
// row when no hook is installed.
const interruptEvery = 256

// poller polls an Interrupt hook (found on the Open context chain) every
// interruptEvery calls. The zero value (no hook) never fires.
type poller struct {
	hook func() error
	n    uint
}

func (p *poller) init(outer *expr.Context) {
	p.hook = outer.FindInterrupt()
	p.n = 0
}

func (p *poller) poll() error {
	if p.hook == nil {
		return nil
	}
	p.n++
	if p.n&(interruptEvery-1) != 0 {
		return nil
	}
	return p.hook()
}

// Scan iterates a materialized relation.
type Scan struct {
	Rel  *relation.Relation
	rows []tuple.Tuple
	pos  int
	ip   poller
}

// NewScan creates a scan over rel.
func NewScan(rel *relation.Relation) *Scan { return &Scan{Rel: rel} }

// Schema implements Operator.
func (s *Scan) Schema() *schema.Schema { return s.Rel.Schema }

// Open implements Operator.
func (s *Scan) Open(outer *expr.Context) error {
	s.rows = s.Rel.Rows()
	s.pos = 0
	s.ip.init(outer)
	return nil
}

// Next implements Operator.
func (s *Scan) Next() (tuple.Tuple, bool, error) {
	if err := s.ip.poll(); err != nil {
		return nil, false, err
	}
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	t := s.rows[s.pos]
	s.pos++
	return t, true, nil
}

// Close implements Operator.
func (s *Scan) Close() error { return nil }

// Filter passes through tuples on which Pred is true (SQL semantics: NULL
// and false both drop the tuple).
type Filter struct {
	Child Operator
	Pred  expr.Expr
	outer *expr.Context
}

// Schema implements Operator.
func (f *Filter) Schema() *schema.Schema { return f.Child.Schema() }

// Open implements Operator.
func (f *Filter) Open(outer *expr.Context) error {
	f.outer = outer
	return f.Child.Open(outer)
}

// Next implements Operator.
func (f *Filter) Next() (tuple.Tuple, bool, error) {
	for {
		t, ok, err := f.Child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		ctx := &expr.Context{Schema: f.Child.Schema(), Tuple: t, Outer: f.outer}
		v, err := f.Pred.Eval(ctx)
		if err != nil {
			return nil, false, fmt.Errorf("%w: filter %s: %w", ErrExec, f.Pred, err)
		}
		if v.Truth() {
			return t, true, nil
		}
	}
}

// Close implements Operator.
func (f *Filter) Close() error { return f.Child.Close() }

// Project computes an output tuple per input tuple from expressions.
type Project struct {
	Child Operator
	Exprs []expr.Expr
	Out   *schema.Schema
	outer *expr.Context
}

// Schema implements Operator.
func (p *Project) Schema() *schema.Schema { return p.Out }

// Open implements Operator.
func (p *Project) Open(outer *expr.Context) error {
	if len(p.Exprs) != p.Out.Len() {
		return fmt.Errorf("%w: project arity %d vs schema %s", ErrExec, len(p.Exprs), p.Out)
	}
	p.outer = outer
	return p.Child.Open(outer)
}

// Next implements Operator.
func (p *Project) Next() (tuple.Tuple, bool, error) {
	t, ok, err := p.Child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	ctx := &expr.Context{Schema: p.Child.Schema(), Tuple: t, Outer: p.outer}
	out := make(tuple.Tuple, len(p.Exprs))
	for i, e := range p.Exprs {
		v, err := e.Eval(ctx)
		if err != nil {
			return nil, false, fmt.Errorf("%w: projecting %s: %w", ErrExec, e, err)
		}
		out[i] = v
	}
	return out, true, nil
}

// Close implements Operator.
func (p *Project) Close() error { return p.Child.Close() }

// CrossJoin is the Cartesian product; the right side is materialized on
// Open. The planner joins FROM bindings (from I i2, I i3) no WHERE `a = b`
// relates with it.
type CrossJoin struct {
	Left, Right Operator
	out         *schema.Schema
	right       *relation.Relation
	rightRows   []tuple.Tuple
	cur         tuple.Tuple
	rpos        int
	open        bool
	ip          poller
}

// Schema implements Operator.
func (j *CrossJoin) Schema() *schema.Schema {
	if j.out == nil {
		j.out = j.Left.Schema().Concat(j.Right.Schema())
	}
	return j.out
}

// Open implements Operator.
func (j *CrossJoin) Open(outer *expr.Context) error {
	if err := j.Left.Open(outer); err != nil {
		return err
	}
	right, err := Collect(j.Right, outer)
	if err != nil {
		j.Left.Close()
		return err
	}
	j.right = right
	j.rightRows = right.Rows()
	j.cur = nil
	j.rpos = 0
	j.open = true
	j.ip.init(outer)
	return nil
}

// Next implements Operator.
func (j *CrossJoin) Next() (tuple.Tuple, bool, error) {
	for {
		if err := j.ip.poll(); err != nil {
			return nil, false, err
		}
		if j.cur == nil {
			t, ok, err := j.Left.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			j.cur = t
			j.rpos = 0
		}
		if j.rpos < len(j.rightRows) {
			rt := j.rightRows[j.rpos]
			j.rpos++
			return j.cur.Concat(rt), true, nil
		}
		j.cur = nil
	}
}

// Close implements Operator.
func (j *CrossJoin) Close() error {
	if !j.open {
		return nil
	}
	j.open = false
	return j.Left.Close()
}

// HashJoin is an equi-join: LeftKeys[i] must equal RightKeys[i] under SQL
// `=` (value.Equal: 1 meets 1.0, NULL and NaN meet nothing). The right side
// is the build side, hashed on Open into a JoinTable (join.go) — the one
// build structure of the row and batch operators — and each left row meets
// its matches in build order, so the output is row for row the filtered
// cross join's. The planner turns a WHERE's cross-binding `a = b` conjuncts
// into HashJoin keys.
type HashJoin struct {
	Left, Right         Operator
	LeftKeys, RightKeys []int
	// Build, when set, yields on Open the table over Right's rows keyed on
	// RightKeys, built once and shared read-only; Right itself is then never
	// opened. The planner's delta binding shares a certain build side across
	// a statement's deltas this way (plan.Deltas).
	Build func(outer *expr.Context) (*JoinTable, error)
	out   *schema.Schema
	table *JoinTable
	cur   tuple.Tuple
	key   []byte
	row   int32 // next candidate build row of cur's chain, -1 = none
	open  bool
	ip    poller
}

// Schema implements Operator.
func (j *HashJoin) Schema() *schema.Schema {
	if j.out == nil {
		j.out = j.Left.Schema().Concat(j.Right.Schema())
	}
	return j.out
}

// Open implements Operator.
func (j *HashJoin) Open(outer *expr.Context) error {
	if len(j.LeftKeys) != len(j.RightKeys) || len(j.LeftKeys) == 0 {
		return fmt.Errorf("%w: hash join needs matching non-empty key lists", ErrExec)
	}
	if err := j.Left.Open(outer); err != nil {
		return err
	}
	table, err := j.buildTable(outer)
	if err != nil {
		j.Left.Close()
		return err
	}
	j.table = table
	j.cur, j.row = nil, -1
	j.open = true
	j.ip.init(outer)
	return nil
}

func (j *HashJoin) buildTable(outer *expr.Context) (*JoinTable, error) {
	if j.Build != nil {
		return j.Build(outer)
	}
	right, err := CollectBatch(j.Right, outer)
	if err != nil {
		return nil, err
	}
	return newJoinTable(right, j.RightKeys), nil
}

// Next implements Operator.
func (j *HashJoin) Next() (tuple.Tuple, bool, error) {
	for {
		if err := j.ip.poll(); err != nil {
			return nil, false, err
		}
		for j.row >= 0 {
			r := j.row
			j.row = j.table.next[r]
			if j.table.matches(r, j.key) {
				return j.cur.Concat(j.table.rows.Row(int(r))), true, nil
			}
		}
		t, ok, err := j.Left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		j.cur = t
		j.key, j.row = j.table.probeTuple(j.key[:0], t, j.LeftKeys)
	}
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	if !j.open {
		return nil
	}
	j.open = false
	return j.Left.Close()
}

// Distinct drops duplicate tuples, streaming, preserving first occurrences.
type Distinct struct {
	Child Operator
	// Except, when set, yields on Open the keys (tuple.Encode) of tuples to
	// drop as if an earlier input had shown them: the set is shared and
	// read-only. The planner's delta binding subtracts a certain answer
	// computed once this way (plan.Deltas).
	Except func(outer *expr.Context) (map[string]struct{}, error)
	except map[string]struct{}
	seen   map[string]struct{}
}

// Schema implements Operator.
func (d *Distinct) Schema() *schema.Schema { return d.Child.Schema() }

// Open implements Operator.
func (d *Distinct) Open(outer *expr.Context) error {
	d.seen = make(map[string]struct{})
	if d.Except != nil {
		var err error
		if d.except, err = d.Except(outer); err != nil {
			return err
		}
	}
	return d.Child.Open(outer)
}

// Next implements Operator.
func (d *Distinct) Next() (tuple.Tuple, bool, error) {
	for {
		t, ok, err := d.Child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		k := t.Key()
		if _, dup := d.seen[k]; dup {
			continue
		}
		if _, dup := d.except[k]; dup {
			continue
		}
		d.seen[k] = struct{}{}
		return t, true, nil
	}
}

// Close implements Operator.
func (d *Distinct) Close() error { return d.Child.Close() }

// Union concatenates two inputs with identical arity. Wrap in Distinct for
// SQL UNION; use alone for UNION ALL.
type Union struct {
	Left, Right Operator
	onRight     bool
}

// Schema implements Operator.
func (u *Union) Schema() *schema.Schema { return u.Left.Schema() }

// Open implements Operator.
func (u *Union) Open(outer *expr.Context) error {
	if u.Left.Schema().Len() != u.Right.Schema().Len() {
		return fmt.Errorf("%w: union arity mismatch %s vs %s", ErrExec, u.Left.Schema(), u.Right.Schema())
	}
	u.onRight = false
	if err := u.Left.Open(outer); err != nil {
		return err
	}
	return u.Right.Open(outer)
}

// Next implements Operator.
func (u *Union) Next() (tuple.Tuple, bool, error) {
	if !u.onRight {
		t, ok, err := u.Left.Next()
		if err != nil {
			return nil, false, err
		}
		if ok {
			return t, true, nil
		}
		u.onRight = true
	}
	return u.Right.Next()
}

// Close implements Operator.
func (u *Union) Close() error {
	err1 := u.Left.Close()
	err2 := u.Right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// SortKey orders by a column index, optionally descending.
type SortKey struct {
	Index int
	Desc  bool
}

// Sort materializes its input on Open and emits it ordered by Keys, with the
// canonical tuple order as tie-break so results are deterministic.
type Sort struct {
	Child Operator
	Keys  []SortKey
	rows  []tuple.Tuple
	pos   int
}

// Schema implements Operator.
func (s *Sort) Schema() *schema.Schema { return s.Child.Schema() }

// Open implements Operator.
func (s *Sort) Open(outer *expr.Context) error {
	rel, err := Collect(s.Child, outer)
	if err != nil {
		return err
	}
	s.rows = append([]tuple.Tuple(nil), rel.Rows()...)
	sortTuples(s.rows, s.Keys)
	s.pos = 0
	return nil
}

func sortTuples(rows []tuple.Tuple, keys []SortKey) {
	less := func(a, b tuple.Tuple) bool {
		for _, k := range keys {
			c := tupleCmpAt(a, b, k.Index)
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return tuple.Compare(a, b) < 0
	}
	sortSlice(rows, less)
}

func tupleCmpAt(a, b tuple.Tuple, i int) int {
	return tuple.Compare(tuple.Tuple{a[i]}, tuple.Tuple{b[i]})
}

// Next implements Operator.
func (s *Sort) Next() (tuple.Tuple, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	t := s.rows[s.pos]
	s.pos++
	return t, true, nil
}

// Close implements Operator.
func (s *Sort) Close() error { return s.Child.Close() }

// Limit caps the number of emitted tuples.
type Limit struct {
	Child Operator
	N     int
	count int
}

// Schema implements Operator.
func (l *Limit) Schema() *schema.Schema { return l.Child.Schema() }

// Open implements Operator.
func (l *Limit) Open(outer *expr.Context) error {
	l.count = 0
	return l.Child.Open(outer)
}

// Next implements Operator.
func (l *Limit) Next() (tuple.Tuple, bool, error) {
	if l.count >= l.N {
		return nil, false, nil
	}
	t, ok, err := l.Child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	l.count++
	return t, true, nil
}

// Close implements Operator.
func (l *Limit) Close() error { return l.Child.Close() }
