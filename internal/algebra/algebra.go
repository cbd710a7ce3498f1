// Package algebra implements the physical relational operators — Scan,
// Filter, Project, CrossJoin, HashJoin, Aggregate, Distinct, Sort, Union and
// Limit — as one set of batch-at-a-time operators over colbatch batches (the
// execution model is in batch.go).
//
// Expressions are evaluated by two kernels (kernel.go): Select turns a
// predicate into a selection of a batch's rows, Filter's step, and Values
// turns expressions into a batch of values, Project's step. Each runs
// column-at-a-time over a columnar batch when its expressions are
// vectorizable and otherwise row by row through RowEval, the one row
// evaluator, which Aggregate's non-vectorizable arguments use too. UPDATE
// and DELETE (internal/plan's BoundDML.Apply) are the same two kernels
// composed.
//
// Operators are opened with the expression context of the *enclosing* query
// (nil at the top level), so correlated subqueries can reach outer columns
// through expr.Context.Outer chains.
//
// Collect's answer may be the stored batch itself: a tree that only reads a
// relation's columns (a Scan, or a Project of plain columns over one) is
// answered by a zero-copy view of its batch. Any other answer of one batch
// shares that batch, and one of several is copied once into columns of its
// length. Answers are read-only like every batch; an append to one
// reallocates instead of reaching what it shares.
package algebra

import (
	"errors"
	"fmt"

	"maybms/internal/colbatch"
	"maybms/internal/expr"
	"maybms/internal/obs"
	"maybms/internal/relation"
	"maybms/internal/schema"
)

// ErrExec is wrapped by operator execution errors.
var ErrExec = errors.New("execution error")

// Process-wide collect counters, exposed on GET /metrics. Incremented once
// per Collect call / once per collected relation — never per row — so the
// instrumented hot path pays a handful of atomic adds per evaluation.
var (
	batchCollects = obs.Default().Counter(`maybms_collects_total{path="batch"}`,
		"Collect calls by the form of the drained answer (batch = columnar, row = row form: fewer than colbatch's floor of rows).")
	rowCollects = obs.Default().Counter(`maybms_collects_total{path="row"}`, "")
	collectRows = obs.Default().Counter("maybms_collect_rows_total",
		"Tuples materialized by Collect across all statements.")
)

// Operator is a batch-at-a-time operator. A bound tree may be drained any
// number of times: each drain is Open, NextBatch until a nil batch (end of
// stream) or an error, then Close, and Open resets all iteration state.
// A returned batch's data is immutable; its header belongs to the operator
// and stays valid until the next NextBatch call.
type Operator interface {
	// Schema describes the rows produced by NextBatch.
	Schema() *schema.Schema
	// Open prepares a drain. outer is the expression context of the
	// enclosing query for correlated references, or nil.
	Open(outer *expr.Context) error
	// NextBatch returns the next non-empty batch, or nil at end of stream.
	NextBatch() (*colbatch.Batch, error)
	// Close releases resources. Close is idempotent.
	Close() error
}

// Collect drains op into a relation backed by its answer batch (see
// CollectBatch).
func Collect(op Operator, outer *expr.Context) (*relation.Relation, error) {
	b, err := CollectBatch(op, outer)
	if err != nil {
		return nil, err
	}
	return relation.FromBatch(b), nil
}

// CollectBatch drains op into one batch (see drain: possibly a view of a
// stored batch) and ticks the collect counters once: one
// maybms_collects_total{path=batch|row} tick by the answer's form, rows
// counted once.
func CollectBatch(op Operator, outer *expr.Context) (*colbatch.Batch, error) {
	out, err := drain(op, outer)
	if err != nil {
		return nil, err
	}
	rows := out.RowBacked()
	if rows {
		rowCollects.Inc()
	} else {
		batchCollects.Inc()
	}
	collectRows.Add(uint64(out.Len()))
	if stats := outer.FindStats(); stats != nil {
		if rows {
			stats.RowCollects.Add(1)
		} else {
			stats.BatchCollects.Add(1)
		}
		stats.Rows.Add(uint64(out.Len()))
	}
	return out, nil
}

// Scan emits a relation's batch in batches of up to batchSize rows. A
// relation that fits one batch is emitted as its stored batch, under the
// stored schema (consumers read columns by index; Collect answers under the
// operator's Schema).
type Scan struct {
	Rel *relation.Relation
	// Out, when set, is the scan's output schema: Rel's columns under the
	// names of a FROM binding. Nil means Rel.Schema.
	Out   *schema.Schema
	b     *colbatch.Batch
	chunk *colbatch.Batch // reused zero-copy window over a larger relation
	pos   int
	ip    interruptHook
}

// NewScan creates a scan over rel.
func NewScan(rel *relation.Relation) *Scan { return &Scan{Rel: rel} }

// Schema implements Operator.
func (s *Scan) Schema() *schema.Schema {
	if s.Out != nil {
		return s.Out
	}
	return s.Rel.Schema
}

// Open implements Operator.
func (s *Scan) Open(outer *expr.Context) error {
	s.b = s.Rel.Batch()
	s.pos = 0
	s.ip.init(outer)
	return nil
}

// NextBatch implements Operator.
func (s *Scan) NextBatch() (*colbatch.Batch, error) {
	if err := s.ip.poll(); err != nil {
		return nil, err
	}
	n := s.b.Len()
	switch {
	case s.pos >= n:
		return nil, nil
	case n <= batchSize:
		s.pos = n
		return s.b, nil
	}
	if s.chunk == nil {
		s.chunk = new(colbatch.Batch)
	}
	hi := min(s.pos+batchSize, n)
	out := s.b.SliceInto(s.chunk, s.pos, hi)
	s.pos = hi
	return out, nil
}

// Close implements Operator.
func (s *Scan) Close() error { return nil }

// Filter passes through rows on which Pred is true (SQL semantics: NULL and
// false both drop the row), selecting each batch's rows with the Select
// kernel. A per-row predicate error is deferred until the rows preceding it
// have been emitted.
type Filter struct {
	Child Operator
	Pred  expr.Expr
	ev    RowEval
	sel   []int32
	err   error
}

// Schema implements Operator.
func (f *Filter) Schema() *schema.Schema { return f.Child.Schema() }

// Open implements Operator.
func (f *Filter) Open(outer *expr.Context) error {
	f.ev.Reset(f.Child.Schema(), outer)
	f.err = nil
	return f.Child.Open(outer)
}

// NextBatch implements Operator.
func (f *Filter) NextBatch() (*colbatch.Batch, error) {
	for {
		if f.err != nil {
			return nil, f.err
		}
		b, err := f.Child.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		if f.sel, err = Select(f.Pred, b, &f.ev, f.sel); err != nil {
			f.err = fmt.Errorf("%w: filter %s: %w", ErrExec, f.Pred, err)
		}
		switch len(f.sel) {
		case 0:
			continue
		case b.Len():
			return b, nil
		}
		return b.Gather(f.sel), nil
	}
}

// Close implements Operator.
func (f *Filter) Close() error { return f.Child.Close() }

// Project computes an output row per input row from expressions with the
// Values kernel. A per-row error is deferred until the rows preceding it
// have been emitted.
type Project struct {
	Child Operator
	Exprs []expr.Expr
	Out   *schema.Schema
	ev    RowEval
	err   error
}

// Schema implements Operator.
func (p *Project) Schema() *schema.Schema { return p.Out }

// Open implements Operator.
func (p *Project) Open(outer *expr.Context) error {
	if len(p.Exprs) != p.Out.Len() {
		return fmt.Errorf("%w: project arity %d vs schema %s", ErrExec, len(p.Exprs), p.Out)
	}
	p.ev.Reset(p.Child.Schema(), outer)
	p.err = nil
	return p.Child.Open(outer)
}

// NextBatch implements Operator.
func (p *Project) NextBatch() (*colbatch.Batch, error) {
	if p.err != nil {
		return nil, p.err
	}
	b, err := p.Child.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	out, bad, err := Values(p.Exprs, b, &p.ev, p.Out)
	if err != nil {
		p.err = fmt.Errorf("%w: projecting %s: %w", ErrExec, p.Exprs[bad], err)
		if out == nil {
			return nil, p.err
		}
	}
	return out, nil
}

// Close implements Operator.
func (p *Project) Close() error { return p.Child.Close() }

// Distinct drops duplicate rows, streaming, preserving first occurrences. Each
// row is keyed through one reused byte arena: one key string per distinct
// row, none per duplicate.
type Distinct struct {
	Child Operator
	// Except, when set, yields on Open the keys (tuple.Encode) of rows to
	// drop as if an earlier input had shown them: the set is shared and
	// read-only. The planner's delta binding subtracts a certain answer
	// computed once this way (plan.Deltas).
	Except func(outer *expr.Context) (map[string]struct{}, error)
	// Tagged marks the last column as a tag (the planner's tagged deltas):
	// rows are distinct per tag, and Except holds keys of rows without it.
	Tagged    bool
	except    map[string]struct{}
	seen      map[string]struct{}
	body, tag []int // Tagged: the columns before the tag, and the tag's
	sel       []int32
	key       []byte
}

// Schema implements Operator.
func (d *Distinct) Schema() *schema.Schema { return d.Child.Schema() }

// Open implements Operator.
func (d *Distinct) Open(outer *expr.Context) error {
	if d.seen == nil {
		d.seen = make(map[string]struct{})
	} else {
		clear(d.seen)
	}
	if d.Except != nil {
		var err error
		if d.except, err = d.Except(outer); err != nil {
			return err
		}
	}
	if d.Tagged && d.tag == nil {
		w := d.Child.Schema().Len()
		d.body, d.tag = make([]int, w-1), []int{w - 1}
		for j := range d.body {
			d.body[j] = j
		}
	}
	return d.Child.Open(outer)
}

// NextBatch implements Operator.
func (d *Distinct) NextBatch() (*colbatch.Batch, error) {
	for {
		b, err := d.Child.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		sel := d.sel[:0]
		for i := 0; i < b.Len(); i++ {
			if d.Tagged {
				d.key = b.AppendKeyOn(d.key[:0], d.body, i)
			} else {
				d.key = b.AppendKey(d.key[:0], i)
			}
			if _, dup := d.except[string(d.key)]; dup {
				continue
			}
			if d.Tagged {
				d.key = b.AppendKeyOn(d.key, d.tag, i) // the full row's key
			}
			if _, dup := d.seen[string(d.key)]; dup {
				continue
			}
			d.seen[string(d.key)] = struct{}{}
			sel = append(sel, int32(i))
		}
		d.sel = sel
		switch len(sel) {
		case 0:
			continue
		case b.Len():
			return b, nil
		}
		return b.Gather(sel), nil
	}
}

// Close implements Operator.
func (d *Distinct) Close() error { return d.Child.Close() }

// Union concatenates two inputs with identical arity, left first. Wrap in
// Distinct for SQL UNION; use alone for UNION ALL.
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

// NextBatch implements Operator.
func (u *Union) NextBatch() (*colbatch.Batch, error) {
	if !u.onRight {
		b, err := u.Left.NextBatch()
		if err != nil || b != nil {
			return b, err
		}
		u.onRight = true
	}
	return u.Right.NextBatch()
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
	out   *colbatch.Batch
	done  bool
}

// Schema implements Operator.
func (s *Sort) Schema() *schema.Schema { return s.Child.Schema() }

// Open implements Operator.
func (s *Sort) Open(outer *expr.Context) error {
	in, err := drain(s.Child, outer)
	if err != nil {
		return err
	}
	perm := make([]int32, in.Len())
	for i := range perm {
		perm[i] = int32(i)
	}
	sortRows(perm, in, s.Keys)
	s.out = in.Gather(perm)
	s.done = false
	return nil
}

// NextBatch implements Operator.
func (s *Sort) NextBatch() (*colbatch.Batch, error) {
	if s.done || s.out.Len() == 0 {
		return nil, nil
	}
	s.done = true
	return s.out, nil
}

// Close implements Operator.
func (s *Sort) Close() error { return nil }

// Limit caps the number of emitted rows. Every operator emits the rows
// preceding a per-row error before failing, so Limit stops exactly where a
// row-at-a-time LIMIT would: an error past the cut is never reached.
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

// NextBatch implements Operator.
func (l *Limit) NextBatch() (*colbatch.Batch, error) {
	if l.count >= l.N {
		return nil, nil
	}
	b, err := l.Child.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	take := min(l.N-l.count, b.Len())
	l.count += take
	if take == b.Len() {
		return b, nil
	}
	return b.Slice(0, take), nil
}

// Close implements Operator.
func (l *Limit) Close() error { return l.Child.Close() }
