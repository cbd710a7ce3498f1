package algebra

// The row-at-a-time reference operators: Volcano iterators, one tuple per
// Next call, each row evaluated on its own. They are the oracle the
// operators are held to (TestRowBatchEquivalenceFuzz and the join tests):
// rowTree mirrors an operator tree node for node, reading only its exported
// fields, and collectReference drains the mirror.

import (
	"fmt"
	"sort"

	"maybms/internal/colbatch"
	"maybms/internal/expr"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/tuple"
)

type rowOp interface {
	Schema() *schema.Schema
	Open(outer *expr.Context) error
	Next() (t tuple.Tuple, ok bool, err error)
	Close() error
}

// rowTree builds the reference evaluation of op.
func rowTree(op Operator) rowOp {
	switch n := op.(type) {
	case *Scan:
		return &rowScan{rel: n.Rel, out: n.Schema()}
	case *Filter:
		return &rowFilter{child: rowTree(n.Child), pred: n.Pred}
	case *Project:
		return &rowProject{child: rowTree(n.Child), exprs: n.Exprs, out: n.Out}
	case *CrossJoin:
		return &rowCrossJoin{left: rowTree(n.Left), right: rowTree(n.Right)}
	case *HashJoin:
		return &rowHashJoin{left: rowTree(n.Left), right: rowTree(n.Right),
			leftKeys: n.LeftKeys, rightKeys: n.RightKeys, build: n.Build}
	case *Distinct:
		return &rowDistinct{child: rowTree(n.Child), loadExcept: n.Except}
	case *Union:
		return &rowUnion{left: rowTree(n.Left), right: rowTree(n.Right)}
	case *Sort:
		return &rowSort{child: rowTree(n.Child), keys: n.Keys}
	case *Limit:
		return &rowLimit{child: rowTree(n.Child), n: n.N}
	case *Aggregate:
		return &rowAggregate{child: rowTree(n.Child), groupBy: n.GroupBy, specs: n.Specs, out: n.Out}
	}
	panic(fmt.Sprintf("rowTree: unsupported operator %T", op))
}

// collectReference drains the reference evaluation of op into a relation.
func collectReference(op Operator, outer *expr.Context) (*relation.Relation, error) {
	r := rowTree(op)
	rows, err := drainRowOp(r, outer)
	if err != nil {
		return nil, err
	}
	return relation.FromBatch(colbatch.FromRows(r.Schema(), rows)), nil
}

func drainRowOp(op rowOp, outer *expr.Context) ([]tuple.Tuple, error) {
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

type rowScan struct {
	rel  *relation.Relation
	out  *schema.Schema
	rows []tuple.Tuple
	pos  int
}

func (s *rowScan) Schema() *schema.Schema { return s.out }

func (s *rowScan) Open(*expr.Context) error {
	s.rows, s.pos = s.rel.Rows(), 0
	return nil
}

func (s *rowScan) Next() (tuple.Tuple, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	s.pos++
	return s.rows[s.pos-1], true, nil
}

func (s *rowScan) Close() error { return nil }

type rowFilter struct {
	child rowOp
	pred  expr.Expr
	outer *expr.Context
}

func (f *rowFilter) Schema() *schema.Schema { return f.child.Schema() }

func (f *rowFilter) Open(outer *expr.Context) error {
	f.outer = outer
	return f.child.Open(outer)
}

func (f *rowFilter) Next() (tuple.Tuple, bool, error) {
	for {
		t, ok, err := f.child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		ctx := &expr.Context{Schema: f.child.Schema(), Tuple: t, Outer: f.outer}
		v, err := f.pred.Eval(ctx)
		if err != nil {
			return nil, false, fmt.Errorf("%w: filter %s: %w", ErrExec, f.pred, err)
		}
		if v.Truth() {
			return t, true, nil
		}
	}
}

func (f *rowFilter) Close() error { return f.child.Close() }

type rowProject struct {
	child rowOp
	exprs []expr.Expr
	out   *schema.Schema
	outer *expr.Context
}

func (p *rowProject) Schema() *schema.Schema { return p.out }

func (p *rowProject) Open(outer *expr.Context) error {
	if len(p.exprs) != p.out.Len() {
		return fmt.Errorf("%w: project arity %d vs schema %s", ErrExec, len(p.exprs), p.out)
	}
	p.outer = outer
	return p.child.Open(outer)
}

func (p *rowProject) Next() (tuple.Tuple, bool, error) {
	t, ok, err := p.child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	ctx := &expr.Context{Schema: p.child.Schema(), Tuple: t, Outer: p.outer}
	out := make(tuple.Tuple, len(p.exprs))
	for i, e := range p.exprs {
		v, err := e.Eval(ctx)
		if err != nil {
			return nil, false, fmt.Errorf("%w: projecting %s: %w", ErrExec, e, err)
		}
		out[i] = v
	}
	return out, true, nil
}

func (p *rowProject) Close() error { return p.child.Close() }

type rowCrossJoin struct {
	left, right rowOp
	rightRows   []tuple.Tuple
	cur         tuple.Tuple
	rpos        int
}

func (j *rowCrossJoin) Schema() *schema.Schema { return j.left.Schema().Concat(j.right.Schema()) }

func (j *rowCrossJoin) Open(outer *expr.Context) error {
	if err := j.left.Open(outer); err != nil {
		return err
	}
	right, err := drainRowOp(j.right, outer)
	if err != nil {
		j.left.Close()
		return err
	}
	j.rightRows, j.cur, j.rpos = right, nil, 0
	return nil
}

func (j *rowCrossJoin) Next() (tuple.Tuple, bool, error) {
	for {
		if j.cur == nil {
			t, ok, err := j.left.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			j.cur, j.rpos = t, 0
		}
		if j.rpos < len(j.rightRows) {
			j.rpos++
			return j.cur.Concat(j.rightRows[j.rpos-1]), true, nil
		}
		j.cur = nil
	}
}

func (j *rowCrossJoin) Close() error { return j.left.Close() }

type rowHashJoin struct {
	left, right         rowOp
	leftKeys, rightKeys []int
	build               func(*expr.Context) (*JoinTable, error)
	table               *JoinTable
	cur                 tuple.Tuple
	key                 []byte
	row                 int32 // next candidate build row of cur's chain, -1 = none
}

func (j *rowHashJoin) Schema() *schema.Schema { return j.left.Schema().Concat(j.right.Schema()) }

func (j *rowHashJoin) Open(outer *expr.Context) error {
	if len(j.leftKeys) != len(j.rightKeys) || len(j.leftKeys) == 0 {
		return fmt.Errorf("%w: hash join needs matching non-empty key lists", ErrExec)
	}
	if err := j.left.Open(outer); err != nil {
		return err
	}
	var err error
	if j.build != nil {
		j.table, err = j.build(outer)
	} else {
		var right []tuple.Tuple
		if right, err = drainRowOp(j.right, outer); err == nil {
			j.table = newJoinTable(colbatch.FromRows(j.right.Schema(), right), j.rightKeys)
		}
	}
	if err != nil {
		j.left.Close()
		return err
	}
	j.cur, j.row = nil, -1
	return nil
}

func (j *rowHashJoin) Next() (tuple.Tuple, bool, error) {
	for {
		for j.row >= 0 {
			r := j.row
			j.row = j.table.next[r]
			if j.table.matches(r, j.key) {
				return j.cur.Concat(j.table.rows.Row(int(r))), true, nil
			}
		}
		t, ok, err := j.left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		j.cur = t
		j.key, j.row = j.table.probeTuple(j.key[:0], t, j.leftKeys)
	}
}

func (j *rowHashJoin) Close() error { return j.left.Close() }

type rowDistinct struct {
	child      rowOp
	loadExcept func(*expr.Context) (map[string]struct{}, error)
	except     map[string]struct{}
	seen       map[string]struct{}
}

func (d *rowDistinct) Schema() *schema.Schema { return d.child.Schema() }

func (d *rowDistinct) Open(outer *expr.Context) error {
	d.seen = make(map[string]struct{})
	if d.loadExcept != nil {
		var err error
		if d.except, err = d.loadExcept(outer); err != nil {
			return err
		}
	}
	return d.child.Open(outer)
}

func (d *rowDistinct) Next() (tuple.Tuple, bool, error) {
	for {
		t, ok, err := d.child.Next()
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

func (d *rowDistinct) Close() error { return d.child.Close() }

type rowUnion struct {
	left, right rowOp
	onRight     bool
}

func (u *rowUnion) Schema() *schema.Schema { return u.left.Schema() }

func (u *rowUnion) Open(outer *expr.Context) error {
	if u.left.Schema().Len() != u.right.Schema().Len() {
		return fmt.Errorf("%w: union arity mismatch %s vs %s", ErrExec, u.left.Schema(), u.right.Schema())
	}
	u.onRight = false
	if err := u.left.Open(outer); err != nil {
		return err
	}
	return u.right.Open(outer)
}

func (u *rowUnion) Next() (tuple.Tuple, bool, error) {
	if !u.onRight {
		t, ok, err := u.left.Next()
		if err != nil || ok {
			return t, ok, err
		}
		u.onRight = true
	}
	return u.right.Next()
}

func (u *rowUnion) Close() error {
	err1, err2 := u.left.Close(), u.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

type rowSort struct {
	child rowOp
	keys  []SortKey
	rows  []tuple.Tuple
	pos   int
}

func (s *rowSort) Schema() *schema.Schema { return s.child.Schema() }

func (s *rowSort) Open(outer *expr.Context) error {
	rows, err := drainRowOp(s.child, outer)
	if err != nil {
		return err
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range s.keys {
			c := tuple.Compare(tuple.Tuple{rows[i][k.Index]}, tuple.Tuple{rows[j][k.Index]})
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return tuple.Compare(rows[i], rows[j]) < 0
	})
	s.rows, s.pos = rows, 0
	return nil
}

func (s *rowSort) Next() (tuple.Tuple, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	s.pos++
	return s.rows[s.pos-1], true, nil
}

func (s *rowSort) Close() error { return nil }

type rowLimit struct {
	child rowOp
	n     int
	count int
}

func (l *rowLimit) Schema() *schema.Schema { return l.child.Schema() }

func (l *rowLimit) Open(outer *expr.Context) error {
	l.count = 0
	return l.child.Open(outer)
}

func (l *rowLimit) Next() (tuple.Tuple, bool, error) {
	if l.count >= l.n {
		return nil, false, nil
	}
	t, ok, err := l.child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	l.count++
	return t, true, nil
}

func (l *rowLimit) Close() error { return l.child.Close() }

type rowAggregate struct {
	child   rowOp
	groupBy []int
	specs   []expr.AggSpec
	out     *schema.Schema
	rows    []tuple.Tuple
	pos     int
}

func (a *rowAggregate) Schema() *schema.Schema { return a.out }

func (a *rowAggregate) Open(outer *expr.Context) error {
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
	var order []string
	groups := map[string]*group{}
	newGroup := func(key tuple.Tuple) *group {
		g := &group{key: key, accs: make([]*expr.Accumulator, len(a.specs))}
		for i, spec := range a.specs {
			g.accs[i] = expr.NewAccumulator(spec)
		}
		return g
	}
	for {
		t, ok, err := a.child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		k := t.KeyOn(a.groupBy)
		g, exists := groups[k]
		if !exists {
			g = newGroup(t.Project(a.groupBy))
			groups[k] = g
			order = append(order, k)
		}
		ctx := &expr.Context{Schema: a.child.Schema(), Tuple: t, Outer: outer}
		for _, acc := range g.accs {
			if err := acc.Add(ctx); err != nil {
				return fmt.Errorf("%w: %v", ErrExec, err)
			}
		}
	}
	if len(groups) == 0 && len(a.groupBy) == 0 {
		groups[""] = newGroup(tuple.Tuple{})
		order = append(order, "")
	}
	a.rows, a.pos = nil, 0
	for _, k := range order {
		g := groups[k]
		row := append(tuple.Tuple(nil), g.key...)
		for _, acc := range g.accs {
			row = append(row, acc.Result())
		}
		a.rows = append(a.rows, row)
	}
	return nil
}

func (a *rowAggregate) Next() (tuple.Tuple, bool, error) {
	if a.pos >= len(a.rows) {
		return nil, false, nil
	}
	a.pos++
	return a.rows[a.pos-1], true, nil
}

func (a *rowAggregate) Close() error { return nil }
