package plan

// Compile-once plan templates. The possible-worlds engines run the plain-SQL
// core of every statement in each world, and a world-set is a set of
// databases over one schema: every statement that adds or replaces a
// relation does so in every world alike. So all the planning work — name
// resolution, star expansion, aggregate rewriting, subquery compilation —
// happens once, against any one world (or the decomposition's schemas), and
// the template binds in all of them. The Prepare* functions below compile
// such a template; Bind instantiates it against a world's catalog by walking
// the template and constructing fresh operator state with the world's
// relations swapped into the table scans. Prepare → Cached → Bind is the one
// way either engine compiles a statement.
//
// Every Prepare* compiles through a recorder (cache.go): the planner sees
// each table as an empty relation of its schema, so no template holds
// tuples, and the template keeps the tables it read with their schemas,
// which is what Cached checks a hit against. Bind checks that every table
// it rebinds still has the column names the template was compiled against
// and fails with ErrRebind otherwise. Operator iteration state is always
// per-instance, and expression trees are shared only when they contain no
// subqueries (subquery-free expressions are immutable and safe to evaluate
// concurrently). What bound instances do share is the statement's Memo
// (memo.go): every Bind takes it, and an uncorrelated subquery's answer and
// a hash join's build side are computed once per statement for each
// distinct set of relations they read.

import (
	"errors"
	"fmt"
	"sync/atomic"

	"maybms/internal/algebra"
	"maybms/internal/expr"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
	"maybms/internal/tuple"
)

// prepares counts template compilations process-wide; it makes cache
// effectiveness observable (a cache hit executes zero Prepare* calls).
var prepares atomic.Uint64

// PrepareCount returns the number of Prepare* template compilations
// performed by the process so far.
func PrepareCount() uint64 { return prepares.Load() }

// ErrRebind reports that a template could not be instantiated against a
// catalog that lacks a table or a column it was compiled against. Cached
// never hands out such a template (it checks the tables a template read), so
// only a caller binding against a catalog of other schemas meets it.
var ErrRebind = errors.New("plan rebind failed")

// tableScan is a Scan that remembers which catalog name it was compiled
// from, so the rebinder can look the table up again in another world. The
// embedded Scan holds the compile-time relation, an empty one of the
// table's schema (the recorder's), and, as its output schema, the qualified
// one (the table's schema unqualified, then qualified by the FROM binding).
// A rebind target must have the compile-time column names for the
// template's resolved column indexes and output spellings to remain valid.
type tableScan struct {
	algebra.Scan
	table string
}

func newTableScan(table string, rel *relation.Relation, binding string) *tableScan {
	return &tableScan{
		Scan:  algebra.Scan{Rel: rel, Out: rel.Schema.Unqualify().Qualify(binding)},
		table: table,
	}
}

// inputScan marks the scan over an externally supplied relation (the
// FROM/WHERE intermediate of a repair/choice split); the rebinder swaps in
// the per-piece relation.
type inputScan struct {
	algebra.Scan
}

// compiledSubquery is a compiled nested query. It is the planner's concrete
// expr.Subquery so the rebinder can instantiate the inner plan per world.
//
// uncorrelated is the planner's mark, set while it compiles the subquery:
// no column inside resolves beyond the subquery's own scopes, so its answer
// depends on the relations it reads and nothing else. A bound uncorrelated
// subquery therefore runs once per statement for each distinct set of
// relations it reads, through the statement's Memo (shared), not once per
// outer row; a correlated one runs per outer row.
type compiledSubquery struct {
	op           algebra.Operator
	uncorrelated bool
	shared       *memoEntry
}

// Eval implements expr.Subquery.
func (s *compiledSubquery) Eval(ctx *expr.Context) (*relation.Relation, error) {
	if s.shared != nil {
		return s.shared.answer(s.op, ctx)
	}
	return algebra.Collect(s.op, ctx)
}

// binding carries the instantiation target while rebinding a template.
type binding struct {
	cat Catalog
	// input replaces inputScan relations; nil outside split evaluation.
	input *relation.Relation
	// memo shares the statement's invariant subplans (nil: none shared).
	memo *Memo
	// correlated is set inside a correlated subquery, whose build sides
	// are not shared.
	correlated bool
	// keyed counts the shared subplans being bound around the current node,
	// and reads lists the relations their scans read, in bind order: a
	// shared subplan's key is the stretch its own scans (nested subqueries'
	// included) appended.
	keyed int
	reads []*relation.Relation
}

// read notes a relation a bound scan reads.
func (b *binding) read(rel *relation.Relation) {
	switch {
	case b.keyed == 0:
	case b.reads == nil:
		b.reads = append(make([]*relation.Relation, 0, 4), rel)
	default:
		b.reads = append(b.reads, rel)
	}
}

// sameColumnNames reports whether two schemas carry identical column names
// in order (exact, case-sensitive — spelling feeds result schemas).
func sameColumnNames(a, b *schema.Schema) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(i).Name != b.At(i).Name {
			return false
		}
	}
	return true
}

// bind returns a fresh scan of rel, a catalog's instance of the scanned
// table, under the template's qualified schema. The scan reads rel itself,
// so every bind shares its batch and its lazy key set.
func (n *tableScan) bind(rel *relation.Relation) (algebra.Operator, error) {
	if !sameColumnNames(rel.Schema, n.Rel.Schema) {
		return nil, fmt.Errorf("%w: schema of %s diverged from compile time (%s vs %s)",
			ErrRebind, n.table, rel.Schema, n.Rel.Schema)
	}
	// Same column names: the template's qualified schema (and every
	// column index resolved against it) stays valid over the new tuples.
	return &algebra.Scan{Rel: rel, Out: n.Out}, nil
}

// bindTagged is bind for a tagged relation (PartsCatalog.Delta): rel's
// columns are the table's followed by the tag, and so are the scan's.
func (n *tableScan) bindTagged(rel *relation.Relation) (algebra.Operator, error) {
	if !sameColumnNames(Tagged(n.Rel.Schema), rel.Schema) {
		return nil, fmt.Errorf("%w: tagged schema of %s diverged from compile time (%s vs %s)",
			ErrRebind, n.table, rel.Schema, n.Rel.Schema)
	}
	return &algebra.Scan{Rel: rel, Out: Tagged(n.Out)}, nil
}

// rebindOp instantiates a fresh operator tree bound to b. Iteration state is
// never shared with the template or with other instances.
func rebindOp(op algebra.Operator, b *binding) (algebra.Operator, error) {
	switch n := op.(type) {
	case *tableScan:
		rel, err := b.cat.Lookup(n.table)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrRebind, err)
		}
		b.read(rel)
		return n.bind(rel)
	case *inputScan:
		if b.input == nil {
			return nil, fmt.Errorf("%w: no input relation bound for split intermediate", ErrRebind)
		}
		if !b.input.Schema.Identical(n.Rel.Schema) {
			return nil, fmt.Errorf("%w: split intermediate schema diverged (%s vs %s)",
				ErrRebind, b.input.Schema, n.Rel.Schema)
		}
		b.read(b.input)
		return algebra.NewScan(b.input), nil
	case *algebra.Scan:
		// Literal relation (the dual for an empty FROM): its contents are
		// world-independent and read-only; share them under fresh state.
		b.read(n.Rel)
		return &algebra.Scan{Rel: n.Rel, Out: n.Out}, nil
	case *algebra.HashJoin:
		if b.memo != nil && !b.correlated {
			left, err := rebindOp(n.Left, b)
			if err != nil {
				return nil, err
			}
			return b.sharedJoin(n, left)
		}
	}
	if l, r, ok := joined(op); ok {
		left, err := rebindOp(l, b)
		if err != nil {
			return nil, err
		}
		right, err := rebindOp(r, b)
		if err != nil {
			return nil, err
		}
		return rejoin(op, left, right), nil
	}
	c, ok := childOf(op)
	if !ok {
		return nil, fmt.Errorf("%w: unsupported operator %T", ErrRebind, op)
	}
	child, err := rebindOp(c, b)
	if err != nil {
		return nil, err
	}
	return rewrap(op, child, b)
}

// sharedJoin instantiates the template join n over a bound left input,
// its build side bound under b and hashed once per statement for the
// relations it reads (b.memo must be set).
func (b *binding) sharedJoin(n *algebra.HashJoin, left algebra.Operator) (algebra.Operator, error) {
	from := len(b.reads)
	b.keyed++
	right, err := rebindOp(n.Right, b)
	b.keyed--
	if err != nil {
		return nil, err
	}
	return &algebra.HashJoin{Left: left, Right: right, LeftKeys: n.LeftKeys, RightKeys: n.RightKeys,
		Build: b.memo.entry(n, b.reads[from:]).build(right, n.RightKeys)}, nil
}

// joined returns the inputs of a two-input operator.
func joined(op algebra.Operator) (left, right algebra.Operator, ok bool) {
	switch n := op.(type) {
	case *algebra.CrossJoin:
		return n.Left, n.Right, true
	case *algebra.HashJoin:
		return n.Left, n.Right, true
	case *algebra.Union:
		return n.Left, n.Right, true
	}
	return nil, nil, false
}

// rejoin instantiates the two-input operator op over bound inputs.
func rejoin(op, left, right algebra.Operator) algebra.Operator {
	switch n := op.(type) {
	case *algebra.CrossJoin:
		return &algebra.CrossJoin{Left: left, Right: right}
	case *algebra.HashJoin:
		return &algebra.HashJoin{Left: left, Right: right, LeftKeys: n.LeftKeys, RightKeys: n.RightKeys}
	default:
		return &algebra.Union{Left: left, Right: right}
	}
}

// childOf returns the input of a one-input operator.
func childOf(op algebra.Operator) (algebra.Operator, bool) {
	switch n := op.(type) {
	case *algebra.Filter:
		return n.Child, true
	case *algebra.Project:
		return n.Child, true
	case *algebra.Aggregate:
		return n.Child, true
	case *algebra.Distinct:
		return n.Child, true
	case *algebra.Sort:
		return n.Child, true
	case *algebra.Limit:
		return n.Child, true
	}
	return nil, false
}

// rewrap instantiates the one-input operator op over a bound child, its
// expressions rebound under b.
func rewrap(op, child algebra.Operator, b *binding) (algebra.Operator, error) {
	switch n := op.(type) {
	case *algebra.Filter:
		pred, _, err := rebindExpr(n.Pred, b)
		if err != nil {
			return nil, err
		}
		return &algebra.Filter{Child: child, Pred: pred}, nil
	case *algebra.Project:
		exprs, err := rebindExprs(n.Exprs, b)
		if err != nil {
			return nil, err
		}
		return &algebra.Project{Child: child, Exprs: exprs, Out: n.Out}, nil
	case *algebra.Aggregate:
		specs := n.Specs
		for i := range n.Specs {
			if n.Specs[i].Arg == nil {
				continue
			}
			arg, changed, err := rebindExpr(n.Specs[i].Arg, b)
			if err != nil {
				return nil, err
			}
			if changed {
				if &specs[0] == &n.Specs[0] { // copy-on-write
					specs = append([]expr.AggSpec(nil), n.Specs...)
				}
				specs[i].Arg = arg
			}
		}
		return &algebra.Aggregate{Child: child, GroupBy: n.GroupBy, Specs: specs, Out: n.Out}, nil
	case *algebra.Distinct:
		return &algebra.Distinct{Child: child}, nil
	case *algebra.Sort:
		return &algebra.Sort{Child: child, Keys: n.Keys}, nil
	case *algebra.Limit:
		return &algebra.Limit{Child: child, N: n.N}, nil
	default:
		return nil, fmt.Errorf("%w: unsupported operator %T", ErrRebind, op)
	}
}

// rebindExpr instantiates an expression for b: an expr.Map that rebinds
// the subquery of every Exists, In and Scalar (b.rebindNode). An
// expression without one is stateless and world-independent, so Map
// returns it unchanged (changed = false) and instances share it; a node
// with a subquery beneath it is rebuilt around the rebound subplan.
func rebindExpr(e expr.Expr, b *binding) (expr.Expr, bool, error) {
	return expr.Map(e, b.rebindNode)
}

// rebindExprs rebinds a list copy-on-write: the list itself when no
// expression changed.
func rebindExprs(exprs []expr.Expr, b *binding) ([]expr.Expr, error) {
	out, _, err := expr.MapList(exprs, b.rebindNode)
	return out, err
}

// rebindNode is rebindExpr's Map callback: it rebinds a node's subquery.
func (b *binding) rebindNode(n expr.Expr) (expr.Expr, bool, error) {
	var err error
	switch x := n.(type) {
	case expr.Exists:
		x.Sub, err = rebindSubquery(x.Sub, b)
		return x, true, err
	case expr.In:
		if x.Sub == nil {
			break
		}
		x.Sub, err = rebindSubquery(x.Sub, b)
		return x, true, err
	case expr.Scalar:
		x.Sub, err = rebindSubquery(x.Sub, b)
		return x, true, err
	}
	return n, false, nil
}

// rebindSubquery instantiates a subquery for b; an uncorrelated one binds
// to its entry in the statement's memo.
func rebindSubquery(sub expr.Subquery, b *binding) (expr.Subquery, error) {
	cs, ok := sub.(*compiledSubquery)
	if !ok {
		return nil, fmt.Errorf("%w: unsupported subquery %T", ErrRebind, sub)
	}
	out := &compiledSubquery{uncorrelated: cs.uncorrelated}
	shared := b.memo != nil && cs.uncorrelated
	from, correlated := len(b.reads), b.correlated
	if shared {
		b.keyed++
	}
	b.correlated = correlated || !cs.uncorrelated
	op, err := rebindOp(cs.op, b)
	b.correlated = correlated
	if shared {
		b.keyed--
	}
	if err != nil {
		return nil, err
	}
	out.op = op
	if shared {
		out.shared = b.memo.entry(cs, b.reads[from:])
	}
	return out, nil
}

// Prepared is a statement template compiled by Prepare or
// PrepareFromWhere.
type Prepared struct {
	op algebra.Operator
	reads
}

// Prepare compiles the plain-SQL core of stmt once against a representative
// catalog (typically the first world). The template itself is never
// executed; Bind instantiates it per world.
func Prepare(stmt *sqlparse.SelectStmt, cat Catalog) (*Prepared, error) {
	prepares.Add(1)
	rec := &recorder{cat: cat}
	op, err := build(stmt, rec, nil)
	if err != nil {
		return nil, err
	}
	return &Prepared{op: op, reads: rec.reads}, nil
}

// PrepareFromWhere compiles only the FROM and WHERE clauses of stmt once:
// Bind yields the pre-projection intermediate, whose schema keeps the FROM
// qualifiers. REPAIR BY KEY and CHOICE OF split this intermediate before
// the rest of the query runs (the paper's "select A, B, C from R repair by
// key A" repairs R, then projects in each repaired world), so the statement
// must not carry UNION.
func PrepareFromWhere(stmt *sqlparse.SelectStmt, cat Catalog) (*Prepared, error) {
	prepares.Add(1)
	if stmt.Union != nil {
		return nil, fmt.Errorf("%w: FROM/WHERE part of a UNION cannot be isolated", ErrPlan)
	}
	rec := &recorder{cat: cat}
	op, _, err := buildFromWhere(stmt, rec, nil)
	if err != nil {
		return nil, err
	}
	return &Prepared{op: op, reads: rec.reads}, nil
}

// Bind instantiates the template against cat, sharing invariant subplans
// through memo, the statement's (nil: none). It fails with ErrRebind when
// cat lacks a table or a column the template was compiled against.
func (p *Prepared) Bind(cat Catalog, memo *Memo) (algebra.Operator, error) {
	return rebindOp(p.op, &binding{cat: cat, memo: memo})
}

// Schema returns the schema of the statement's answer (of the FROM/WHERE
// intermediate, for PrepareFromWhere's).
func (p *Prepared) Schema() *schema.Schema { return p.op.Schema() }

// PreparedOnRelation is a template for the post-split part of a
// repair/choice statement (aggregates, projection, DISTINCT, ORDER BY,
// LIMIT over the materialized FROM/WHERE intermediate).
type PreparedOnRelation struct {
	op algebra.Operator
	reads
}

// PrepareOnRelation compiles the post-FROM/WHERE part of stmt once against
// an intermediate of schema in (PrepareFromWhere's); Bind supplies each
// piece's actual relation.
func PrepareOnRelation(stmt *sqlparse.SelectStmt, in *schema.Schema, cat Catalog) (*PreparedOnRelation, error) {
	prepares.Add(1)
	rec := &recorder{cat: cat}
	op, err := buildOnRelation(stmt, in, rec)
	if err != nil {
		return nil, err
	}
	return &PreparedOnRelation{op: op, reads: rec.reads}, nil
}

// buildOnRelation compiles the post-FROM/WHERE part of stmt (aggregates,
// projection, DISTINCT, ORDER BY, LIMIT) over an input scan of schema in.
func buildOnRelation(stmt *sqlparse.SelectStmt, in *schema.Schema, cat Catalog) (algebra.Operator, error) {
	if err := checkPlain(stmt, nil); err != nil {
		return nil, err
	}
	if stmt.Union != nil {
		return nil, fmt.Errorf("%w: UNION cannot be combined with world-splitting clauses", ErrPlan)
	}
	from := &inputScan{Scan: algebra.Scan{Rel: relation.New(in)}}
	e := &env{cat: cat, scopes: []*schema.Schema{in}}
	aggSpecs, aggKeys := collectAggregates(stmt)
	if len(aggSpecs) > 0 || len(stmt.GroupBy) > 0 {
		return buildAggregate(stmt, from, e, aggSpecs, aggKeys)
	}
	op, err := projectItems(stmt, from, e)
	if err != nil {
		return nil, err
	}
	return finishSelect(stmt, op)
}

// Bind instantiates the template over one split piece in the world cat,
// sharing through memo.
func (p *PreparedOnRelation) Bind(input *relation.Relation, cat Catalog, memo *Memo) (algebra.Operator, error) {
	return rebindOp(p.op, &binding{cat: cat, input: input, memo: memo})
}

// PreparedPredicate is a compiled standalone condition (ASSERT) template.
type PreparedPredicate struct {
	e expr.Expr
	reads
}

// Predicate is a compiled standalone condition (no row context), evaluated
// against the catalog it was bound to. NULL counts as false, as in WHERE.
type Predicate func() (bool, error)

// PreparePredicate compiles an ASSERT condition once; Bind yields the
// per-world Predicate.
func PreparePredicate(e sqlparse.Expr, cat Catalog) (*PreparedPredicate, error) {
	prepares.Add(1)
	rec := &recorder{cat: cat}
	low, err := lowerIn(e, schema.New(), rec)
	if err != nil {
		return nil, err
	}
	return &PreparedPredicate{e: low, reads: rec.reads}, nil
}

// Bind instantiates the predicate against cat, sharing through memo. The
// predicate evaluates under outer, the statement's root context (nil:
// none), so scans inside its subqueries poll its interrupt hook and count
// into its trace (see internal/algebra).
func (p *PreparedPredicate) Bind(cat Catalog, outer *expr.Context, memo *Memo) (Predicate, error) {
	low, _, err := rebindExpr(p.e, &binding{cat: cat, memo: memo})
	if err != nil {
		return nil, err
	}
	return func() (bool, error) {
		ctx := &expr.Context{Schema: schema.New(), Tuple: tuple.Tuple{}, Outer: outer}
		v, err := low.Eval(ctx)
		if err != nil {
			return false, err
		}
		return v.Truth(), nil
	}, nil
}

// lowerIn compiles an expression evaluated against rows of schema s — the
// empty schema for a standalone condition or constant.
func lowerIn(e sqlparse.Expr, s *schema.Schema, cat Catalog) (expr.Expr, error) {
	env := &env{cat: cat, scopes: []*schema.Schema{s}}
	return env.lower(e)
}
