package plan

// Component-touch analysis for decomposition-aware query execution.
//
// The WSD engine (internal/wsd) represents a world-set as a forest of
// components over a certain database: top-level components are
// independent, and a *conditional* component hangs under one alternative
// of its parent, existing only in the worlds selecting that alternative
// (the flat product is the one-level special case). A compiled plan
// template references base tables through tableScan nodes, so — given a
// catalog mapping each table to the components feeding it — every subtree
// can be annotated with the set of components it touches. The analysis
// itself is conditioning-agnostic: it reports which component IDs a tree
// touches, and the caller weights each alternative by its conditioning
// path (internal/wsd's tree folds) when closing over the answers. Subtrees touching zero
// components are world-independent; subtrees touching one component vary
// with that component's alternative only; and a whole tree whose operators
// all distribute over the certain ∪ per-component-contribution structure
// ("monotone-decomposable" below) can be evaluated for every alternative of
// every component at once — closure-style, with no component merge — even
// when it touches arbitrarily many components.
//
// The decomposition identity that the analysis certifies is
//
//	Q(world(a1,…,ak)) = Q(cert) ∪ ΔQ(c1, a1) ∪ … ∪ ΔQ(ck, ak)
//
// as sets, where Q(cert) is the query over the certain database and
// ΔQ(c, a) — the delta — the tuples alternative a of component c adds to
// it. A statement evaluates the one template twice: Bind over the certain
// parts gives Q(cert), and Deltas.Bind (below) gives every ΔQ(c, a) at once,
// as one tagged answer — the U-relations of MayBMS's successor, Antova,
// Jansen, Koch and Olteanu, "Fast and Simple Relational Processing of
// Uncertain Data" (ICDE 2008). Each row of a tagged relation carries, as a
// trailing int column (TagColumn), the tag of the one alternative it belongs
// to, and the rows tagged t of the tagged answer are ΔQ of that alternative,
// row for row what evaluating that alternative's delta alone returns. So a
// statement over a large certain part and a little uncertainty costs
// O(|cert| + Σ|contributions|) rows and two plan runs, not one plan run per
// alternative. The operators that preserve the identity, with their tagged
// delta rules:
//
//   - Scan: the relation itself is certain ∪ contributions; its delta is
//     every listed alternative's contribution in one relation, tagged
//     (PartsCatalog.Delta). A subtree touching no component has an empty
//     delta.
//   - Filter / Project whose expressions contain no subqueries over
//     uncertain relations: tuple-at-a-time, distribute over union — the
//     tag passes through (a Project carries it as one more column), and the
//     world-independent subqueries bind to the certain parts.
//   - CrossJoin / HashJoin where at most one side touches components, or
//     both sides touch the same single component: the cross terms between
//     distinct components never arise. Δ(L ⋈ R) = (cert L ⋈ ΔR) ++
//     (ΔL ⋈ full R), either term vanishing with its delta. Against a
//     certain side the tag passes through: cert L ⋈ ΔR, and ΔL ⋈ cert R,
//     whose HashJoin probes the statement's one hashed table of cert R (its
//     Memo entry, shared with Q(cert)'s join). Over two
//     sides of the same component, full R under alternative t is cert R ++
//     ΔR(t): ΔL joins cert R, tagged as every alternative's, followed by ΔR,
//     and keeps the pairs whose tags agree — ΔL ⋈ cert R plus ΔL ⋈ ΔR on
//     equal tags, each left row meeting its matches in full R's order.
//   - Union: concatenation distributes, Δ(L ∪ R) = ΔL ++ ΔR.
//   - Distinct / Sort: identity on sets (closures are sets; internal/wsd's
//     fold lists them); the tag passes through. A Distinct's delta dedupes
//     on (tag, row) and drops the tuples its input holds over the certain
//     database — new in no world — compared without the tag, so
//     Distinct(cert) ++ Δ Distinct(t) is the full Distinct row for row; that
//     key set and the join tables above are what a delta reads of the
//     certain part, each evaluated once however often the statement's
//     Deltas binds (Deltas, and the statement's Memo).
//
// Every rule keeps the rows of one tag in the order that alternative's
// delta evaluated alone lists them, so a stable partition of the tagged
// answer on the tag is the per-alternative deltas, in order.
//
// Operators that break it whenever their input touches ≥ 1 component:
// Aggregate and Limit (whole-input functions), joins correlating ≥ 2
// distinct components, and Filter/Project expressions with subqueries over
// uncertain relations (the predicate couples every input row to those
// components). A tree containing such a node falls back to the bounded
// partial expansion (component merge) of the classic path; the analysis
// reports the full component set so the caller merges exactly the involved
// components — condensing any conditional trees among them first — and
// never more. The one exception is a scalar SUM or COUNT over an input that
// keeps the bag identity (Concat), alone in the select list or compared with
// a constant in a WHERE that is otherwise empty (ScalarAggregate): a world's
// aggregate is then the certain part's plus one partial per component, and
// internal/wsd folds those partials over independent components by
// convolution, with no merge.

import (
	"fmt"
	"sync"

	"maybms/internal/algebra"
	"maybms/internal/colbatch"
	"maybms/internal/expr"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/value"
)

// ComponentCatalog maps a base-table name to the IDs of the decomposition
// components contributing tuples to it (empty for certain tables).
type ComponentCatalog interface {
	Components(table string) []int
}

// ComponentCatalogFunc adapts a function to the ComponentCatalog interface.
type ComponentCatalogFunc func(table string) []int

// Components implements ComponentCatalog.
func (f ComponentCatalogFunc) Components(table string) []int { return f(table) }

// ComponentAnalysis is the result of analyzing a compiled template against
// a component catalog.
type ComponentAnalysis struct {
	// Comps is the sorted set of component IDs the tree touches. It is
	// read-only: it may be the catalog's own slice, clipped.
	Comps []int
	// Decomposable reports that the tree satisfies the monotone
	// decomposition identity above: closures (possible/certain/conf) can be
	// computed from per-alternative evaluations of single components, with
	// no component merge, for any number of touched components.
	Decomposable bool
	// Concat additionally reports that each world's answer *bag* is the
	// certain part followed by the per-component contributions in component
	// order (left-deep trees with the uncertain scans driving enumeration).
	// This is the condition for materializing the answer componentwise —
	// storing the certain part once plus one contribution per alternative —
	// with per-world tuple order identical to the merge path.
	Concat bool
	// Scalar is set when the tree is a scalar SUM or COUNT the convolution
	// route answers (ScalarAggregate); nil otherwise.
	Scalar *ScalarAggregate
}

// compSet is a small sorted set of component IDs.
type compSet []int

func (s compSet) union(t compSet) compSet {
	if len(t) == 0 {
		return s
	}
	if len(s) == 0 {
		return t
	}
	out := make(compSet, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// newCompSet returns the set of ids: ids itself, clipped, when it is
// strictly ascending already — as a decomposition's listing of a table's
// components is — else a sorted, deduplicated copy.
func newCompSet(ids []int) compSet {
	if ascending(ids) {
		return ids[:len(ids):len(ids)]
	}
	out := append(compSet(nil), ids...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	// Dedup in place.
	w := 0
	for i, v := range out {
		if i == 0 || v != out[w-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}

// ascending reports whether ids is strictly ascending.
func ascending(ids []int) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return false
		}
	}
	return true
}

// nodeInfo is the bottom-up annotation of one operator subtree.
type nodeInfo struct {
	comps  compSet
	decomp bool // monotone-decomposable
	concat bool // additionally concat-structured (see ComponentAnalysis)
}

// Analyze annotates the template's operator tree with the components it
// touches and reports whether it is decomposable.
func (p *Prepared) Analyze(cc ComponentCatalog) (*ComponentAnalysis, error) {
	info, err := analyzeOp(p.op, cc)
	if err != nil {
		return nil, err
	}
	an := &ComponentAnalysis{
		Comps:        info.comps,
		Decomposable: info.decomp,
		Concat:       info.decomp && info.concat,
	}
	if len(info.comps) > 0 && !info.decomp {
		an.Scalar = scalarAggregate(p.op, cc)
	}
	return an, nil
}

// ScalarAggregate is a statement whose answer in a world is a function of one
// scalar SUM or COUNT — sum(x), count(x) or count(*), no DISTINCT, GROUP BY,
// HAVING, ORDER BY or LIMIT — over an input that keeps the bag identity:
//
//	agg(Q(world(a1,…,ak))) = agg(Q(cert)) + agg(ΔQ(c1, a1)) + … + agg(ΔQ(ck, ak))
//
// with SUM over no non-NULL value NULL and NULL the identity of +. Two
// shapes are recognised: the aggregate alone in the select list (`select
// agg from R [where p]`), and Example 2.10's boolean form `select … from T
// where <const> <cmp> (select agg from R [where p])`, whose select list
// is empty once CONF is taken off: a world answers the empty tuple iff T has
// a row there and the comparison holds.
type ScalarAggregate struct {
	// Kind is expr.AggSum, expr.AggCount or expr.AggCountStar.
	Kind expr.AggKind
	// Input is the aggregate's input: for SUM and COUNT(x) their argument as
	// its one column, for COUNT(*) the input rows themselves. Its analysis is
	// Concat, so Input binds over the certain parts and Deltas over the
	// tagged contributions.
	Input  *Prepared
	Deltas *Deltas
	// Outer is the table of the boolean form's outer FROM, "" for the first
	// shape; Holds decides the comparison.
	Outer     string
	cmp       expr.CmpOp
	c         value.Value
	constLeft bool
}

// Holds reports whether the boolean form's comparison holds for the
// aggregate value v, with WHERE's semantics: a NULL comparison is false.
func (s *ScalarAggregate) Holds(v value.Value) bool {
	if s.constLeft {
		return expr.Compare(s.cmp, s.c, v).Truth()
	}
	return expr.Compare(s.cmp, v, s.c).Truth()
}

// scalarAggregate recognises the two shapes of ScalarAggregate in a compiled
// tree (nil: neither, or an input that breaks the bag identity).
func scalarAggregate(op algebra.Operator, cc ComponentCatalog) *ScalarAggregate {
	proj, ok := op.(*algebra.Project)
	if !ok {
		return nil
	}
	if len(proj.Exprs) == 1 {
		return aggregateOf(proj, cc)
	}
	f, ok := proj.Child.(*algebra.Filter)
	if !ok || len(proj.Exprs) != 0 {
		return nil
	}
	scan, ok := f.Child.(*tableScan)
	cmp, isCmp := f.Pred.(expr.Cmp)
	if !ok || !isCmp {
		return nil
	}
	sub, isScalar := cmp.R.(expr.Scalar)
	c, isConst := constant(cmp.L)
	constLeft := true
	if !isScalar {
		sub, isScalar = cmp.L.(expr.Scalar)
		c, isConst = constant(cmp.R)
		constLeft = false
	}
	cs, ok := sub.Sub.(*compiledSubquery)
	if !isScalar || !isConst || !ok || !cs.uncorrelated {
		return nil
	}
	inner, ok := cs.op.(*algebra.Project)
	if !ok || len(inner.Exprs) != 1 {
		return nil
	}
	s := aggregateOf(inner, cc)
	if s != nil {
		s.Outer, s.cmp, s.c, s.constLeft = scan.table, cmp.Op, c, constLeft
	}
	return s
}

// constant evaluates e when it reads no column and no subquery — a literal,
// or arithmetic over literals such as -4; ok is false otherwise, or when it
// fails to evaluate.
func constant(e expr.Expr) (v value.Value, ok bool) {
	ok = true
	expr.Walk(e, func(n expr.Expr) bool {
		switch n.(type) {
		case expr.Column, expr.Exists, expr.In, expr.Scalar:
			ok = false
		}
		return ok
	})
	if !ok {
		return value.Null(), false
	}
	v, err := e.Eval(&expr.Context{})
	return v, err == nil
}

// aggregateOf recognises the first shape: proj selects the one SUM or COUNT
// of a scalar Aggregate whose input keeps the bag identity.
func aggregateOf(proj *algebra.Project, cc ComponentCatalog) *ScalarAggregate {
	col, ok := proj.Exprs[0].(expr.Column)
	agg, isAgg := proj.Child.(*algebra.Aggregate)
	if !ok || col.Depth != 0 || col.Index != 0 || !isAgg || len(agg.GroupBy) != 0 || len(agg.Specs) != 1 {
		return nil
	}
	spec := agg.Specs[0]
	input := agg.Child
	switch {
	case spec.Distinct:
		return nil
	case spec.Kind == expr.AggSum || spec.Kind == expr.AggCount:
		input = &algebra.Project{Child: input, Exprs: []expr.Expr{spec.Arg}, Out: schema.New(spec.String())}
	case spec.Kind != expr.AggCountStar:
		return nil
	}
	if info, err := analyzeOp(input, cc); err != nil || !info.decomp || !info.concat {
		return nil
	}
	in := &Prepared{op: input}
	return &ScalarAggregate{Kind: spec.Kind, Input: in, Deltas: in.Deltas()}
}

func analyzeOp(op algebra.Operator, cc ComponentCatalog) (nodeInfo, error) {
	switch n := op.(type) {
	case *tableScan:
		return nodeInfo{comps: newCompSet(cc.Components(n.table)), decomp: true, concat: true}, nil
	case *algebra.Scan:
		// Literal relation (the dual for an empty FROM): world-independent.
		return nodeInfo{decomp: true, concat: true}, nil
	case *inputScan:
		// Split intermediates never occur in compact plans; be conservative.
		return nodeInfo{}, fmt.Errorf("%w: split intermediate in component analysis", ErrPlan)
	case *algebra.Filter:
		child, err := analyzeOp(n.Child, cc)
		if err != nil {
			return nodeInfo{}, err
		}
		return analyzeWithExprs(child, cc, n.Pred)
	case *algebra.Project:
		child, err := analyzeOp(n.Child, cc)
		if err != nil {
			return nodeInfo{}, err
		}
		return analyzeWithExprs(child, cc, n.Exprs...)
	case *algebra.CrossJoin:
		return analyzeJoin(n.Left, n.Right, cc)
	case *algebra.HashJoin:
		return analyzeJoin(n.Left, n.Right, cc)
	case *algebra.Union:
		l, err := analyzeOp(n.Left, cc)
		if err != nil {
			return nodeInfo{}, err
		}
		r, err := analyzeOp(n.Right, cc)
		if err != nil {
			return nodeInfo{}, err
		}
		return nodeInfo{
			comps:  l.comps.union(r.comps),
			decomp: l.decomp && r.decomp,
			// The left arm's rows precede the right arm's, so contributions
			// only trail the certain prefix when the left arm is certain.
			concat: l.concat && r.concat && len(l.comps) == 0,
		}, nil
	case *algebra.Distinct:
		child, err := analyzeOp(n.Child, cc)
		if err != nil {
			return nodeInfo{}, err
		}
		// Identity on sets, so closures stay decomposable. Concat survives
		// only up to one component: per-world DISTINCT dedupes *across*
		// components, which factored (per-component contribution) storage
		// cannot represent — a row contributed by two components would be
		// stored twice but appear once in every world.
		if len(child.comps) > 1 {
			child.concat = false
		}
		return child, nil
	case *algebra.Sort:
		child, err := analyzeOp(n.Child, cc)
		if err != nil {
			return nodeInfo{}, err
		}
		// Set-identity, but the value order interleaves certain rows and
		// contributions: decomposable, not concat.
		child.concat = false
		return child, nil
	case *algebra.Aggregate:
		child, err := analyzeOp(n.Child, cc)
		if err != nil {
			return nodeInfo{}, err
		}
		exprs := make([]expr.Expr, 0, len(n.Specs))
		for _, sp := range n.Specs {
			if sp.Arg != nil {
				exprs = append(exprs, sp.Arg)
			}
		}
		ec, err := exprComps(cc, exprs...)
		if err != nil {
			return nodeInfo{}, err
		}
		comps := child.comps.union(ec)
		// A whole-input function of its input: world-independent only over a
		// certain subtree.
		certain := len(comps) == 0
		return nodeInfo{comps: comps, decomp: certain, concat: certain}, nil
	case *algebra.Limit:
		child, err := analyzeOp(n.Child, cc)
		if err != nil {
			return nodeInfo{}, err
		}
		certain := len(child.comps) == 0
		return nodeInfo{comps: child.comps, decomp: certain, concat: certain}, nil
	default:
		return nodeInfo{}, fmt.Errorf("%w: unsupported operator %T in component analysis", ErrPlan, op)
	}
}

// analyzeWithExprs folds the component touches of expressions (through
// their subqueries) into a Filter/Project node. Expressions over certain
// data only are tuple-at-a-time and preserve the child's structure;
// expressions touching components couple every input row to those
// components' choices, which only a whole-input merge can honor.
func analyzeWithExprs(child nodeInfo, cc ComponentCatalog, exprs ...expr.Expr) (nodeInfo, error) {
	ec, err := exprComps(cc, exprs...)
	if err != nil {
		return nodeInfo{}, err
	}
	if len(ec) == 0 {
		return child, nil
	}
	comps := child.comps.union(ec)
	return nodeInfo{comps: comps, decomp: false, concat: false}, nil
}

// analyzeJoin annotates a CrossJoin or HashJoin: joins are bilinear over
// the union structure, so they stay decomposable as long as the cross term
// between two *distinct* components never arises — at most one side touches
// components, or both sides touch the same single component.
func analyzeJoin(left, right algebra.Operator, cc ComponentCatalog) (nodeInfo, error) {
	l, err := analyzeOp(left, cc)
	if err != nil {
		return nodeInfo{}, err
	}
	r, err := analyzeOp(right, cc)
	if err != nil {
		return nodeInfo{}, err
	}
	comps := l.comps.union(r.comps)
	correlates := len(l.comps) > 0 && len(r.comps) > 0 && len(comps) > 1
	return nodeInfo{
		comps:  comps,
		decomp: l.decomp && r.decomp && !correlates,
		// The left side drives enumeration: each left row is crossed with
		// the full right side, so contributions trail the certain prefix
		// only when the right side is certain.
		concat: l.concat && r.concat && !correlates && len(r.comps) == 0,
	}, nil
}

// exprComps collects the components touched by expressions: an expr.Walk
// that analyses the plan of each compiled subquery it meets.
func exprComps(cc ComponentCatalog, exprs ...expr.Expr) (compSet, error) {
	var out compSet
	var err error
	visit := func(n expr.Expr) bool {
		var sub expr.Subquery
		switch x := n.(type) {
		case expr.Exists:
			sub = x.Sub
		case expr.In:
			sub = x.Sub
		case expr.Scalar:
			sub = x.Sub
		}
		if err != nil || sub == nil {
			return err == nil // an error skips the rest of the tree
		}
		cs, ok := sub.(*compiledSubquery)
		if !ok {
			err = fmt.Errorf("%w: unsupported subquery %T in component analysis", ErrPlan, sub)
			return false
		}
		info, aerr := analyzeOp(cs.op, cc)
		out, err = out.union(info.comps), aerr
		return err == nil
	}
	for _, e := range exprs {
		if expr.Walk(e, visit); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// PartsCatalog is the catalog of a statement's two evaluations: Certain
// serves Q(cert) and the certain halves of the delta rules, Delta the tagged
// contributions.
type PartsCatalog interface {
	// Certain returns the table's certain part alone.
	Certain(table string) (*relation.Relation, error)
	// Delta returns what the listed alternatives contribute to the table, in
	// one relation of the table's columns followed by TagColumn, an int: the
	// tag of the alternative each row belongs to, ascending (nil or empty
	// when nothing).
	Delta(table string) (*relation.Relation, error)
}

// TagColumn names the trailing column of a tagged relation.
const TagColumn = "#tag"

// Tagged returns sch followed by the tag column: the schema of a tagged
// relation whose rows are sch's.
func Tagged(sch *schema.Schema) *schema.Schema { return sch.Concat(schema.New(TagColumn)) }

// Deltas binds the deltas of one statement over one state of the data. What
// the deltas read of the certain part is evaluated by the first evaluation
// to need it, so it costs the statement once however many times it binds
// (the engine binds once, over every alternative; a test's oracle, once per
// alternative): the certain answer a Distinct subtracts is kept here, and
// the hashed certain build side of a HashJoin is the statement's Memo
// entry, the very table Q(cert)'s plain bind of the join builds. Safe for
// concurrent use.
type Deltas struct {
	p    *Prepared
	mu   sync.Mutex
	cert map[*algebra.Distinct]*certKeys // by the template's Distinct nodes
}

// Deltas returns the delta binder of one statement over the template, which
// must be Decomposable over the components of the catalogs it will bind.
func (p *Prepared) Deltas() *Deltas {
	return &Deltas{p: p, cert: map[*algebra.Distinct]*certKeys{}}
}

// certKeys is the tuple key set (tuple.Encode) of one Distinct's input over
// the certain database, evaluated on first use.
type certKeys struct {
	once sync.Once
	keys map[string]struct{}
	err  error
}

// Bind instantiates ΔQ against cat: the tuples the listed alternatives add
// to Q(cert), tagged, by the rules in the file header — the template's
// columns followed by the tag. Its certain halves share invariant subplans
// through memo, the statement's. A delta that is empty whatever the data
// (no scanned table has a contribution) binds to a scan of no rows and
// reads nothing.
func (ds *Deltas) Bind(cat PartsCatalog, memo *Memo) (algebra.Operator, error) {
	b := &deltaBinding{ds: ds, cat: cat, cert: binding{cat: CatalogFunc(cat.Certain), memo: memo}}
	op, err := b.delta(ds.p.op)
	if err != nil || op != nil {
		return op, err
	}
	return algebra.NewScan(relation.New(Tagged(ds.p.op.Schema()))), nil
}

// deltaBinding is one Bind of a Deltas: the part catalog and the binding of
// its certain parts that the delta rules mix in.
type deltaBinding struct {
	ds   *Deltas
	cat  PartsCatalog
	cert binding
}

// delta binds the subtree op in delta mode, tag last; a nil operator is the
// empty delta.
func (b *deltaBinding) delta(op algebra.Operator) (algebra.Operator, error) {
	switch n := op.(type) {
	case *tableScan:
		rel, err := b.cat.Delta(n.table)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrRebind, err)
		}
		if rel.Len() == 0 {
			return nil, nil
		}
		return n.bindTagged(rel)
	case *algebra.Scan:
		return nil, nil // a literal relation is world-independent
	}
	if l, r, ok := joined(op); ok {
		dl, err := b.delta(l)
		if err != nil {
			return nil, err
		}
		dr, err := b.delta(r)
		if err != nil {
			return nil, err
		}
		if _, isUnion := op.(*algebra.Union); isUnion {
			return unionOf(dl, dr), nil
		}
		// Δ(L ⋈ R) = (cert L ⋈ ΔR) ++ (ΔL ⋈ full R): what the new right rows
		// add to the certain left rows, then everything the new left rows join.
		var out algebra.Operator
		if dr != nil {
			cl, err := rebindOp(l, &b.cert)
			if err != nil {
				return nil, err
			}
			out = rejoin(op, cl, dr) // the right side's tag is last already
		}
		if dl != nil {
			// Widths and names come from the bound inputs: a template's
			// lazily cached join schemas are shared by concurrent binds.
			wl := dl.Schema().Len() - 1
			var j algebra.Operator
			var wr int
			if hj, isHash := op.(*algebra.HashJoin); isHash && dr == nil && b.cert.memo != nil {
				// Full R is the certain R, the same for every alternative:
				// probe the statement's one table of it.
				if j, err = b.cert.sharedJoin(hj, dl); err != nil {
					return nil, err
				}
				wr = j.Schema().Len() - wl - 1
			} else {
				cr, err := rebindOp(r, &b.cert)
				if err != nil {
					return nil, err
				}
				wr = cr.Schema().Len()
				j = rejoin(op, dl, cr)
				if dr != nil {
					// Both sides over the one component: under alternative t
					// full R is cert R ++ ΔR(t), so join cert R tagged as every
					// alternative's, then ΔR, and keep the pairs whose tags
					// agree.
					all := &algebra.Project{Child: cr, Exprs: append(refs(seq(0, wr)), expr.Const{Value: value.Int(anyTag)}), Out: dr.Schema()}
					tl, tr := expr.Column{Index: wl}, expr.Column{Index: wl + 1 + wr}
					j = &algebra.Filter{Child: rejoin(op, dl, &algebra.Union{Left: all, Right: dr}), Pred: expr.Or{
						L: expr.Cmp{Op: expr.CmpEq, L: tr, R: tl},
						R: expr.Cmp{Op: expr.CmpEq, L: tr, R: expr.Const{Value: value.Int(anyTag)}},
					}}
				}
			}
			// The left side's tag sits between the two sides (the right
			// side's, if any, is dropped): move it last.
			keep := append(append(seq(0, wl), seq(wl+1, wr)...), wl)
			out = unionOf(out, &algebra.Project{Child: j, Exprs: refs(keep), Out: j.Schema().Project(keep)})
		}
		return out, nil
	}
	c, ok := childOf(op)
	if !ok {
		return nil, fmt.Errorf("%w: unsupported operator %T", ErrRebind, op)
	}
	child, err := b.delta(c)
	if err != nil || child == nil {
		return nil, err
	}
	switch n := op.(type) {
	case *algebra.Aggregate, *algebra.Limit:
		// Whole-input functions decompose only over a world-independent
		// child, whose delta is empty.
		return nil, fmt.Errorf("%w: %T over a component has no delta", ErrPlan, op)
	case *algebra.Distinct:
		// A new row repeating a tuple of the certain input adds nothing.
		return &algebra.Distinct{Child: child, Except: b.certKeysOf(n), Tagged: true}, nil
	case *algebra.Project:
		exprs, err := rebindExprs(n.Exprs, &b.cert)
		if err != nil {
			return nil, err
		}
		return &algebra.Project{Child: child, Exprs: append(exprs[:len(exprs):len(exprs)], expr.Column{Index: child.Schema().Len() - 1}),
			Out: Tagged(n.Out)}, nil
	}
	// Filter and Sort pass the tag through; subqueries in a Filter are
	// world-independent and bind to the certain parts.
	return rewrap(op, child, &b.cert)
}

// anyTag tags the certain rows a same-component join's delta meets under
// every alternative.
const anyTag = -1

// seq returns the n column indexes from, from+1, ….
func seq(from, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = from + i
	}
	return out
}

// refs returns references to the columns idx.
func refs(idx []int) []expr.Expr {
	out := make([]expr.Expr, len(idx))
	for i, j := range idx {
		out[i] = expr.Column{Index: j}
	}
	return out
}

// unionOf concatenates two deltas, either of which may be empty (nil).
func unionOf(l, r algebra.Operator) algebra.Operator {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	}
	return &algebra.Union{Left: l, Right: r}
}

// certKeysOf returns the loader of the statement's one key set of n's input
// over the certain database: the evaluation that opens a delta of n first
// binds that input in cert mode and runs it, under its own context.
func (b *deltaBinding) certKeysOf(n *algebra.Distinct) func(*expr.Context) (map[string]struct{}, error) {
	b.ds.mu.Lock()
	ck := b.ds.cert[n]
	if ck == nil {
		ck = &certKeys{}
		b.ds.cert[n] = ck
	}
	b.ds.mu.Unlock()
	return func(outer *expr.Context) (map[string]struct{}, error) {
		ck.once.Do(func() {
			var op algebra.Operator
			if op, ck.err = rebindOp(n.Child, &b.cert); ck.err != nil {
				return
			}
			var rows *colbatch.Batch
			if rows, ck.err = algebra.CollectBatch(op, outer); ck.err != nil {
				return
			}
			ck.keys = make(map[string]struct{}, rows.Len())
			var key []byte
			for i := 0; i < rows.Len(); i++ {
				key = rows.AppendKey(key[:0], i)
				ck.keys[string(key)] = struct{}{}
			}
		})
		return ck.keys, ck.err
	}
}
