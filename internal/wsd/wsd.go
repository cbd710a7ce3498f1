// Package wsd implements world-set decompositions (WSDs), the compact
// representation system of MayBMS (refs [1,3,4] of the paper: ICDT'07 /
// ICDE'07 — "10^10^6 Worlds and Beyond").
//
// A WSD represents a world-set as a product of independent components over
// a certain database:
//
//	worlds(WSD) = { certain ∪ a1 ∪ … ∪ am : ai ∈ alternatives(Ci) }
//
// Each component holds a small set of weighted alternatives; an alternative
// contributes tuples to named relations. The size of the representation is
// the total number of alternative tuples, while the number of represented
// worlds is the product of the component sizes — exponentially larger.
//
// repair-by-key on a certain relation produces one component per key group
// (linear size, exponentially many worlds); choice-of produces a single
// component. Both run one split (split.go) for which a certain source is the
// case with no feeding components, and so accept *uncertain* sources: components
// are first-class refinable objects arranged in a *decomposition tree*
// (a d-tree): a component may hang under a specific alternative of a
// parent component (Component.Parent/ParentAlt) and is active only in the
// worlds selecting that alternative — the factorized analogue of
// c-tables' per-tuple conditions. A repair of a repaired or chosen
// relation nests each alternative's conditional key-group repairs as
// child components under that alternative — Σ-alternatives size, exact
// naive world order — and components merge only when two of them
// contribute candidates under a common key (certified by the planner's
// split analysis). A flat product is the degenerate one-level tree, and
// every flat code path is taken unchanged when no nesting exists. The
// decomposition is thereby closed under its own repair/choice statements.
// Confidence, possible and certain are computed exactly without
// enumeration using component independence:
//
//	P(t ∈ R) = 1 − Π_c (1 − p_c(t))
//
// Query execution is decomposition-aware (select.go, componentwise.go,
// fold.go): every query compiles once, through the process-wide shared plan
// cache, and the planner annotates the compiled tree with the components it
// touches. Queries whose plan distributes over the certain ∪ per-component
// structure — selections, projections, joins against certain relations,
// unions, subqueries and aggregates over certain data — answer their
// possible/certain/conf closures componentwise: the certain-only answer plus
// one tagged delta of every alternative (work linear in Σ component sizes,
// never the product), no merge, the representation untouched. The same
// distribution law drives updates and world grouping (dml.go,
// groupworlds.go). Only operations that genuinely correlate several
// components (asserts, cross-component joins, aggregates or predicate
// subqueries spanning components, DML expressions over uncertain relations,
// grouped queries sharing components with their grouping subquery) merge
// exactly the involved components — a partial expansion bounded by the
// product of their sizes, never the full world count.
//
// Statements arrive from core's runner through Run and Predict (exec.go),
// the compact engine's core.Engine methods. decide takes a statement apart
// once — the refusal table, the split source, the ASSERT, the closure, the
// grouping — and route (route.go) takes the statement's one routing
// decision: a function of its shape, its compiled plans' component analysis
// and the shape of the decomposition, noted once by Run — the trace's route
// attribute, maybms_route_total and RouteCounts — and rendered by EXPLAIN
// from the same value. No field, option or switch overrides it; the naive
// per-world engine over Expand is the reference the routes are validated
// against. MergeCount counts a different fact: the merges that restructured
// the decomposition.
//
// What a statement asks of the component list as a whole — a component's
// position by ID, its children, the components feeding a relation, a
// relation's contributions concatenated for the tagged delta — it reads from
// the decomposition's one index (index.go), built on the first read after a
// change of the list. The index is part of the decomposition's one state
// value (state), which a Snapshot saves without copying: every write goes
// through one barrier (edit) that copies on a statement's first write.
//
// POSSIBLE, CERTAIN and CONF are asked through Exec and nowhere else: the
// WSD has no stored-relation read beside the statement. Over
// per-(component, alternative) parts they are one fold (fold.go), linear in
// the part rows, shared by the SELECT closures over flat components and
// d-trees alike. A merge only restructures (merge.go): the merged component
// is then answered like any other — its alternatives' full answers are its
// parts, closed by the same fold, stored by the same componentwise
// materialization, rewritten by the same DML piece rewrite.
// Everything is batch-native past the Collect seam: evaluations return
// colbatch batches, the fold and the group-worlds frontier dedup on
// arena-encoded batch keys (byte-identical to tuple.Encode) and output rows
// materialize once at the very end.
// Every evaluation runs internal/algebra's one operator set over the
// batches it scans; whether a batch holds rows or columns is colbatch's
// choice by size, and nothing here asks or overrides it.
package wsd

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/big"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"maybms/internal/colbatch"
	"maybms/internal/core"
	"maybms/internal/obs"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/tuple"
	"maybms/internal/world"
)

// Errors reported by WSD operations.
var (
	ErrNotCertain  = errors.New("operation requires a certain (complete) relation")
	ErrEmpty       = errors.New("operation would leave an empty world-set")
	ErrMergeTooBig = errors.New("component merge exceeds the expansion limit")
)

// DefaultMergeLimit bounds the number of alternatives a component merge
// (partial expansion) may produce.
const DefaultMergeLimit = 1 << 16

// Alternative is one local choice of a component: a probability (in
// weighted WSDs) and the tuples it contributes per relation. Contributions
// are stored as relations, so the componentwise closures and the fold read
// their stored batches directly, in whatever form colbatch keeps them.
type Alternative struct {
	Prob    float64
	Contrib map[string]*relation.Relation // lower-case relation name → contribution
}

// contribution returns the alternative's contribution to relation k, of
// schema sch: empty when it contributes nothing.
func (a *Alternative) contribution(k string, sch *schema.Schema) *colbatch.Batch {
	if c := a.Contrib[k]; c != nil {
		return c.Batch()
	}
	return colbatch.New(sch)
}

// contribRel builds a single-relation contribution map around a fresh
// batch, which the relation takes ownership of under schema sch.
func contribRel(sch *schema.Schema, k string, b *colbatch.Batch) map[string]*relation.Relation {
	b.Schema = sch
	return map[string]*relation.Relation{k: relation.FromBatch(b)}
}

// Component is a finite choice among alternatives. A top-level component
// (Parent < 0) is independent; a *conditional* component hangs under one
// alternative of a parent component and exists only in the worlds where
// the parent selects that alternative. Its alternative probabilities are
// conditional on the parent path (they sum to 1 like any component's).
// The component list keeps parents before their children, so one forward
// pass resolves activity.
type Component struct {
	ID   int
	Alts []Alternative
	// Parent is the ID of the parent component, or -1 for a top-level
	// component.
	Parent int
	// ParentAlt is the index of the parent alternative this component is
	// conditioned on (meaningful only when Parent >= 0).
	ParentAlt int
}

// WSD is a world-set decomposition.
type WSD struct {
	// Weighted selects probabilistic mode; alternatives then carry
	// probabilities summing to 1 within each component.
	Weighted bool
	// MergeLimit bounds partial expansions (component merges).
	MergeLimit int
	// interrupt and trace belong to the statement executing now (see
	// SetStatement). A statement that fails, however far it got, is undone by
	// the runner through Snapshot.
	interrupt func() error
	trace     *obs.Trace

	state

	// merges counts component merges that actually restructured the
	// decomposition (≥ 2 components multiplied into one): the observability
	// hook for "this query ran with no partial expansion".
	merges atomic.Uint64
	// routes counts the statements run per route kind (see RouteCounts).
	routes [len(routeNames)]atomic.Uint64
	// lookups attributes shared-plan-cache lookups to this decomposition
	// (the cache itself is process-global; see SessionInfo).
	lookups plan.Lookups
}

// state is the decomposition's value — what a Snapshot saves and a restore
// puts back — with the index derived from it. Every write goes through edit
// (editList for the list), so no site keeps them in step.
type state struct {
	certain map[string]*relation.Relation // lower name → certain tuples
	schemas map[string]*schema.Schema     // lower name → schema
	names   map[string]string             // lower name → display name
	comps   []*Component
	nextID  int
	// ix is the index of comps (index.go), nil until read after a change of
	// the list.
	ix *index
	// shared reports that a Snapshot holds these maps and this list: the
	// next edit copies them before anything writes them.
	shared bool
}

// edit prepares the state for a write: on the first write after a Snapshot
// it copies the maps and the list the snapshot holds.
func (d *WSD) edit() {
	if d.shared {
		d.certain, d.schemas, d.names = maps.Clone(d.certain), maps.Clone(d.schemas), maps.Clone(d.names)
		d.comps, d.shared = slices.Clone(d.comps), false
	}
}

// editList is edit for a write of the component list: it drops the index too.
func (d *WSD) editList() {
	d.edit()
	d.ix = nil
}

// New creates an empty WSD (one world: the empty certain database).
func New(weighted bool) *WSD {
	return &WSD{
		Weighted:   weighted,
		MergeLimit: DefaultMergeLimit,
		state: state{
			certain: map[string]*relation.Relation{},
			schemas: map[string]*schema.Schema{},
			names:   map[string]string{},
		},
	}
}

// key normalizes a relation name.
func key(name string) string { return strings.ToLower(name) }

// interrupted polls the interrupt hook; every per-alternative and
// per-piece loop calls it before each unit of work.
func (d *WSD) interrupted() error {
	if d.interrupt == nil {
		return nil
	}
	return d.interrupt()
}

// PutCertain registers a complete relation present in every world.
func (d *WSD) PutCertain(name string, rel *relation.Relation) error {
	k := key(name)
	if _, ok := d.schemas[k]; ok {
		return fmt.Errorf("%w: %s", core.ErrExists, name)
	}
	d.edit()
	d.certain[k] = rel
	d.schemas[k] = rel.Schema.Unqualify()
	d.names[k] = name
	return nil
}

// certainRelation returns certain relation name and its schema; a relation
// some component contributes to is ErrNotCertain.
func (d *WSD) certainRelation(name string) (*relation.Relation, *schema.Schema, error) {
	k := key(name)
	sch, known := d.schemas[k]
	switch {
	case !known:
		return nil, nil, fmt.Errorf("%w: %s", world.ErrUnknown, name)
	case len(d.componentsFor(name)) > 0:
		return nil, nil, fmt.Errorf("%w: %s has component contributions", ErrNotCertain, name)
	}
	if rel, ok := d.certain[k]; ok {
		return rel, sch, nil
	}
	return relation.New(sch), sch, nil // registered with no tuples at all: empty in every world
}

// insertCertain appends rows to a certain relation — the compact
// counterpart of INSERT INTO over complete data. The stored relation is
// replaced by an extended clone, so snapshots handed out earlier (e.g. by
// Expand) are unaffected.
func (d *WSD) insertCertain(name string, rows []tuple.Tuple) error {
	rel, sch, err := d.certainRelation(name)
	if err != nil {
		return err
	}
	next := rel.Clone()
	for _, t := range rows {
		if len(t) != sch.Len() {
			return fmt.Errorf("insert row has %d values, relation %s has %d columns", len(t), name, sch.Len())
		}
		if err := next.Append(t); err != nil {
			return err
		}
	}
	d.edit()
	d.certain[key(name)] = next
	return nil
}

// drop removes relation name — its certain part, its registration and its
// contribution to every alternative — and keeps every component, as the
// naive engine's DROP keeps every world.
func (d *WSD) drop(name string) error {
	k := key(name)
	if _, ok := d.schemas[k]; !ok {
		return fmt.Errorf("%w: %s", world.ErrUnknown, name)
	}
	d.edit()
	delete(d.certain, k)
	for _, ci := range d.componentsFor(name) {
		c := d.own(ci)
		for i := range c.Alts {
			delete(c.Alts[i].Contrib, k)
		}
	}
	delete(d.schemas, k)
	delete(d.names, k)
	return nil
}

// Snapshot saves the decomposition's state; see core.Engine.Snapshot. It
// copies nothing: it marks the maps and the list shared, and the statement's
// first write copies them (edit). Components, their alternatives and
// contribution maps, and relations are never written once published (see
// own), so the saved value stays as it was, its index valid.
func (d *WSD) Snapshot() (restore func()) {
	d.shared = true
	saved := d.state
	return func() { d.state = saved }
}

// own replaces component ci with a copy that has a fresh Alts slice and
// fresh (non-nil) Contrib maps, and returns the copy for writing. Every
// write into a component goes through own, so no engine pass mutates a
// published component, alternative or contribution map in place: a
// snapshot's saved state is never written, and derived alternatives may
// share a parent's contribution relations. Like every write of the list it
// drops the index (editList), so the writes into the copy must be done
// before anything reads the index again.
func (d *WSD) own(ci int) *Component {
	d.editList()
	c := *d.comps[ci]
	c.Alts = slices.Clone(c.Alts)
	for i, a := range c.Alts {
		c.Alts[i].Contrib = make(map[string]*relation.Relation, len(a.Contrib)+1)
		maps.Copy(c.Alts[i].Contrib, a.Contrib)
	}
	d.comps[ci] = &c
	return &c
}

// Schema returns the schema of a relation known to the WSD.
func (d *WSD) Schema(name string) (*schema.Schema, error) {
	s, ok := d.schemas[key(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", world.ErrUnknown, name)
	}
	return s, nil
}

// Names returns the display names of all relations, sorted.
func (d *WSD) Names() []string {
	out := make([]string, 0, len(d.names))
	for _, n := range d.names {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ComponentCount returns the number of components.
func (d *WSD) ComponentCount() int { return len(d.comps) }

// MergeCount returns the number of component merges (partial expansions
// multiplying ≥ 2 components together) performed so far. Queries served by
// the componentwise path leave it unchanged.
func (d *WSD) MergeCount() uint64 { return d.merges.Load() }

// PlanCacheCounts returns this decomposition's shared-plan-cache lookup
// attribution: templates found valid in the process-wide cache vs. compiled
// fresh on its behalf.
func (d *WSD) PlanCacheCounts() (hits, misses uint64) {
	return d.lookups.Counts()
}

// SetStatement installs (or clears, with nils) the interrupt hook and the
// trace of the statement about to run; see core.Engine.SetStatement.
func (d *WSD) SetStatement(interrupt func() error, tr *obs.Trace) {
	d.interrupt, d.trace = interrupt, tr
}

// Kind names the compact engine for the server and EXPLAIN.
func (d *WSD) Kind() (name, representation string) { return "compact", "world-set decomposition" }

// Worlds renders the exact world count in decimal.
func (d *WSD) Worlds() string { return d.WorldCount().String() }

// AlternativeCount returns the total number of alternatives across
// components — the representation size driver.
func (d *WSD) AlternativeCount() int {
	n := 0
	for _, c := range d.comps {
		n += len(c.Alts)
	}
	return n
}

// WorldCount returns the exact number of represented worlds (1 for a
// purely certain database): the product of the d-trees' world counts
// (treeWorlds). For a flat product these are the component sizes,
// multiplied with a product tree that keeps the big.Int arithmetic
// near-linear even for millions of components.
func (d *WSD) WorldCount() *big.Int {
	if d.flat() {
		sizes := make([]int64, len(d.comps))
		for i, c := range d.comps {
			sizes[i] = int64(len(c.Alts))
		}
		return productTree(sizes)
	}
	children := d.index().children
	out := big.NewInt(1)
	for ci, c := range d.comps {
		if c.Parent < 0 {
			out.Mul(out, d.treeWorlds(children, ci))
		}
	}
	return out
}

// treeWorlds counts the worlds of the d-tree rooted at component ci, given
// the index's children:
//
//	worlds(c) = Σ_a Π_{ch ∈ children(c,a)} worlds(ch)
//
// the alternatives condensing the tree would produce, the component's own
// alternative count when it has no children. WorldCount, mergedAlternatives
// and condenseDecision all count with it.
func (d *WSD) treeWorlds(children [][]int, ci int) *big.Int {
	c := d.comps[ci]
	if len(children[ci]) == 0 {
		return big.NewInt(int64(len(c.Alts)))
	}
	total := new(big.Int)
	for a := range c.Alts {
		alt := big.NewInt(1)
		for _, ch := range children[ci] {
			if d.comps[ch].ParentAlt == a {
				alt.Mul(alt, d.treeWorlds(children, ch))
			}
		}
		total.Add(total, alt)
	}
	return total
}

func productTree(sizes []int64) *big.Int {
	switch len(sizes) {
	case 0:
		return big.NewInt(1)
	case 1:
		return big.NewInt(sizes[0])
	}
	// Halving keeps both factors of every multiplication about the same
	// size, so the big.Int work stays near-linear.
	mid := len(sizes) / 2
	l := productTree(sizes[:mid])
	r := productTree(sizes[mid:])
	return l.Mul(l, r)
}

// rootClosure expands a set of component indexes, ascending, to the full
// d-trees containing them: every ancestor up to the root and every
// descendant. The result is sorted ascending. For components of no d-tree it
// returns the input set itself.
func (d *WSD) rootClosure(idxs []int) []int {
	if !d.treeInvolved(idxs) {
		return idxs
	}
	ix := d.index()
	roots := make([]int, len(idxs))
	for i, ci := range idxs {
		roots[i] = ix.root(ci)
	}
	var out []int
	var addTree func(ci int)
	addTree = func(ci int) {
		out = append(out, ci)
		for _, ch := range ix.children[ci] {
			addTree(ch)
		}
	}
	for _, r := range sortedUniqueInts(roots) {
		addTree(r)
	}
	slices.Sort(out)
	return out
}

// treeInvolved reports whether any of the components, ascending, is part of
// a non-trivial d-tree (has a parent or children), by the index's tree facts:
// only the listed positions between the first and the last tree position
// are read, so the listing of a flat relation stored beside the trees, or in
// a flat decomposition, is answered in O(log) of its length.
func (d *WSD) treeInvolved(idxs []int) bool {
	ix := d.index()
	lo, _ := slices.BinarySearch(idxs, ix.treeLo)
	for _, ci := range idxs[lo:] {
		if ci > ix.treeHi {
			return false
		}
		if ix.inTree[ci] {
			return true
		}
	}
	return false
}

// flat reports that no component has a parent: the decomposition is a flat
// product and every flat fast path applies unchanged.
func (d *WSD) flat() bool {
	ix := d.index()
	return ix.treeLo > ix.treeHi
}

// isCertain reports whether name is a certain relation (no component
// contributes to it).
func (d *WSD) isCertain(name string) bool {
	k := key(name)
	if _, ok := d.certain[k]; !ok {
		return false
	}
	return len(d.index().rels[k]) == 0
}

// addComponent appends a component, validating its probabilities.
func (d *WSD) addComponent(alts []Alternative) (*Component, error) {
	if len(alts) == 0 {
		return nil, ErrEmpty
	}
	if d.Weighted {
		total := 0.0
		for _, a := range alts {
			if a.Prob < 0 {
				return nil, fmt.Errorf("negative alternative probability %g", a.Prob)
			}
			total += a.Prob
		}
		if math.Abs(total-1) > 1e-9 {
			return nil, fmt.Errorf("alternative probabilities sum to %g, want 1", total)
		}
	}
	d.editList()
	c := &Component{ID: d.nextID, Alts: alts, Parent: -1}
	d.nextID++
	d.comps = append(d.comps, c)
	return c, nil
}

// addChildComponent appends a conditional component nested under the
// given alternative of the parent component. Alternative probabilities
// are conditional on the parent path and validated like any component's.
func (d *WSD) addChildComponent(alts []Alternative, parentID, parentAlt int) (*Component, error) {
	c, err := d.addComponent(alts)
	if err != nil {
		return nil, err
	}
	c.Parent, c.ParentAlt = parentID, parentAlt
	return c, nil
}

// confSchema is the schema of the conf column a CONF answer appends.
func confSchema() *schema.Schema { return schema.New("conf") }

// registerUncertain declares a new uncertain relation fed by components.
func (d *WSD) registerUncertain(name string, sch *schema.Schema) error {
	k := key(name)
	if _, ok := d.schemas[k]; ok {
		return fmt.Errorf("%w: %s", core.ErrExists, name)
	}
	d.edit()
	d.schemas[k] = sch.Unqualify()
	d.names[k] = name
	return nil
}

// CheckInvariant validates the decomposition: component probabilities sum
// to 1 (weighted), schemas exist for every contributed relation, tuple
// widths match, the d-tree structure is well-formed (component IDs are
// distinct and below the next ID, parents precede their children in the
// component list, and parent alternatives exist), and the live index, if
// any, is the one a fresh build gives, its cached deltas included.
func (d *WSD) CheckInvariant() error {
	for _, c := range d.comps {
		if c.ID < 0 || c.ID >= d.nextID {
			return fmt.Errorf("component %d has an ID outside [0, %d)", c.ID, d.nextID)
		}
	}
	fresh := buildIndex(d.comps, d.nextID)
	for ci, c := range d.comps {
		if fresh.position(c.ID) != ci {
			return fmt.Errorf("component ID %d appears twice in the component list", c.ID)
		}
		if c.Parent >= 0 {
			pi := fresh.parent(c)
			if pi < 0 {
				return fmt.Errorf("component %d has unknown parent %d", c.ID, c.Parent)
			}
			if pi >= ci {
				return fmt.Errorf("component %d precedes its parent %d in the component list", c.ID, c.Parent)
			}
			if c.ParentAlt < 0 || c.ParentAlt >= len(d.comps[pi].Alts) {
				return fmt.Errorf("component %d conditioned on missing alternative %d of component %d", c.ID, c.ParentAlt, c.Parent)
			}
		}
	}
	for _, c := range d.comps {
		if len(c.Alts) == 0 {
			return fmt.Errorf("component %d has no alternatives", c.ID)
		}
		total := 0.0
		for _, a := range c.Alts {
			total += a.Prob
			for name, contrib := range a.Contrib {
				sch, ok := d.schemas[name]
				if !ok {
					return fmt.Errorf("component %d contributes to unknown relation %q", c.ID, name)
				}
				if w := contrib.Batch().Width(); w != sch.Len() {
					return fmt.Errorf("component %d contributes width-%d tuple to %s%s", c.ID, w, name, sch)
				}
			}
		}
		if d.Weighted && math.Abs(total-1) > 1e-9 {
			return fmt.Errorf("component %d probabilities sum to %g", c.ID, total)
		}
	}
	if ix := d.ix; ix != nil {
		if err := ix.sameAs(fresh, d.schemas); err != nil {
			return fmt.Errorf("stale decomposition index: %w", err)
		}
	}
	return nil
}

// String summarizes the decomposition.
func (d *WSD) String() string {
	return fmt.Sprintf("WSD{relations: %d, components: %d, alternatives: %d, worlds: %s}",
		len(d.schemas), d.ComponentCount(), d.AlternativeCount(), d.WorldCount())
}
