package wsd

// The decomposition's one index: what a statement asks of the component list
// as a whole — where a component ID sits, which components hang under which,
// which components feed a relation, which sit in a non-trivial d-tree, the
// flat number of every (component, alternative), and a relation's
// contributions as one stored, tagged delta — derived from the list once per
// change of it, not once per statement. Every lookup is O(1) or O(log) in the
// components, and the per-statement work is in the rows an answer holds.
//
// The index is part of the decomposition's state value (wsd.go): every write
// of the component list goes through editList, which drops it, and the next
// read builds it anew. Nothing else writes the list, and a published
// component, its alternatives, their contribution maps and the relations in
// them are never written in place (own copies the component before any
// write), so an index the state holds is current. A Snapshot restore puts
// back the index that was valid for the restored list. A write into a
// component own returned must finish before anything reads the index again.

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"maybms/internal/colbatch"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/value"
)

// index is the derived lookup structure of one component list.
type index struct {
	// comps is the component list the index was built from, not a copy: every
	// write of the list drops the index first (editList).
	comps []*Component
	// pos maps a component ID to its position in comps, -1 for an ID not in
	// the list.
	pos []int32
	// children[i] lists the positions of the components conditioned on an
	// alternative of comps[i], ascending; nil for a leaf.
	children [][]int
	// first[i] is the flat number of alternative 0 of comps[i]: alternative a
	// of comps[i] is number first[i] + a, so the numbers run in component
	// order, then alternative order. first[len(comps)] is the total.
	first []int
	// owner[t] is the position of the component alternative number t
	// belongs to.
	owner []int32
	// inTree[i] reports that comps[i] has a parent or children; treeLo and
	// treeHi are the first and last such positions (treeLo > treeHi when
	// there are none).
	inTree         []bool
	treeLo, treeHi int
	// rels maps a relation key to the positions of the components some
	// alternative of which lists a contribution to it, ascending.
	rels map[string][]int
	// deltas holds, per relation key, its stored delta (delta), built on the
	// relation's first Delta; nil when no alternative contributes a row.
	deltas map[string]*relation.Relation
}

// index returns the index of the current component list, building it on the
// first read after a change of the list.
func (d *WSD) index() *index {
	if d.ix == nil {
		d.ix = buildIndex(d.comps, d.nextID)
	}
	return d.ix
}

// buildIndex indexes comps, whose component IDs are below nextID.
func buildIndex(comps []*Component, nextID int) *index {
	ix := &index{
		comps:    comps,
		pos:      make([]int32, nextID),
		children: make([][]int, len(comps)),
		first:    make([]int, len(comps)+1),
		inTree:   make([]bool, len(comps)),
		treeLo:   len(comps),
		treeHi:   -1,
		rels:     map[string][]int{},
		deltas:   map[string]*relation.Relation{},
	}
	for i := range ix.pos {
		ix.pos[i] = -1
	}
	for i, c := range comps {
		ix.pos[c.ID] = int32(i)
		ix.first[i+1] = ix.first[i] + len(c.Alts)
		for _, a := range c.Alts {
			for k := range a.Contrib {
				if l := ix.rels[k]; len(l) == 0 || l[len(l)-1] != i {
					ix.rels[k] = append(l, i)
				}
			}
		}
	}
	ix.owner = make([]int32, 0, ix.first[len(comps)])
	for i, c := range comps {
		for range c.Alts {
			ix.owner = append(ix.owner, int32(i))
		}
		if p := ix.parent(c); p >= 0 {
			ix.children[p] = append(ix.children[p], i)
			ix.inTree[p], ix.inTree[i] = true, true
			ix.treeLo, ix.treeHi = min(ix.treeLo, p, i), max(ix.treeHi, p, i)
		}
	}
	return ix
}

// parent returns the position of c's parent, -1 for a top-level component
// (or a parent the list does not hold, which CheckInvariant reports).
func (ix *index) parent(c *Component) int {
	if c.Parent < 0 || c.Parent >= len(ix.pos) {
		return -1
	}
	return int(ix.pos[c.Parent])
}

// position returns the position of the component with the given ID.
func (ix *index) position(id int) int { return int(ix.pos[id]) }

// root returns the position of the root of the d-tree holding position ci.
func (ix *index) root(ci int) int {
	for p := ix.parent(ix.comps[ci]); p >= 0; p = ix.parent(ix.comps[ci]) {
		ci = p
	}
	return ci
}

// alternative returns the (position, alternative) numbered tag.
func (ix *index) alternative(tag int) (ci, a int) {
	ci = int(ix.owner[tag])
	return ci, tag - ix.first[ci]
}

// delta returns relation k's stored delta, building it on first use: its
// contributions concatenated in component order, then alternative order,
// beside the tag column that numbers each row's (component, alternative)
// (first) — the tagged relation every statement's delta reads as it is; nil
// when no alternative contributes a row. sch is the relation's schema.
func (ix *index) delta(k string, sch *schema.Schema) *relation.Relation {
	if rel, ok := ix.deltas[k]; ok {
		return rel
	}
	var rel *relation.Relation
	var parts []colbatch.Part
	var tags []int64
	for _, ci := range ix.rels[k] {
		for a, alt := range ix.comps[ci].Alts {
			c := alt.Contrib[k]
			if c.Len() == 0 {
				continue
			}
			parts = append(parts, colbatch.Part{B: c.Batch()})
			for range c.Len() {
				tags = append(tags, int64(ix.first[ci]+a))
			}
		}
	}
	if len(parts) > 0 {
		rows := colbatch.Concat(sch, parts)
		rel = relation.FromBatch(rows.Extend(plan.Tagged(sch), colbatch.Col{Kind: value.KindInt, Ints: tags}))
	}
	ix.deltas[k] = rel
	return rel
}

// componentsFor returns the positions (into the component list) of the
// components contributing to relation name, ascending. The slice is the
// index's own, clipped, so an append by the caller copies it. Exposed to the
// planner's component-touch analysis through a plan.ComponentCatalog adapter.
func (d *WSD) componentsFor(name string) []int {
	s := d.index().rels[key(name)]
	return s[:len(s):len(s)]
}

// sameAs reports how ix differs from fresh, an index built anew from the same
// list: its positions, children, numbering, tree facts, relation feeders and
// every delta it has cached (rebuilt in fresh under schemas).
func (ix *index) sameAs(fresh *index, schemas map[string]*schema.Schema) error {
	switch {
	case !slices.Equal(ix.pos, fresh.pos):
		return errors.New("component positions differ")
	case !slices.EqualFunc(ix.children, fresh.children, slices.Equal[[]int]):
		return errors.New("children differ")
	case !slices.Equal(ix.first, fresh.first) || !slices.Equal(ix.owner, fresh.owner):
		return errors.New("alternative numbering differs")
	case !slices.Equal(ix.inTree, fresh.inTree) || ix.treeLo != fresh.treeLo || ix.treeHi != fresh.treeHi:
		return errors.New("tree facts differ")
	case !maps.EqualFunc(ix.rels, fresh.rels, slices.Equal[[]int]):
		return errors.New("relation feeders differ")
	}
	for k, rel := range ix.deltas {
		want := fresh.delta(k, schemas[k])
		if rel.Len() != want.Len() {
			return fmt.Errorf("stored delta of %s holds %d rows, want %d", k, rel.Len(), want.Len())
		}
		var g, w []byte
		for r := range rel.Len() {
			if g, w = rel.Batch().AppendKey(g[:0], r), want.Batch().AppendKey(w[:0], r); string(g) != string(w) {
				return fmt.Errorf("stored delta of %s differs at row %d", k, r)
			}
		}
	}
	return nil
}
