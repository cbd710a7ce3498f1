package wsd

// The decomposition's one index: what a statement asks of the component list
// as a whole — where a component ID sits, which components hang under which,
// which components feed a relation, and a relation's contributions as one
// tagged-delta source — derived from the list once per change of it, not once
// per statement.
//
// The index is valid while d.comps is, pointer for pointer, the list it was
// built from. That is the whole test: a published component, its
// alternatives, their contribution maps and the relations in them are never
// written in place (own copies the component before any write, and a new
// component is new), so a list holding the same pointers holds the same
// data. No mutation site invalidates anything, and a Snapshot restore, which
// puts an older list back, needs nothing either: the next read finds the
// pointers changed and rebuilds. A write into a component own returned must
// therefore finish before anything reads the index again.

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"maybms/internal/colbatch"
	"maybms/internal/schema"
)

// index is the derived lookup structure of one component list.
type index struct {
	// comps is the component list the index was built from: a copy of the
	// slice, so that splicing d.comps in place cannot change it.
	comps []*Component
	// pos maps a component ID to its position in comps, -1 for an ID not in
	// the list.
	pos []int32
	// children[i] lists the positions of the components conditioned on an
	// alternative of comps[i], ascending; nil for a leaf.
	children [][]int
	// rels maps a relation key to the positions of the components some
	// alternative of which lists a contribution to it, ascending.
	rels map[string][]int
	// deltas holds, per relation key, its contributions concatenated once
	// (storedDelta), built on the relation's first Delta.
	deltas map[string]*storedDelta
}

// storedDelta is one relation's contributions concatenated in component
// order, then alternative order: the rows a tagged delta of them hands out,
// whatever tags a statement gives them.
type storedDelta struct {
	rows *colbatch.Batch // nil when no alternative contributes a row
	runs []deltaRun      // one per contributing (component, alternative), in row order
}

// deltaRun says that the rows of a storedDelta up to end, from the previous
// run's end, are the contribution of alternative alt of the component at
// position comp.
type deltaRun struct{ comp, alt, end int32 }

// index returns the index of the current component list, building it when
// the list is no longer, pointer for pointer, the one it was built from.
func (d *WSD) index() *index {
	if d.ix == nil || !slices.Equal(d.ix.comps, d.comps) {
		d.ix = buildIndex(d.comps, d.nextID)
	}
	return d.ix
}

// buildIndex indexes comps, whose component IDs are below nextID.
func buildIndex(comps []*Component, nextID int) *index {
	ix := &index{
		comps:    slices.Clone(comps),
		pos:      make([]int32, nextID),
		children: make([][]int, len(comps)),
		rels:     map[string][]int{},
		deltas:   map[string]*storedDelta{},
	}
	for i := range ix.pos {
		ix.pos[i] = -1
	}
	for i, c := range comps {
		ix.pos[c.ID] = int32(i)
		for _, a := range c.Alts {
			for k := range a.Contrib {
				if l := ix.rels[k]; len(l) == 0 || l[len(l)-1] != i {
					ix.rels[k] = append(l, i)
				}
			}
		}
	}
	for i, c := range comps {
		if p := ix.parent(c); p >= 0 {
			ix.children[p] = append(ix.children[p], i)
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

// delta returns relation k's stored delta, concatenating its contributions on
// first use; sch is the relation's schema.
func (ix *index) delta(k string, sch *schema.Schema) *storedDelta {
	if sd, ok := ix.deltas[k]; ok {
		return sd
	}
	sd := &storedDelta{}
	var parts []colbatch.Part
	n := 0
	for _, ci := range ix.rels[k] {
		for a, alt := range ix.comps[ci].Alts {
			c := alt.Contrib[k]
			if c.Len() == 0 {
				continue
			}
			parts = append(parts, colbatch.Part{B: c.Batch()})
			n += c.Len()
			sd.runs = append(sd.runs, deltaRun{comp: int32(ci), alt: int32(a), end: int32(n)})
		}
	}
	if len(parts) > 0 {
		sd.rows = colbatch.Concat(sch, parts)
	}
	ix.deltas[k] = sd
	return sd
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
// list: its positions, children, relation feeders and every delta it has
// cached (rebuilt in fresh under schemas).
func (ix *index) sameAs(fresh *index, schemas map[string]*schema.Schema) error {
	switch {
	case !slices.Equal(ix.pos, fresh.pos):
		return errors.New("component positions differ")
	case !slices.EqualFunc(ix.children, fresh.children, slices.Equal[[]int]):
		return errors.New("children differ")
	case !maps.EqualFunc(ix.rels, fresh.rels, slices.Equal[[]int]):
		return errors.New("relation feeders differ")
	}
	for k, sd := range ix.deltas {
		want := fresh.delta(k, schemas[k])
		if !slices.Equal(sd.runs, want.runs) || sd.rows.Len() != want.rows.Len() {
			return fmt.Errorf("stored delta of %s differs in its runs", k)
		}
		var got, exp []byte
		for r := range sd.rows.Len() {
			if got, exp = sd.rows.AppendKey(got[:0], r), want.rows.AppendKey(exp[:0], r); string(got) != string(exp) {
				return fmt.Errorf("stored delta of %s differs at row %d", k, r)
			}
		}
	}
	return nil
}
