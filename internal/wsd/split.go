package wsd

// Component splitting: REPAIR BY KEY and CHOICE OF over any source, without
// enumerating worlds.
//
// A source's instance in world (a1,…,ak) is its certain part plus the
// selected alternatives' contributions, so a key group's candidate set — and
// hence the repair's choice within the group — is *conditional* on the
// components feeding that key. The split therefore grows the decomposition
// tree: each key group becomes its own component whose alternatives are the
// group's candidates, and a group whose candidates depend on a feeding
// component C spawns one *child* component per alternative a of C — nested
// under (C, a) via Component.Parent/ParentAlt and active exactly in the
// worlds selecting a. A certain source is the case with no feeders (a
// complete relation is a c-table whose conditions all hold): every key group
// becomes one fresh independent top-level component — linear representation
// size for Π(group sizes) worlds. Existing components are left untouched
// (the world-set of every existing relation is preserved bit for bit), the
// representation stays linear in the number of candidate tuples (no
// per-alternative product of key groups, hence no MergeLimit bound), and the
// new components are appended after all existing ones so their digits vary
// fastest: the expansion reproduces the naive chain's interleaved
// child-world order after repair-of-uncertain exactly — order, probabilities
// and all.
//
// Component creation order mirrors the naive engine's per-world group
// first-appearance order (certain prefix first, then the active
// alternatives' contributions in component list order): first the key
// groups anchored in the certain part, in certain-part first-appearance
// order — a group fed by no component becomes one top-level component
// (singleton groups included: a one-alternative component keeps the
// tuple at its naive position instead of shortcutting to dst's certain
// part), a group also fed by component C becomes |Alts(C)| children, one
// per (C, a), each repairing the certain candidates followed by a's
// contributions under the group key; then the contribution-only groups,
// feeders in component list order, alternatives ascending, groups in the
// alternative's contribution first-appearance order. No component merge
// happens unless two components contribute candidates under a common key
// — exactly the coupling case, certified by plan.AnalyzeSplit, in which
// the crossing components (and only those) merge first.
//
// CHOICE OF picks one partition of the whole instance, a single choice
// coupling everything that feeds the source: all feeding components merge
// into one (no merge when the source is fed by at most one), and each
// alternative a of the merged feeder gets one child component whose
// alternatives are the partitions of a's instance (certain part
// included) — the naive interleaved order, exactly, for a single feeder.
// With no feeder the certain part's partitions form one top-level component.
//
// This makes the decomposition closed under its own repair/choice
// operations (chained repairs, repairs of choices, repairs over filtered
// and projected sources through CTAS intermediates, …) in the spirit of
// making compact representations closed under the query language
// (Grahne's conditional-tables-in-practice line; the paper's Section 2
// statements compose freely on the naive engine).

import (
	"fmt"
	"slices"

	"maybms/internal/colbatch"
	"maybms/internal/core"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/schema"
)

// splitter is a split resolved against its source relation, with its first
// key-touch round: route decides the split on it, and the split then runs on
// it without touching the keys again.
type splitter struct {
	src       string
	sch       *schema.Schema
	cols      []int // the key (repair) or attribute (choice) columns
	weightIdx int
	repair    bool
	cert      *colbatch.Batch // the source's certain part
	comps     []int           // the components feeding the source, ascending
	// A repair's certain key groups, their keys, and the keys each feeder's
	// alternatives contribute, in first-appearance order.
	cp       relation.Partition
	anchored map[string]struct{}
	touches  []plan.KeyTouch
}

// newSplit sets up a split of relation src, of schema sch, on its columns
// cols and weightIdx (-1: none): a repair or a choice of src as stored, or —
// with p set — as it will be once the evaluated parts p are stored as src
// (materializeByComponent), their feeding alternatives' parts its
// contributions.
func (d *WSD) newSplit(src string, sch *schema.Schema, p *componentParts, repair bool, cols []int, weightIdx int) *splitter {
	s := &splitter{src: src, sch: sch, cols: cols, weightIdx: weightIdx, repair: repair, comps: d.componentsFor(src)}
	k := key(src)
	s.cert = colbatch.New(sch)
	if cert := d.certain[k]; cert != nil {
		s.cert = cert.Batch()
	}
	contribution := func(j, a int) *colbatch.Batch { return d.comps[s.comps[j]].Alts[a].contribution(k, sch) }
	if p != nil {
		s.cert, s.comps = p.base, nil
		for i, pt := range p.parts {
			if i == 0 || pt.ci != p.parts[i-1].ci {
				s.comps = append(s.comps, pt.ci)
			}
		}
		contribution = func(j, a int) *colbatch.Batch { return p.part(s.comps[j], a).batch() }
	}
	if s.repair {
		s.cp = relation.PartitionBy(s.cert, s.cols, nil)
		s.anchored = make(map[string]struct{}, s.cp.Len())
		var buf []byte
		for g := 0; g < s.cp.Len(); g++ {
			buf = s.cert.AppendKeyOn(buf[:0], s.cols, int(s.cp.Group(g)[0]))
			s.anchored[string(buf)] = struct{}{}
		}
		s.touch(d, contribution)
	}
	return s
}

// touch lists the distinct keys each feeder's alternatives contribute, by
// contribution(j, a) of alternative a of feeder j (nil: no rows).
func (s *splitter) touch(d *WSD, contribution func(j, a int) *colbatch.Batch) {
	s.touches = s.touches[:0]
	var buf []byte
	for j, ci := range s.comps {
		seen := map[string]struct{}{}
		var keys []string
		for a := range d.comps[ci].Alts {
			b := contribution(j, a)
			for i := 0; b != nil && i < b.Len(); i++ {
				buf = b.AppendKeyOn(buf[:0], s.cols, i)
				if _, dup := seen[string(buf)]; !dup {
					kv := string(buf)
					seen[kv] = struct{}{}
					keys = append(keys, kv)
				}
			}
		}
		s.touches = append(s.touches, plan.KeyTouch{Comp: ci, Keys: keys})
	}
}

// condensing returns the *nested* feeders owning a certain-anchored key. Such
// a feeder cannot nest that group's choice under its alternatives alone: in
// worlds where the feeder is inactive the certain candidates still demand a
// repair. Their trees condense to flat components first (exactness of the
// interleaved order is already forfeited to a restructuring here, as on the
// crossing-merge path).
func (s *splitter) condensing(d *WSD) []int {
	var bad []int
	for _, tch := range s.touches {
		if d.comps[tch.Comp].Parent < 0 || s.cp.Len() == 0 {
			continue
		}
		for _, kv := range tch.Keys {
			if _, ok := s.anchored[kv]; ok {
				bad = append(bad, tch.Comp)
				break
			}
		}
	}
	return bad
}

// coupling returns what the split couples, which must be restructured
// before it can nest under its feeders — nil when nothing: a choice's
// feeders when it has more than one or a nested one (merged), a repair's
// feeders contributing candidates under a common key (merged) or, failing
// those, its nested feeders owning a certain-anchored key (condensed).
func (s *splitter) coupling(d *WSD) (comps []int, condense bool) {
	switch {
	case len(s.comps) == 0:
		return nil, false
	case !s.repair:
		if len(s.comps) > 1 || d.comps[s.comps[0]].Parent >= 0 {
			return s.comps, false
		}
		return nil, false
	}
	if an := plan.AnalyzeSplit(s.touches); !an.NoMerge {
		return an.MergeGroups[0], false
	}
	bad := s.condensing(d)
	return bad, len(bad) > 0
}

// decision decides the split on its first round: over no feeder it splits
// certain data (single); else it nests under its feeders (conditional), but
// first restructures what the split couples (merge).
func (s *splitter) decision(d *WSD) decision {
	comps, condense := s.coupling(d)
	switch {
	case len(s.comps) == 0:
		return decision{kind: routeSingle}
	case comps == nil:
		return decision{kind: routeCondSplit, comps: s.comps}
	case condense:
		return d.condenseDecision(comps)
	}
	return d.mergeDecision(comps)
}

// routeSplit decides CREATE TABLE AS … REPAIR BY KEY / CHOICE OF. Over
// `select * from t` it splits t, decided on the split's first key-touch
// round. Any other source is stored transiently (decided like any store),
// split and dropped. A source stored componentwise is evaluated while
// deciding, the split decided on the parts about to be stored; one stored by
// a merge has one feeder and a certain one none, so neither needs data to be
// decided. The naive engine splits the FROM/WHERE rows and projects per
// world afterwards, and a projection commutes with the split: the split's
// columns resolve once, against the FROM/WHERE rows, and the transient
// source carries each at the select item reading it (extendProjection);
// key and weight columns no item reads ride the transient source and are
// stripped from dst after the split.
func (d *WSD) routeSplit(name string, sh shape) (decision, func() (*core.Result, error), error) {
	what, repair := "repair of", sh.Repair != nil
	if !repair {
		what = "choice over"
	}
	done := func(source string) (*core.Result, error) {
		return d.ok("created table %s: %s %s (%s worlds)", name, what, source, d.WorldCount())
	}
	tmp := "__src__" + name
	for _, n := range []string{name, tmp} {
		if _, ok := d.schemas[key(n)]; ok {
			return decision{}, nil, fmt.Errorf("%w: %s", core.ErrExists, n)
		}
	}
	// The split's columns resolve against the source's FROM/WHERE rows, as
	// on the naive engine, so a bad one fails with the naive engine's error.
	cat := d.schemaCatalog()
	fw, err := plan.Cached(plan.SharedCache(), d.trace, &d.lookups, "cfw\x00"+sh.Core.String(), cat,
		func() (*plan.Prepared, error) { return plan.PrepareFromWhere(sh.Core, cat) })
	var cols []int
	weight := -1
	if err == nil {
		cols, weight, err = sh.SplitColumns(fw.Schema())
	}
	if err != nil {
		return decision{}, nil, err
	}
	if sh.src != "" {
		// `select * from t`: t's columns are its FROM/WHERE columns.
		s := d.newSplit(sh.src, d.schemas[key(sh.src)], nil, repair, cols, weight)
		return s.decision(d), func() (*core.Result, error) {
			if err := d.split(s, name); err != nil {
				return nil, err
			}
			return done(sh.src)
		}, nil
	}
	q, pos, extra := extendProjection(sh.Core, fw.Schema(), append(slices.Clone(cols), weight))
	cols, weight = pos[:len(cols)], pos[len(cols)]
	prep, ev, err := d.prepared(q)
	var an *plan.ComponentAnalysis
	if err == nil {
		// dst keeps the select list's columns, which the naive engine
		// refuses to store under one name twice.
		err = core.CheckStoredNames(prep.Schema().Names()[:prep.Schema().Len()-extra])
	}
	if err == nil {
		an, err = d.analyze(prep)
	}
	if err != nil {
		return decision{}, nil, err
	}
	store := d.routeCore(q, an, core.ClosureNone, true)
	dec := store
	var s *splitter
	var parts *componentParts
	if store.kind == routeComponentwise {
		if parts, err = d.evalParts(store, ev.part); err != nil {
			return decision{}, nil, err
		}
		s = d.newSplit(tmp, parts.base.Schema.Unqualify(), parts, repair, cols, weight)
		dec = costlier(store, s.decision(d))
	}
	return dec, func() (*core.Result, error) {
		var err error
		if parts != nil {
			err = d.materializeByComponent(tmp, parts)
		} else if _, err = d.run(store, ev, core.ClosureNone, tmp); err == nil {
			s = d.newSplit(tmp, d.schemas[key(tmp)], nil, repair, cols, weight)
		}
		if err == nil {
			err = d.split(s, name)
		}
		if err == nil && extra > 0 {
			d.projectOutTrailing(name, extra)
		}
		if err == nil {
			err = d.drop(tmp)
		}
		if err != nil {
			return nil, err
		}
		return done("a query source")
	}, nil
}

// split runs s into relation dst: a repair or a choice.
func (d *WSD) split(s *splitter, dst string) error {
	if s.repair {
		return d.repair(s, dst)
	}
	return d.choose(s, dst)
}

// repairGroupComp builds the alternatives of one key-group component from
// its candidates, each picked from the batch it lives in: the rows Sel of
// every part of cands, in order. One alternative per candidate, with
// weight-proportional (or uniform) probabilities: the weights read part by
// part and normalised over the group.
func (d *WSD) repairGroupComp(sch *schema.Schema, dk string, cands []colbatch.Part, weightIdx int) ([]Alternative, error) {
	n := 0
	for _, p := range cands {
		n += len(p.Sel)
	}
	alts := make([]Alternative, 0, n)
	var weights []float64
	for _, p := range cands {
		if d.Weighted {
			w, err := relation.Weights(p.B, p.Sel, weightIdx)
			if err != nil {
				return nil, err
			}
			weights = append(weights, w...)
		}
		for i := range p.Sel {
			alts = append(alts, Alternative{Contrib: contribRel(sch, dk, p.B.Pick(p.Sel[i:i+1]))})
		}
	}
	if d.Weighted {
		for i, p := range relation.Normalize(weights) {
			alts[i].Prob = p
		}
	}
	return alts, nil
}

// repair creates relation dst holding, in each world, one repair of the
// split's source under its key columns; a weight column gives the in-group
// probabilities (w(t)/Σ_group w, Example 2.4), none meaning uniform. The
// source may have a certain part, feeding components, or both; see the
// comment at the top of this file for the construction. Components are added
// as they are built; a failed split (a bad weight, an interrupt) is undone by
// the runner's snapshot.
func (d *WSD) repair(s *splitter, dst string) error {
	k := key(s.src)
	if _, ok := d.certain[k]; !ok && len(s.comps) == 0 {
		// Registered with neither certain tuples nor contributions: the
		// instance is empty in every world and so is its only repair.
		return d.PutCertain(dst, relation.New(s.sch))
	}

	// Restructure what the split couples (coupling): merge the components
	// whose candidate keys cross — and only those — and condense the trees
	// of nested feeders owning a certain-anchored key. A restructuring moves
	// the feeders, so their keys are touched again until the round certifies
	// the no-crossing state.
	for {
		comps, condense := s.coupling(d)
		if comps == nil {
			break
		}
		var err error
		if condense {
			_, err = d.condenseTrees(comps)
		} else {
			_, err = d.mergeComponents(comps)
		}
		if err != nil {
			return err
		}
		s.comps = d.componentsFor(s.src)
		s.touch(d, func(j, a int) *colbatch.Batch { return d.comps[s.comps[j]].Alts[a].contribution(k, s.sch) })
	}

	// After the loop every key value is fed by at most one component:
	// owner[kv] is the feeder's position in comps.
	owner := map[string]int{}
	for i, tch := range s.touches {
		for _, kv := range tch.Keys {
			owner[kv] = i
		}
	}
	sch, keyIdx, weightIdx, cb, cp := s.sch, s.cols, s.weightIdx, s.cert, s.cp
	dk := key(dst)
	if err := d.registerUncertain(dst, sch); err != nil {
		return err
	}
	var buf []byte
	// (a) Key groups anchored in the certain part, in certain-part
	// first-appearance order. An unowned group is an independent top-level
	// choice — every group of a certain source, which has no feeders; a
	// group owned by feeder C nests one child per alternative of C,
	// repairing the certain candidates followed by that alternative's
	// contributions under the group key.
	for g := 0; g < cp.Len(); g++ {
		certRows := cp.Group(g)
		buf = cb.AppendKeyOn(buf[:0], keyIdx, int(certRows[0]))
		fi, isOwned := owner[string(buf)]
		if !isOwned {
			alts, err := d.repairGroupComp(sch, dk, []colbatch.Part{{B: cb, Sel: certRows}}, weightIdx)
			if err == nil {
				_, err = d.addComponent(alts)
			}
			if err != nil {
				return err
			}
			continue
		}
		gk := string(buf)
		fc := d.comps[s.comps[fi]]
		for ai := range fc.Alts {
			if err := d.interrupted(); err != nil {
				return err
			}
			b := fc.Alts[ai].contribution(k, sch)
			var match []int32
			for i := 0; i < b.Len(); i++ {
				if buf = b.AppendKeyOn(buf[:0], keyIdx, i); string(buf) == gk {
					match = append(match, int32(i))
				}
			}
			cands := []colbatch.Part{{B: cb, Sel: certRows}}
			if len(match) > 0 {
				cands = append(cands, colbatch.Part{B: b, Sel: match})
			}
			alts, err := d.repairGroupComp(sch, dk, cands, weightIdx)
			if err == nil {
				_, err = d.addChildComponent(alts, fc.ID, ai)
			}
			if err != nil {
				return err
			}
		}
	}

	// (b) Contribution-only groups: feeders in component list order,
	// alternatives ascending, groups in the alternative's contribution
	// first-appearance order. Each non-empty (feeder, alternative, group)
	// triple becomes one child component.
	for _, ci := range s.comps {
		fc := d.comps[ci]
		for ai := range fc.Alts {
			if err := d.interrupted(); err != nil {
				return err
			}
			b := fc.Alts[ai].contribution(k, sch)
			p := relation.PartitionBy(b, keyIdx, nil)
			for g := 0; g < p.Len(); g++ {
				rows := p.Group(g)
				buf = b.AppendKeyOn(buf[:0], keyIdx, int(rows[0]))
				if _, ok := s.anchored[string(buf)]; ok {
					continue // handled in (a), certain-prefix position
				}
				alts, err := d.repairGroupComp(sch, dk, []colbatch.Part{{B: b, Sel: rows}}, weightIdx)
				if err == nil {
					_, err = d.addChildComponent(alts, fc.ID, ai)
				}
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// choose creates relation dst holding, in each world, one partition of the
// split's source by its attribute columns (Examples 2.6–2.7), weighted by the
// partitions' weight shares or uniformly. The choice picks one partition of
// the whole per-world instance, a single decision coupling every feeding
// component, so those merge into one (no merge for a single feeder), and each
// alternative of the merged feeder gets one child component whose
// alternatives are the partitions of that alternative's instance (certain
// part included). A certain source has no feeder: its one instance, the
// certain part, becomes one top-level component.
func (d *WSD) choose(s *splitter, dst string) error {
	sch, attrIdx, weightIdx := s.sch, s.cols, s.weightIdx
	k := key(s.src)
	comps := s.comps
	if coupled, _ := s.coupling(d); coupled != nil {
		// Several feeders: the choice couples them, so they merge (trees
		// condense first — see condenseTrees). A *nested* single feeder is
		// inactive in some worlds, where the source instance shrinks to its
		// certain part, which children of the feeder alone cannot express:
		// its tree condenses to a flat component. A single top-level feeder —
		// even one carrying children — is left untouched; the choice nests
		// under it.
		if _, err := d.mergeComponents(comps); err != nil {
			return err
		}
		comps = d.componentsFor(s.src)
	}
	dk := key(dst)
	if err := d.registerUncertain(dst, sch); err != nil {
		return err
	}
	if len(comps) == 0 {
		alts, err := d.choiceComp(sch, dk, s.cert, attrIdx, weightIdx)
		if err == nil {
			_, err = d.addComponent(alts)
		}
		return err
	}
	fc := d.comps[comps[0]]
	for ai, a := range fc.Alts {
		if err := d.interrupted(); err != nil {
			return err
		}
		inst := colbatch.Concat(sch, []colbatch.Part{{B: s.cert}, {B: a.contribution(k, sch)}})
		alts, err := d.choiceComp(sch, dk, inst, attrIdx, weightIdx)
		if err != nil {
			return fmt.Errorf("choice over %s: %w", s.src, err)
		}
		if _, err := d.addChildComponent(alts, fc.ID, ai); err != nil {
			return err
		}
	}
	return nil
}

// choiceComp builds the alternatives of one choice component: one
// alternative per distinct value combination of inst's attribute columns, in
// first-appearance order, weighted by the partition's weight share (or
// uniformly), as in the naive engine's choice split.
func (d *WSD) choiceComp(sch *schema.Schema, dk string, inst *colbatch.Batch, attrIdx []int, weightIdx int) ([]Alternative, error) {
	p := relation.PartitionBy(inst, attrIdx, nil)
	if p.Len() == 0 {
		return nil, fmt.Errorf("choice of over an empty relation produces no worlds: %w", ErrEmpty)
	}
	var probs []float64
	if d.Weighted {
		var err error
		if probs, err = p.ChoiceProbs(inst, weightIdx); err != nil {
			return nil, err
		}
	}
	alts := make([]Alternative, p.Len())
	for g := range alts {
		alts[g] = Alternative{Contrib: contribRel(sch, dk, inst.Pick(p.Group(g)))}
		if d.Weighted {
			alts[g].Prob = probs[g]
		}
	}
	return alts, nil
}
