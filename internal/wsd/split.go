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

	"maybms/internal/colbatch"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/worldset"
)

// splitColumns resolves a split's column list and optional weight column
// (-1 when absent) against the source schema; a weight needs a weighted WSD.
func (d *WSD) splitColumns(src string, cols []string, weight string) (sch *schema.Schema, idx []int, weightIdx int, err error) {
	if sch, err = d.Schema(src); err != nil {
		return nil, nil, 0, err
	}
	if idx, err = sch.IndexesOf(cols); err != nil {
		return nil, nil, 0, err
	}
	weightIdx = -1
	if weight != "" {
		if !d.Weighted {
			return nil, nil, 0, fmt.Errorf("weight requires a probabilistic session: %w", worldset.ErrNotWeighted)
		}
		if weightIdx, err = sch.Resolve("", weight); err != nil {
			return nil, nil, 0, err
		}
	}
	return sch, idx, weightIdx, nil
}

// repairGroupComp builds the alternatives of one key-group component from
// the candidate rows sel of b: one alternative per candidate,
// weight-proportional (or uniform) probabilities.
func (d *WSD) repairGroupComp(sch *schema.Schema, dk string, b *colbatch.Batch, sel []int32, weightIdx int) ([]Alternative, error) {
	var probs []float64
	if d.Weighted {
		w, err := relation.Weights(b, sel, weightIdx)
		if err != nil {
			return nil, err
		}
		probs = relation.Normalize(w)
	}
	alts := make([]Alternative, len(sel))
	for i := range sel {
		alts[i] = Alternative{Contrib: contribRel(sch, dk, b.Pick(sel[i:i+1]))}
		if d.Weighted {
			alts[i].Prob = probs[i]
		}
	}
	return alts, nil
}

// repairByKey creates relation dst holding, in each world, one repair of
// relation src under the key columns; weight names a positive numeric column
// for the in-group probabilities (w(t)/Σ_group w, Example 2.4), "" meaning
// uniform. The source may have a certain part, feeding components, or both;
// see the comment at the top of this file for the construction. Components
// are added as they are built; a failed split (a bad weight, an interrupt)
// is undone by the runner's snapshot.
func (d *WSD) repairByKey(src, dst string, keyCols []string, weight string) error {
	sch, keyIdx, weightIdx, err := d.splitColumns(src, keyCols, weight)
	if err != nil {
		return err
	}
	k := key(src)
	if _, ok := d.certain[k]; !ok && len(d.componentsFor(src)) == 0 {
		// Registered with neither certain tuples nor contributions: the
		// instance is empty in every world and so is its only repair
		// (PutCertain reports a dst collision).
		return d.PutCertain(dst, relation.New(sch))
	}
	if _, ok := d.schemas[key(dst)]; ok {
		return fmt.Errorf("%w: %s", ErrExists, dst)
	}

	// The key groups anchored in the certain part, in first-appearance
	// order, and their keys.
	cert := d.certain[k]
	if cert == nil {
		cert = relation.New(sch)
	}
	cb := cert.Batch()
	cp := relation.PartitionBy(cb, keyIdx, nil)
	anchored := make(map[string]struct{}, cp.Len())
	var buf []byte
	for g := 0; g < cp.Len(); g++ {
		buf = cb.AppendKeyOn(buf[:0], keyIdx, int(cp.Group(g)[0]))
		anchored[string(buf)] = struct{}{}
	}

	// Merge the components whose candidate keys cross — and only those.
	// A merge changes component indexes, so re-derive the analysis until
	// it certifies the no-crossing state; the final round's key
	// projections are reused below.
	var comps []int
	var touches []plan.KeyTouch
	for {
		comps = d.componentsFor(src)
		touches = touches[:0]
		for _, ci := range comps {
			seen := map[string]struct{}{}
			var keys []string
			var buf []byte
			for _, a := range d.comps[ci].Alts {
				b := a.contribution(k, sch)
				for i := 0; i < b.Len(); i++ {
					buf = b.AppendKeyOn(buf[:0], keyIdx, i)
					if _, dup := seen[string(buf)]; !dup {
						kv := string(buf)
						seen[kv] = struct{}{}
						keys = append(keys, kv)
					}
				}
			}
			touches = append(touches, plan.KeyTouch{Comp: ci, Keys: keys})
		}
		an := plan.AnalyzeSplit(touches)
		if !an.NoMerge {
			if _, err := d.mergeComponents(an.MergeGroups[0]); err != nil {
				return err
			}
			continue
		}
		// A *nested* feeder owning a certain-anchored key cannot nest that
		// group's choice under its alternatives alone: in worlds where the
		// feeder is inactive the certain candidates still demand a repair.
		// Condense the offending trees to flat components first (exactness
		// of the interleaved order is already forfeited to a restructuring
		// here, as on the crossing-merge path).
		if d.nested > 0 && cp.Len() > 0 {
			var bad []int
			for i, tch := range touches {
				if d.comps[comps[i]].Parent < 0 {
					continue
				}
				for _, kv := range tch.Keys {
					if _, ok := anchored[kv]; ok {
						bad = append(bad, comps[i])
						break
					}
				}
			}
			if len(bad) > 0 {
				if _, err := d.condenseTrees(bad); err != nil {
					return err
				}
				continue
			}
		}
		break
	}

	// After the loop every key value is fed by at most one component:
	// owner[kv] is the feeder's position in comps.
	owner := map[string]int{}
	for i, tch := range touches {
		for _, kv := range tch.Keys {
			owner[kv] = i
		}
	}
	dk, nested := key(dst), d.nested
	if err := d.registerUncertain(dst, sch); err != nil {
		return err
	}

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
			alts, err := d.repairGroupComp(sch, dk, cb, certRows, weightIdx)
			if err == nil {
				_, err = d.addComponent(alts)
			}
			if err != nil {
				return err
			}
			continue
		}
		gk := string(buf)
		fc := d.comps[comps[fi]]
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
			inst := colbatch.New(sch)
			inst.AppendGather(cb, certRows)
			inst.AppendGather(b, match)
			all := make([]int32, inst.Len())
			for i := range all {
				all[i] = int32(i)
			}
			alts, err := d.repairGroupComp(sch, dk, inst, all, weightIdx)
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
	for _, ci := range comps {
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
				if _, ok := anchored[string(buf)]; ok {
					continue // handled in (a), certain-prefix position
				}
				alts, err := d.repairGroupComp(sch, dk, b, rows, weightIdx)
				if err == nil {
					_, err = d.addChildComponent(alts, fc.ID, ai)
				}
				if err != nil {
					return err
				}
			}
		}
	}
	if d.nested > nested {
		d.conditional.Add(1)
	}
	return nil
}

// choiceOf creates relation dst holding, in each world, one partition of
// relation src by the attribute columns (Examples 2.6–2.7), weighted by the
// partitions' weight shares or uniformly. The choice picks one partition of
// the whole per-world instance, a single decision coupling every feeding
// component, so those merge into one (no merge for a single feeder), and each
// alternative of the merged feeder gets one child component whose
// alternatives are the partitions of that alternative's instance (certain
// part included). A certain source has no feeder: its one instance, the
// certain part, becomes one top-level component.
func (d *WSD) choiceOf(src, dst string, attrs []string, weight string) error {
	sch, attrIdx, weightIdx, err := d.splitColumns(src, attrs, weight)
	if err != nil {
		return err
	}
	k := key(src)
	if _, ok := d.schemas[key(dst)]; ok {
		return fmt.Errorf("%w: %s", ErrExists, dst)
	}
	comps := d.componentsFor(src)
	if len(comps) > 1 {
		// Multiple feeders: the choice couples them, so they merge (trees
		// condense first — see condenseTrees). A single top-level feeder —
		// even one carrying children — is left untouched; the choice nests
		// under it.
		if _, err := d.mergeComponents(comps); err != nil {
			return err
		}
		comps = d.componentsFor(src)
	} else if len(comps) == 1 && d.comps[comps[0]].Parent >= 0 {
		// A *nested* single feeder is inactive in some worlds; there the
		// source instance shrinks to its certain part (possibly empty — a
		// naive error), which children of the feeder alone cannot express.
		// Condense its tree to a flat component first.
		if _, err := d.condenseTrees(comps); err != nil {
			return err
		}
		comps = d.componentsFor(src)
	}
	cert := d.certain[k]
	if cert == nil {
		cert = relation.New(sch)
	}
	dk := key(dst)
	if err := d.registerUncertain(dst, sch); err != nil {
		return err
	}
	if len(comps) == 0 {
		alts, err := d.choiceComp(sch, dk, cert.Batch(), attrIdx, weightIdx)
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
		inst := colbatch.New(sch)
		inst.AppendBatch(cert.Batch())
		inst.AppendBatch(a.contribution(k, sch))
		alts, err := d.choiceComp(sch, dk, inst, attrIdx, weightIdx)
		if err != nil {
			return fmt.Errorf("choice over %s: %w", src, err)
		}
		if _, err := d.addChildComponent(alts, fc.ID, ai); err != nil {
			return err
		}
	}
	d.conditional.Add(1)
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
