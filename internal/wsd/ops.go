package wsd

import (
	"fmt"

	"maybms/internal/colbatch"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

func confSchema() *schema.Schema { return schema.New("conf") }

// RepairByKey creates relation dst holding, in each world, one repair of
// relation src under the key columns.
//
// A certain src factorizes directly: the world-set gains one component
// per key group with one alternative per candidate tuple — linear
// representation size for Π(group sizes) worlds. An uncertain src (one
// that varies across worlds) is handled by component splitting
// (split.go): each key group becomes its own component, nested as a
// child under each feeding alternative when the group's candidates are
// conditional on a feeding component, with merges bounded to components
// that contribute candidates under a common key — Σ-alternatives work
// and MergeCount unchanged when the feeding components' keys do not
// cross, and representation size linear in the candidate tuples.
//
// weight names a positive numeric column used for in-group probabilities
// (w(t)/Σ_group w, Example 2.4); empty means uniform. Weights require a
// weighted WSD.
func (d *WSD) RepairByKey(src, dst string, keyCols []string, weight string) error {
	sch, err := d.Schema(src)
	if err != nil {
		return err
	}
	keyIdx, err := sch.IndexesOf(keyCols)
	if err != nil {
		return err
	}
	weightIdx := -1
	if weight != "" {
		if !d.Weighted {
			return ErrNotWeighted
		}
		weightIdx, err = sch.Resolve("", weight)
		if err != nil {
			return err
		}
	}
	if !d.isCertain(src) {
		if len(d.involvedComponents([]string{src})) == 0 {
			// Registered with neither certain tuples nor contributions: the
			// instance is empty in every world and so is its only repair
			// (PutCertain reports a dst collision).
			return d.PutCertain(dst, relation.New(sch))
		}
		return d.repairUncertain(src, dst, keyIdx, weightIdx)
	}
	rel := d.certain[key(src)]
	k := key(dst)
	order, groups := rel.GroupBy(keyIdx)
	// Build every key group's component before touching the decomposition:
	// a bad weight in a later group must not leave earlier groups' orphan
	// components feeding a half-created relation.
	pending := make([][]Alternative, 0, len(order))
	for _, gk := range order {
		tuples := groups[gk]
		probs, err := repairGroupProbs(tuples, weightIdx, d.Weighted)
		if err != nil {
			return err
		}
		alts := make([]Alternative, len(tuples))
		for i, t := range tuples {
			alts[i] = Alternative{Contrib: contribRel(sch, k, []tuple.Tuple{t})}
			if d.Weighted {
				alts[i].Prob = probs[i]
			}
		}
		pending = append(pending, alts)
	}
	if err := d.registerUncertain(dst, sch); err != nil {
		return err
	}
	for _, alts := range pending {
		d.comps = append(d.comps, &Component{ID: d.nextID, Alts: alts, Parent: -1})
		d.nextID++
	}
	return nil
}

// ChoiceOf creates relation dst holding, in each world, one partition of
// relation src by the given attribute columns: a single new component
// with one alternative per distinct value (Examples 2.6–2.7). An
// uncertain src is handled by component splitting (split.go): the
// partition choice couples everything feeding the source, so the feeding
// components merge into one (no merge for at most one feeder), and each
// of its alternatives gains one nested child component holding the
// partitions of that alternative's instance.
func (d *WSD) ChoiceOf(src, dst string, attrs []string, weight string) error {
	sch, err := d.Schema(src)
	if err != nil {
		return err
	}
	attrIdx, err := sch.IndexesOf(attrs)
	if err != nil {
		return err
	}
	weightIdx := -1
	if weight != "" {
		if !d.Weighted {
			return ErrNotWeighted
		}
		weightIdx, err = sch.Resolve("", weight)
		if err != nil {
			return err
		}
	}
	if !d.isCertain(src) {
		if len(d.involvedComponents([]string{src})) == 0 {
			return fmt.Errorf("choice of over an empty relation produces no worlds: %w", ErrEmpty)
		}
		return d.choiceUncertain(src, dst, attrIdx, weightIdx)
	}
	rel := d.certain[key(src)]
	order, groups := rel.GroupBy(attrIdx)
	if len(order) == 0 {
		return fmt.Errorf("choice of over an empty relation produces no worlds: %w", ErrEmpty)
	}
	if err := d.registerUncertain(dst, sch); err != nil {
		return err
	}
	k := key(dst)
	alts := make([]Alternative, len(order))
	if d.Weighted && weightIdx >= 0 {
		total := 0.0
		sums := make([]float64, len(order))
		for i, gk := range order {
			for _, t := range groups[gk] {
				w, err := positiveWeight(t[weightIdx])
				if err != nil {
					d.unregister(dst)
					return err
				}
				sums[i] += w
			}
			total += sums[i]
		}
		for i, gk := range order {
			alts[i] = Alternative{Prob: sums[i] / total, Contrib: contribRel(sch, k, groups[gk])}
		}
	} else {
		for i, gk := range order {
			alts[i] = Alternative{Contrib: contribRel(sch, k, groups[gk])}
			if d.Weighted {
				alts[i].Prob = 1 / float64(len(order))
			}
		}
	}
	_, err = d.addComponent(alts)
	if err != nil {
		d.unregister(dst)
	}
	return err
}

func (d *WSD) certainRelation(name string) (*relation.Relation, *schema.Schema, error) {
	k := key(name)
	rel, ok := d.certain[k]
	if !ok {
		if _, known := d.schemas[k]; known {
			return nil, nil, fmt.Errorf("%w: %s varies across worlds", ErrNotCertain, name)
		}
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknown, name)
	}
	if !d.isCertain(name) {
		return nil, nil, fmt.Errorf("%w: %s has component contributions", ErrNotCertain, name)
	}
	return rel, d.schemas[k], nil
}

func (d *WSD) unregister(name string) {
	delete(d.schemas, key(name))
	delete(d.names, key(name))
}

func positiveWeight(v value.Value) (float64, error) {
	if !v.IsNumeric() {
		return 0, fmt.Errorf("weight value %v is not numeric", v)
	}
	w := v.AsFloat()
	if w <= 0 {
		return 0, fmt.Errorf("weight value %g must be positive", w)
	}
	return w, nil
}

// relationFold prepares the closure fold (fold.go) over the stored relation
// name — no plan, no evaluation: the components are the whole decomposition
// and the parts their stored contribution batches. only, when non-nil,
// restricts the fold to that one tuple key, and leaves the certain part to
// the caller.
func (d *WSD) relationFold(name string, only []byte) (*closureFold, error) {
	k := key(name)
	if _, ok := d.schemas[k]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknown, name)
	}
	part := func(i, a int) *colbatch.Batch {
		if contrib := d.comps[i].Alts[a].Contrib[k]; contrib != nil {
			return contrib.BatchView()
		}
		return nil
	}
	var certain *colbatch.Batch
	if cert := d.certain[k]; only == nil && cert.Len() > 0 {
		certain = cert.BatchView()
	}
	return d.newClosureFold(d.comps, part, certain, only), nil
}

// closeRelation answers closure cl over the stored relation name.
func (d *WSD) closeRelation(name string, cl closure) (*relation.Relation, error) {
	f, err := d.relationFold(name, nil)
	if err != nil {
		return nil, err
	}
	return f.close(cl, d.schemas[key(name)])
}

// Possible returns the set of tuples appearing in relation name in at least
// one world: the certain tuples, then every contributed tuple in component
// order (alternatives ascending), each where it first appears. One pass over
// the stored rows — no plan, no evaluation, no enumeration.
func (d *WSD) Possible(name string) (*relation.Relation, error) {
	return d.closeRelation(name, closurePossible)
}

// Certain returns the tuples of relation name present in every world, in
// Possible's order: the certain part plus the tuples some top-level component
// contributes under every assignment of its d-tree — on a flat decomposition,
// under every alternative (by independence, the exact criterion). Linear in
// the stored rows × tree depth.
func (d *WSD) Certain(name string) (*relation.Relation, error) {
	return d.closeRelation(name, closureCertain)
}

// ConfRelation returns every possible tuple of relation name, in Possible's
// order, extended with its exact confidence 1 − Π_c (1 − p_c(t)) over the
// independent top-level components — mirroring `select *, conf from name` at
// the cost of one pass over the stored rows × tree depth. Weighted WSDs only.
func (d *WSD) ConfRelation(name string) (*relation.Relation, error) {
	if !d.Weighted {
		return nil, ErrNotWeighted
	}
	return d.closeRelation(name, closureConf)
}

// Conf returns the exact confidence of tuple t in relation name — 1 for a
// certain tuple, 0 for an impossible one — by the same fold restricted to t's
// key: a compare-only scan of the stored contributions, nothing interned. No
// world enumeration is performed. Weighted WSDs only.
func (d *WSD) Conf(name string, t tuple.Tuple) (float64, error) {
	if !d.Weighted {
		return 0, ErrNotWeighted
	}
	if cert, ok := d.certain[key(name)]; ok && cert.Contains(t) {
		return 1, nil
	}
	f, err := d.relationFold(name, t.Encode(nil))
	if err != nil {
		return 0, err
	}
	return f.pointConf()
}
