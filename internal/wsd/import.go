package wsd

import (
	"fmt"

	"maybms/internal/relation"
)

// Import registers the result of a bulk CSV load (see relation.LoadCSV)
// as relation name: the plan's certain rows become the certain part and
// every import group becomes one independent component whose alternative
// i contributes row i of the group. Contributions are zero-copy slices of
// the group's stored batch — the columnar load is the decomposition.
// Components are added group by group, polling the interrupt hook before
// each; a bad or interrupted group fails the statement, which the runner's
// snapshot undoes.
//
// A plan without groups degenerates to PutCertain. Group probabilities
// are applied only on a weighted WSD (they are ignored, like repair-key
// weights, on an unweighted one — callers reject an explicit WEIGHT
// clause on unweighted databases before loading).
func (d *WSD) Import(name string, p *relation.ImportPlan) error {
	if len(p.Groups) == 0 {
		return d.PutCertain(name, p.Certain)
	}
	k := key(name)
	if err := d.registerUncertain(name, p.Schema); err != nil {
		return err
	}
	// Share the registered schema pointer across every stored relation, so
	// componentwise lookups return the stored contributions themselves.
	sch := d.schemas[k]
	if p.Certain.Len() > 0 {
		d.certain[k] = p.Certain.WithSchema(sch)
	}
	for _, g := range p.Groups {
		if err := d.interrupted(); err != nil {
			return err
		}
		b := g.Rel.Batch()
		alts := make([]Alternative, g.Rel.Len())
		for i := range alts {
			contrib := relation.FromBatch(b.Slice(i, i+1).WithSchema(sch))
			alts[i] = Alternative{Contrib: map[string]*relation.Relation{k: contrib}}
			if d.Weighted {
				alts[i].Prob = g.Probs[i]
			}
		}
		if _, err := d.addComponent(alts); err != nil {
			return fmt.Errorf("import group: %w", err)
		}
	}
	return nil
}
