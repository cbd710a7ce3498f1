package wsd

// Reads of a stored relation — Possible, Certain, ConfRelation and Conf —
// answered by the closure fold over the stored representation, with no plan
// and no evaluation. (REPAIR BY KEY and CHOICE OF, over certain and uncertain
// sources alike, are split.go's.)

import (
	"fmt"

	"maybms/internal/colbatch"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/tuple"
)

func confSchema() *schema.Schema { return schema.New("conf") }

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
	part := func(i, a int) rowRange {
		if contrib := d.comps[i].Alts[a].Contrib[k]; contrib != nil {
			return whole(contrib.Batch())
		}
		return rowRange{}
	}
	var certain *colbatch.Batch
	if cert := d.certain[k]; only == nil && cert.Len() > 0 {
		certain = cert.Batch()
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
