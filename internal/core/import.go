package core

import (
	"fmt"

	"maybms/internal/colbatch"
	"maybms/internal/relation"
	"maybms/internal/sqlparse"
	"maybms/internal/world"
	"maybms/internal/worldset"
)

// LoadImport loads the CSV file an IMPORT statement names into the import
// plan both engines register — certain rows plus uncertainty groups — after
// checking that a WEIGHT column has a probabilistic session to weigh.
func LoadImport(st *sqlparse.Import, weighted bool) (*relation.ImportPlan, error) {
	if st.Weight != "" && !weighted {
		return nil, fmt.Errorf("weight requires a probabilistic session: %w", worldset.ErrNotWeighted)
	}
	return relation.LoadCSVFile(st.Path, relation.ImportOptions{
		NullsChoice: st.NullsChoice,
		RepairKey:   st.RepairKey,
		Weight:      st.Weight,
	})
}

// execImport bulk-loads a CSV file into every world of the session. The
// loader's plan (relation.LoadCSV) lists certain rows plus uncertainty
// groups; certain rows land in all worlds, and each group splits every
// parent world into one child per alternative. Children enumerate groups
// in first-row order with the last group varying fastest — exactly the
// order the WSD backend's Expand walks its components — so both engines
// produce the same world-set for the same file. The interrupt hook is
// polled before each world.
func (s *Session) execImport(st *sqlparse.Import) (*Result, error) {
	if err := s.checkFresh(st.Table); err != nil {
		return nil, err
	}
	plan, err := LoadImport(st, s.set.Weighted)
	if err != nil {
		return nil, err
	}

	if len(plan.Groups) == 0 {
		if _, err := s.putEach(st.Table, nil, func(*world.World) (*relation.Relation, int, error) { return plan.Certain, 0, nil }); err != nil {
			return nil, err
		}
		return s.ok("imported %d row(s) into %s in %d world(s)", plan.Certain.Len(), st.Table, len(s.set.Worlds))
	}

	perParent := plan.WorldCount(s.MaxWorlds)
	if perParent > s.MaxWorlds || len(s.set.Worlds)*perParent > s.MaxWorlds {
		return nil, ErrTooManyWorlds
	}

	// Every parent has one child per pick of an alternative from each
	// group, last group fastest. The groups' alternatives are assembled
	// once, group gi's alternative a at row off[gi]+a, and each child is
	// one Concat of the certain rows and its picks.
	sizes := make([]int, len(plan.Groups))
	off := make([]int32, len(plan.Groups))
	groups := make([]colbatch.Part, len(plan.Groups))
	n := int32(0)
	for gi, g := range plan.Groups {
		sizes[gi], off[gi], groups[gi] = g.Rel.Len(), n, colbatch.Part{B: g.Rel.Batch()}
		n += int32(g.Rel.Len())
	}
	alts := colbatch.Concat(plan.Schema, groups)
	sel := make([]int32, len(plan.Groups))
	worlds := make([]*world.World, 0, len(s.set.Worlds)*perParent)
	for _, parent := range s.set.Worlds {
		j := 0
		err := relation.EachPick(sizes, func(pick []int) error {
			if err := s.interrupted(); err != nil {
				return err
			}
			child := parent.Clone(childName(parent.Name, j))
			j++
			for gi, g := range plan.Groups {
				sel[gi] = off[gi] + int32(pick[gi])
				if s.set.Weighted {
					child.Prob *= g.Probs[pick[gi]]
				}
			}
			combined := colbatch.Concat(plan.Schema, []colbatch.Part{{B: plan.Certain.Batch()}, {B: alts, Sel: sel}})
			child.Put(st.Table, relation.FromBatch(combined))
			worlds = append(worlds, child)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if err := s.set.Replace(worlds); err != nil {
		return nil, err
	}
	return s.ok("imported %s: %d certain row(s), %d uncertainty group(s); %d world(s)",
		st.Table, plan.Certain.Len(), len(plan.Groups), len(s.set.Worlds))
}
