package relation

import (
	"errors"
	"fmt"
	"io"
	"os"

	"maybms/internal/colbatch"
	"maybms/internal/schema"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

// MaxChoiceAlternatives caps the number of alternatives a single
// NULLS AS CHOICE row may expand into (the cross product of the active
// domains of its NULL columns). Dirty rows beyond the cap fail the import
// rather than silently exploding the decomposition.
const MaxChoiceAlternatives = 4096

// ImportOptions selects how much uncertainty the loader compiles into the
// ingested file.
type ImportOptions struct {
	// NullsChoice turns every row containing a NULL into a choice
	// component: one alternative per combination of active-domain fills
	// for its NULL cells (a column with no non-NULL values anywhere keeps
	// NULL), uniformly weighted.
	NullsChoice bool
	// RepairKey lists key columns; rows that agree on the key (among the
	// non-choice rows) become mutually exclusive repair alternatives.
	RepairKey []string
	// Weight names a positive numeric column providing repair-group
	// weights (w/Σ_group w); empty means uniform.
	Weight string
}

// ImportGroup is one independent component discovered during load: a set
// of mutually exclusive alternative rows over the file's schema. Rel holds
// one row per alternative (alternative i is row i), so consumers can slice
// the backing batch per alternative without copying. Probs are the
// in-group choice probabilities (they always sum to 1; unweighted
// consumers simply ignore them).
type ImportGroup struct {
	Choice bool // NULL-fill choice group, else repair-key group
	Rel    *Relation
	Probs  []float64
}

// ImportPlan is the backend-agnostic result of classifying a CSV file:
// the rows that hold in every world plus the uncertainty components, in
// first-row-appearance order. Both the naive engine (world splitting) and
// the WSD engine (component registration) consume the same plan, so their
// represented world-sets agree by construction.
type ImportPlan struct {
	Schema  *schema.Schema
	Certain *Relation
	Groups  []ImportGroup
}

// WorldCount returns the number of worlds the plan represents (the
// product of the group sizes), saturating at lim+1 so callers can bound
// the naive expansion without overflow.
func (p *ImportPlan) WorldCount(lim int) int {
	count := 1
	for _, g := range p.Groups {
		count *= g.Rel.Len()
		if count > lim {
			return lim + 1
		}
	}
	return count
}

// LoadCSVFile is LoadCSV over a file path.
func LoadCSVFile(path string, opts ImportOptions) (*ImportPlan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("relation: import: %w", err)
	}
	defer f.Close()
	return LoadCSV(f, opts)
}

// LoadCSV bulk-loads CSV (header row first, fields interpreted with
// value.Parse) and classifies the rows into an ImportPlan. ReadCSV streams
// the file into typed columns, allocating per column and per chunk of rows;
// the key groups of REPAIR KEY and the active domains of NULLS AS CHOICE
// are partitions over those typed cells (PartitionBy); and the certain part
// of the plan is a columnar gather (or the whole stored batch when the file
// carries no uncertainty).
func LoadCSV(r io.Reader, opts ImportOptions) (*ImportPlan, error) {
	rel, err := ReadCSV(r)
	if err != nil {
		return nil, err
	}
	return classifyImport(rel, opts)
}

func classifyImport(rel *Relation, opts ImportOptions) (*ImportPlan, error) {
	sch := rel.Schema
	b := rel.Batch()
	n := b.Len()

	if !opts.NullsChoice && len(opts.RepairKey) == 0 {
		return &ImportPlan{Schema: sch, Certain: rel}, nil
	}

	keyIdx, err := sch.IndexesOf(opts.RepairKey)
	if err != nil {
		return nil, fmt.Errorf("relation: import: %w", err)
	}
	weightIdx := -1
	if opts.Weight != "" {
		if weightIdx, err = sch.Resolve("", opts.Weight); err != nil {
			return nil, fmt.Errorf("relation: import: weight: %w", err)
		}
	}

	// Rows with a NULL become choice groups; the others are the repair
	// input (nil: every row).
	var choice, input []int32
	if opts.NullsChoice {
		allCols := make([]int, sch.Len())
		for j := range allCols {
			allCols[j] = j
		}
		input = make([]int32, 0, n)
		for i := 0; i < n; i++ {
			if b.HasNullAt(allCols, i) {
				choice = append(choice, int32(i))
			} else {
				input = append(input, int32(i))
			}
		}
	}

	// Groups are listed in first-row order: before each key group, the
	// choice rows above its first row.
	plan := &ImportPlan{Schema: sch}
	domains := map[int][]value.Value{} // active domains, of the columns a NULL is filled in
	next := 0
	choicesBefore := func(row int32) error {
		for ; next < len(choice) && choice[next] < row; next++ {
			g, err := choiceGroup(b, int(choice[next]), domains)
			if err != nil {
				return err
			}
			plan.Groups = append(plan.Groups, g)
		}
		return nil
	}
	certSel := input
	if len(keyIdx) > 0 {
		// Rows agreeing on the key are one repair group, each row's
		// probability its weight share within the group. Every input row's
		// weight is validated, a lone row's too; a lone row is certain.
		p := PartitionBy(b, keyIdx, input)
		probs, err := Weights(b, p.Rows, weightIdx)
		if err != nil {
			var we *WeightError
			errors.As(err, &we)
			return nil, fmt.Errorf("relation: import: row %d: %w", we.Row+1, err)
		}
		// The rows of every repair group are gathered once, in group
		// order, and each group is a capacity-clamped slice of them.
		var multi []int32
		for g := 0; g < p.Len(); g++ {
			if rows := p.Group(g); len(rows) > 1 {
				multi = append(multi, rows...)
			}
		}
		alts := b.Gather(multi)
		at := 0
		certSel = make([]int32, 0, p.Len())
		for g := 0; g < p.Len(); g++ {
			rows := p.Group(g)
			if err := choicesBefore(rows[0]); err != nil {
				return nil, err
			}
			if len(rows) == 1 {
				certSel = append(certSel, rows[0])
				continue
			}
			plan.Groups = append(plan.Groups, ImportGroup{
				Rel:   FromBatch(alts.Slice(at, at+len(rows))),
				Probs: Normalize(probs[p.Start[g]:p.Start[g+1]:p.Start[g+1]]),
			})
			at += len(rows)
		}
	}
	if err := choicesBefore(int32(n)); err != nil {
		return nil, err
	}
	if len(certSel) == n {
		plan.Certain = rel
	} else {
		plan.Certain = FromBatch(b.Gather(certSel))
	}
	return plan, nil
}

// activeDomain returns column j's active domain: its distinct non-NULL
// values across the whole file, in first-appearance order.
func activeDomain(b *colbatch.Batch, j int) []value.Value {
	col := b.Col(j)
	nonNull := make([]int32, 0, b.Len())
	for i := 0; i < b.Len(); i++ {
		if !col.Null(i) {
			nonNull = append(nonNull, int32(i))
		}
	}
	p := PartitionBy(b, []int{j}, nonNull)
	d := make([]value.Value, p.Len())
	for g := range d {
		d[g] = col.Value(int(p.Group(g)[0]))
	}
	return d
}

// choiceGroup expands row i into one alternative per combination of
// active-domain fills for its NULL columns, uniformly weighted. The last
// NULL column varies fastest, and a column whose domain is empty keeps
// NULL (one option). The expansion is capped at MaxChoiceAlternatives.
func choiceGroup(b *colbatch.Batch, i int, domains map[int][]value.Value) (ImportGroup, error) {
	sch := b.Schema
	var nullCols []int
	for j := 0; j < sch.Len(); j++ {
		if b.Col(j).Null(i) {
			nullCols = append(nullCols, j)
		}
	}
	fills := make([][]value.Value, len(nullCols))
	sizes := make([]int, len(nullCols))
	total := 1
	for k, j := range nullCols {
		d, ok := domains[j]
		if !ok {
			d = activeDomain(b, j)
			domains[j] = d
		}
		if len(d) == 0 {
			d = []value.Value{value.Null()} // nothing to fill from
		}
		fills[k], sizes[k] = d, len(d)
		total *= len(d)
		if total > MaxChoiceAlternatives {
			return ImportGroup{}, fmt.Errorf(
				"relation: import: row %d expands to more than %d alternatives; clean the row or drop NULLS AS CHOICE",
				i+1, MaxChoiceAlternatives)
		}
	}
	rel := New(sch)
	base := b.Row(i)
	EachPick(sizes, func(pick []int) error {
		// Appending hands off ownership of the row, so each alternative
		// needs its own copy of the base tuple.
		row := append(tuple.Tuple(nil), base...)
		for k, j := range nullCols {
			row[j] = fills[k][pick[k]]
		}
		rel.MustAppend(row)
		return nil
	})
	probs := make([]float64, total)
	for a := range probs {
		probs[a] = 1 / float64(total)
	}
	return ImportGroup{Choice: true, Rel: rel, Probs: probs}, nil
}
