package wsd

// The per-alternative evaluation that the tagged one replaced, kept as its
// oracle (as internal/algebra's oracle_test.go keeps the row operators):
// Q(cert) once, then the delta once per alternative of each listed
// component, each over a catalog that lists that one alternative — 1 + Σ
// sizes plan runs. checkTaggedParts runs a query both ways; the suites'
// helpers (checkDeltaParts, selectExplained, crosscheckClosures and the
// GROUP WORLDS fuzz) call it on every decomposable query they run.

import (
	"fmt"
	"strings"
	"testing"

	"maybms/internal/colbatch"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/sqlparse"
	"maybms/internal/value"
	"maybms/internal/world"
)

// alternativeCatalog is a plan.PartsCatalog listing the one alternative a
// of component ci, its contribution tagged 0 (ci < 0 lists none).
type alternativeCatalog struct {
	d     *WSD
	ci, a int
}

func (ac alternativeCatalog) Certain(name string) (*relation.Relation, error) {
	return deltaCatalog{d: ac.d}.Certain(name)
}

func (ac alternativeCatalog) Delta(name string) (*relation.Relation, error) {
	k := key(name)
	sch, ok := ac.d.schemas[k]
	if !ok {
		return nil, fmt.Errorf("%w: %s", world.ErrUnknown, name)
	}
	if ac.ci < 0 {
		return nil, nil
	}
	c := ac.d.comps[ac.ci].Alts[ac.a].Contrib[k]
	if c.Len() == 0 {
		return nil, nil
	}
	b := c.Batch().WithSchema(sch)
	return relation.FromBatch(b.Extend(plan.Tagged(sch), colbatch.Col{Kind: value.KindInt, Ints: make([]int64, c.Len())})), nil
}

// queryByAlternative is the oracle: the parts of query over the listed
// components from 1 + Σ sizes evaluations, in component and alternative
// order, each delta untagged (and checked to carry its one tag only).
func (d *WSD) queryByAlternative(compIdx []int, query partQuery) (*componentParts, error) {
	base, err := query(alternativeCatalog{d: d, ci: -1}, false)
	if err != nil {
		return nil, err
	}
	p := &componentParts{idx: compIdx, base: base}
	w := base.Schema.Len()
	for _, ci := range compIdx {
		for a := range d.comps[ci].Alts {
			if err := d.interrupted(); err != nil {
				return nil, err
			}
			delta, err := query(alternativeCatalog{d: d, ci: ci, a: a}, true)
			if err != nil {
				return nil, err
			}
			if delta.Len() == 0 {
				continue
			}
			for r, col := 0, delta.Col(w); r < delta.Len(); r++ {
				if tag := col.Value(r).AsInt(); tag != 0 {
					return nil, fmt.Errorf("delta of (%d,%d) row %d tagged %d", ci, a, r, tag)
				}
			}
			p.parts = append(p.parts, part{ci: ci, a: a, rows: whole(delta.Project(columnRange(w), base.Schema))})
		}
	}
	return p, nil
}

// batchKeys renders a batch row for row, in order, as tuple keys.
func batchKeys(b *colbatch.Batch) string {
	var sb strings.Builder
	var key []byte
	for r := 0; r < b.Len(); r++ {
		key = b.AppendKey(key[:0], r)
		fmt.Fprintf(&sb, "%q\n", key)
	}
	return sb.String()
}

// checkTaggedParts runs a decomposable core both ways over the whole trees it
// touches and asserts that the tagged evaluation's certain-only answer and
// the part of every listed (component, alternative) — a missing one counted
// as empty — equal the oracle's row for row, in order (the fold lists
// answers in first-appearance order), and, when the plan is Concat, that a
// componentwise CREATE TABLE AS stores byte-identical contributions in the
// same form. The decomposition is left as it was.
func checkTaggedParts(t *testing.T, label string, d *WSD, core *sqlparse.SelectStmt) {
	t.Helper()
	prep, ev, err := d.prepared(core)
	if err != nil {
		return // the statement's own run reports it
	}
	an, err := d.analyze(prep)
	if err != nil || !an.Decomposable || len(an.Comps) == 0 {
		return
	}
	comps := d.rootClosure(an.Comps)
	tagged, err := d.queryByComponent(comps, ev.part, nil)
	if err != nil {
		t.Fatalf("%s %q tagged: %v", label, core, err)
	}
	oracle, err := d.queryByAlternative(comps, ev.part)
	if err != nil {
		t.Fatalf("%s %q oracle: %v", label, core, err)
	}
	if got, want := batchKeys(tagged.base), batchKeys(oracle.base); got != want {
		t.Errorf("%s %q: certain-only answers differ:\n%s\nwant:\n%s", label, core, got, want)
	}
	for _, ci := range comps {
		for a := range d.comps[ci].Alts {
			got, want := tagged.part(ci, a).batch(), oracle.part(ci, a).batch()
			if (got == nil) != (want == nil) || batchKeys(got) != batchKeys(want) {
				t.Errorf("%s %q part (%d,%d): tagged\n%s\nwant (one evaluation per alternative):\n%s",
					label, core, ci, a, batchKeys(got), batchKeys(want))
			}
		}
	}
	if !an.Concat {
		return
	}
	stored := func(p *componentParts) string {
		restore := d.Snapshot()
		defer restore()
		if err := d.materializeByComponent("__oracle__", p); err != nil {
			t.Fatalf("%s %q: store: %v", label, core, err)
		}
		var sb strings.Builder
		k := key("__oracle__")
		if cert := d.certain[k]; cert != nil {
			fmt.Fprintf(&sb, "certain %s\n%s", cert.Schema, batchKeys(cert.Batch()))
		}
		for _, ci := range comps {
			for a, alt := range d.comps[ci].Alts {
				if c := alt.Contrib[k]; c != nil {
					fmt.Fprintf(&sb, "(%d,%d) %s rows=%v\n%s", ci, a, c.Schema, c.Batch().RowBacked(), batchKeys(c.Batch()))
				}
			}
		}
		return sb.String()
	}
	if got, want := stored(tagged), stored(oracle); got != want {
		t.Errorf("%s %q: componentwise CREATE TABLE AS stores\n%s\nwant:\n%s", label, core, got, want)
	}
}
