package wsd

// EXPLAIN over the decomposition: Predict (exec.go) renders the route
// decision Run would note — the value of the same route function, obtained
// without executing or changing the world-set; a split's decision reads its
// source's keys, and for a query source stored componentwise the evaluated
// parts — and this file the compiled plan tree with per-table component
// annotations.

import (
	"fmt"
	"sort"
	"strings"
)

// explainPlan writes the closure of a SELECT form taken apart by decide and
// its compiled operator tree, with component annotations on every table scan.
func (d *WSD) explainPlan(b *strings.Builder, sh shape) error {
	prep, _, err := d.prepared(sh.Core)
	if err != nil {
		return err
	}
	sh.Explain(b, prep.ExplainTree(func(table string) string {
		comps := d.componentsFor(table)
		if len(comps) == 0 {
			return "[certain]"
		}
		return fmt.Sprintf("[components: %s]", intsBrief(comps))
	}))
	return nil
}

// altsBrief summarizes per-component alternative counts, e.g. "2+2+3".
func (d *WSD) altsBrief(comps []int) string {
	parts := make([]string, 0, len(comps))
	for _, ci := range comps {
		parts = append(parts, fmt.Sprintf("%d", len(d.comps[ci].Alts)))
	}
	return strings.Join(parts, "+")
}

func intsBrief(xs []int) string {
	s := append([]int(nil), xs...)
	sort.Ints(s)
	parts := make([]string, len(s))
	for i, x := range s {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return strings.Join(parts, " ")
}
