package wsd

// EXPLAIN over the decomposition: render the routing decision selectClosure
// would run — the value of the same route function, obtained without
// executing, merging, or touching the world-set — and the compiled plan tree
// with per-table component annotations.

import (
	"fmt"
	"sort"
	"strings"
)

// closureName renders a closure for EXPLAIN output.
func closureName(cl closure) string {
	switch cl {
	case closurePossible:
		return "possible"
	case closureCertain:
		return "certain"
	case closureConf:
		return "conf"
	case closureApproxConf:
		return "approx conf"
	default:
		return "none"
	}
}

// explainQuery writes the plan and routing of a SELECT form taken apart by
// decide: the ASSERT applied first and the grouping, then the routing
// decision with the closure, and the compiled operator tree with component annotations on every table
// scan.
func (d *WSD) explainQuery(b *strings.Builder, sh shape) error {
	if sh.assert != nil {
		fmt.Fprintf(b, "assert: %s\n", sh.assert)
	}
	if sh.gw != nil {
		b.WriteString("group worlds by: yes\n")
	}
	prep, _, err := d.prepared(sh.core)
	if err != nil {
		return err
	}
	an, err := d.analyze(prep)
	if err != nil {
		return err
	}
	fmt.Fprintf(b, "route: %s\n", d.describeRoute(sh.core, an.Comps, d.route(sh.core, an, sh.cl, false)))
	fmt.Fprintf(b, "closure: %s\n", closureName(sh.cl))
	b.WriteString("plan:\n")
	tree := prep.ExplainTree(func(table string) string {
		comps := d.componentsFor(table)
		if len(comps) == 0 {
			return "[certain]"
		}
		return fmt.Sprintf("[components: %s]", intsBrief(comps))
	})
	for _, line := range strings.Split(strings.TrimRight(tree, "\n"), "\n") {
		b.WriteString("  " + line + "\n")
	}
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
