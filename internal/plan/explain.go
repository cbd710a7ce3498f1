package plan

import (
	"fmt"
	"strings"

	"maybms/internal/algebra"
	"maybms/internal/schema"
)

// explainOp renders an operator tree for EXPLAIN: one node per line,
// children indented two spaces. Planner table scans print their catalog
// name; annotate (optional) returns extra text appended to a table scan's
// line — the WSD executor uses it for per-table component annotations.
//
// The renderer understands every operator the planner emits; an operator
// added without a case here still renders, as its Go type name.
func explainOp(op algebra.Operator, annotate func(table string) string) string {
	var b strings.Builder
	explainNode(&b, op, 0, annotate)
	return b.String()
}

// ExplainTree renders the compiled template's operator tree.
func (p *Prepared) ExplainTree(annotate func(table string) string) string {
	return explainOp(p.op, annotate)
}

func explainNode(b *strings.Builder, op algebra.Operator, depth int, annotate func(string) string) {
	indent := strings.Repeat("  ", depth)
	switch n := op.(type) {
	case *tableScan:
		fmt.Fprintf(b, "%sScan %s", indent, n.table)
		if annotate != nil {
			if extra := annotate(n.table); extra != "" {
				fmt.Fprintf(b, " %s", extra)
			}
		}
		b.WriteByte('\n')
	case *inputScan:
		fmt.Fprintf(b, "%sScan <input>\n", indent)
	case *algebra.Scan:
		fmt.Fprintf(b, "%sScan %s\n", indent, schemaBrief(n.Schema()))
	case *algebra.Filter:
		fmt.Fprintf(b, "%sFilter %s\n", indent, n.Pred)
		explainNode(b, n.Child, depth+1, annotate)
	case *algebra.Project:
		cols := make([]string, 0, len(n.Exprs))
		for _, e := range n.Exprs {
			cols = append(cols, e.String())
		}
		fmt.Fprintf(b, "%sProject [%s]\n", indent, strings.Join(cols, ", "))
		explainNode(b, n.Child, depth+1, annotate)
	case *algebra.CrossJoin:
		fmt.Fprintf(b, "%sCrossJoin\n", indent)
		explainNode(b, n.Left, depth+1, annotate)
		explainNode(b, n.Right, depth+1, annotate)
	case *algebra.HashJoin:
		fmt.Fprintf(b, "%sHashJoin %s\n", indent, joinKeys(n))
		explainNode(b, n.Left, depth+1, annotate)
		explainNode(b, n.Right, depth+1, annotate)
	case *algebra.Aggregate:
		specs := make([]string, 0, len(n.Specs))
		for _, s := range n.Specs {
			specs = append(specs, s.String())
		}
		group := ""
		if len(n.GroupBy) > 0 {
			group = fmt.Sprintf(" group=%v", n.GroupBy)
		}
		fmt.Fprintf(b, "%sAggregate [%s]%s\n", indent, strings.Join(specs, ", "), group)
		explainNode(b, n.Child, depth+1, annotate)
	case *algebra.Distinct:
		fmt.Fprintf(b, "%sDistinct\n", indent)
		explainNode(b, n.Child, depth+1, annotate)
	case *algebra.Union:
		fmt.Fprintf(b, "%sUnion\n", indent)
		explainNode(b, n.Left, depth+1, annotate)
		explainNode(b, n.Right, depth+1, annotate)
	case *algebra.Sort:
		keys := make([]string, 0, len(n.Keys))
		for _, k := range n.Keys {
			dir := "asc"
			if k.Desc {
				dir = "desc"
			}
			keys = append(keys, fmt.Sprintf("%d %s", k.Index, dir))
		}
		fmt.Fprintf(b, "%sSort [%s]\n", indent, strings.Join(keys, ", "))
		explainNode(b, n.Child, depth+1, annotate)
	case *algebra.Limit:
		fmt.Fprintf(b, "%sLimit %d\n", indent, n.N)
		explainNode(b, n.Child, depth+1, annotate)
	default:
		fmt.Fprintf(b, "%s%T\n", indent, op)
	}
}

// joinKeys renders a HashJoin's key pairs as the WHERE conjuncts they came
// from, columns named by their FROM bindings.
func joinKeys(j *algebra.HashJoin) string {
	l, r := j.Left.Schema(), j.Right.Schema()
	parts := make([]string, 0, len(j.LeftKeys))
	for i := range j.LeftKeys {
		parts = append(parts, l.At(j.LeftKeys[i]).String()+" = "+r.At(j.RightKeys[i]).String())
	}
	return "(" + strings.Join(parts, " AND ") + ")"
}

// schemaBrief summarizes a bare scan's schema as its column list.
func schemaBrief(s *schema.Schema) string {
	cols := make([]string, 0, s.Len())
	for i := 0; i < s.Len(); i++ {
		cols = append(cols, s.At(i).Name)
	}
	return "(" + strings.Join(cols, ", ") + ")"
}
