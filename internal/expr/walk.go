package expr

import "fmt"

// Walk calls visit on e and then, when visit returns true, walks e's
// operands in written order. A subquery is opaque: Walk visits the node
// that holds it (Exists, In, Scalar), never the query behind it.
func Walk(e Expr, visit func(Expr) bool) {
	if !visit(e) {
		return
	}
	switch n := e.(type) {
	case Const, Column, Exists, Scalar:
	case Cmp:
		Walk(n.L, visit)
		Walk(n.R, visit)
	case And:
		Walk(n.L, visit)
		Walk(n.R, visit)
	case Or:
		Walk(n.L, visit)
		Walk(n.R, visit)
	case Arith:
		Walk(n.L, visit)
		Walk(n.R, visit)
	case Not:
		Walk(n.E, visit)
	case Neg:
		Walk(n.E, visit)
	case IsNull:
		Walk(n.E, visit)
	case In:
		Walk(n.Left, visit)
		for _, item := range n.List {
			Walk(item, visit)
		}
	default:
		panic(fmt.Sprintf("expr: Walk over unknown kind %T", e))
	}
}

// Map rebuilds e bottom-up: it maps e's operands, rebuilds e around those
// that changed, then calls f on the result. f returns the node's
// replacement and whether it differs from its argument. Map reports
// changed = false, and returns e itself, when neither f nor any operand
// changed anything, so a tree f leaves alone is shared and costs no
// allocation. Like Walk, Map never enters a subquery.
func Map(e Expr, f func(Expr) (Expr, bool, error)) (Expr, bool, error) {
	var changed bool
	var err error
	switch n := e.(type) {
	case Const, Column, Exists, Scalar:
	case Cmp:
		if n.L, n.R, changed, err = mapPair(n.L, n.R, f); changed {
			e = n
		}
	case And:
		if n.L, n.R, changed, err = mapPair(n.L, n.R, f); changed {
			e = n
		}
	case Or:
		if n.L, n.R, changed, err = mapPair(n.L, n.R, f); changed {
			e = n
		}
	case Arith:
		if n.L, n.R, changed, err = mapPair(n.L, n.R, f); changed {
			e = n
		}
	case Not:
		if n.E, changed, err = Map(n.E, f); changed {
			e = n
		}
	case Neg:
		if n.E, changed, err = Map(n.E, f); changed {
			e = n
		}
	case IsNull:
		if n.E, changed, err = Map(n.E, f); changed {
			e = n
		}
	case In:
		var listChanged bool
		if n.Left, changed, err = Map(n.Left, f); err == nil {
			n.List, listChanged, err = MapList(n.List, f)
		}
		if changed = changed || listChanged; changed {
			e = n
		}
	default:
		panic(fmt.Sprintf("expr: Map over unknown kind %T", e))
	}
	if err != nil {
		return nil, false, err
	}
	out, replaced, err := f(e)
	if err != nil {
		return nil, false, err
	}
	return out, changed || replaced, nil
}

func mapPair(l, r Expr, f func(Expr) (Expr, bool, error)) (Expr, Expr, bool, error) {
	l, cl, err := Map(l, f)
	if err != nil {
		return nil, nil, false, err
	}
	r, cr, err := Map(r, f)
	if err != nil {
		return nil, nil, false, err
	}
	return l, r, cl || cr, nil
}

// MapList maps every expression of list through Map. It returns list
// itself when nothing changed, and otherwise a copy holding the changed
// expressions.
func MapList(list []Expr, f func(Expr) (Expr, bool, error)) ([]Expr, bool, error) {
	out, changed := list, false
	for i, x := range list {
		nx, c, err := Map(x, f)
		if err != nil {
			return nil, false, err
		}
		if c && !changed {
			out, changed = append([]Expr(nil), list...), true
		}
		if c {
			out[i] = nx
		}
	}
	return out, changed, nil
}
