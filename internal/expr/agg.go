package expr

import (
	"fmt"
	"strings"

	"maybms/internal/value"
)

// AggKind names an aggregate function.
type AggKind uint8

// The supported aggregates.
const (
	AggCount AggKind = iota // count(expr) — non-NULL inputs
	AggCountStar
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String returns the SQL name.
func (k AggKind) String() string {
	switch k {
	case AggCount, AggCountStar:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return fmt.Sprintf("AggKind(%d)", uint8(k))
	}
}

// AggKindByName maps a lower-case SQL function name to its kind. ok is false
// for non-aggregate names.
func AggKindByName(name string) (AggKind, bool) {
	switch strings.ToLower(name) {
	case "count":
		return AggCount, true
	case "sum":
		return AggSum, true
	case "avg":
		return AggAvg, true
	case "min":
		return AggMin, true
	case "max":
		return AggMax, true
	default:
		return 0, false
	}
}

// AggSpec describes one aggregate call: the function, its argument (nil for
// count(*)), and whether DISTINCT was requested.
type AggSpec struct {
	Kind     AggKind
	Arg      Expr // nil for count(*)
	Distinct bool
}

// String renders the call.
func (s AggSpec) String() string {
	if s.Kind == AggCountStar {
		return "count(*)"
	}
	d := ""
	if s.Distinct {
		d = "distinct "
	}
	return fmt.Sprintf("%s(%s%s)", s.Kind, d, s.Arg)
}

// Accumulator folds values into an aggregate result. One accumulator is
// created per (group, aggregate) pair.
type Accumulator struct {
	spec    AggSpec
	seen    map[string]struct{} // distinct filter, lazily allocated
	count   int64
	sumI    int64
	sumF    float64
	isFloat bool
	minV    value.Value
	maxV    value.Value
	any     bool
}

// NewAccumulator creates an accumulator for the given aggregate spec.
func NewAccumulator(spec AggSpec) *Accumulator {
	a := &Accumulator{spec: spec}
	if spec.Distinct {
		a.seen = make(map[string]struct{})
	}
	return a
}

// Add folds the aggregate argument evaluated on ctx into the accumulator.
func (a *Accumulator) Add(ctx *Context) error {
	if a.spec.Kind == AggCountStar {
		a.count++
		return nil
	}
	v, err := a.spec.Arg.Eval(ctx)
	if err != nil {
		return err
	}
	return a.AddValue(v)
}

// AddStar counts one row for count(*) without evaluating an argument; it is
// the column-at-a-time equivalent of Add for AggCountStar specs.
func (a *Accumulator) AddStar() { a.count++ }

// AddValue folds an already evaluated argument value into the accumulator —
// the entry point for the vectorized aggregate, which evaluates argument
// columns batch-at-a-time and feeds cells in row order.
func (a *Accumulator) AddValue(v value.Value) error {
	if v.IsNull() {
		return nil // SQL aggregates skip NULLs
	}
	if a.seen != nil {
		k := string(v.Encode(nil))
		if _, dup := a.seen[k]; dup {
			return nil
		}
		a.seen[k] = struct{}{}
	}
	a.any = true
	a.count++
	switch a.spec.Kind {
	case AggCount:
	case AggSum, AggAvg:
		if !v.IsNumeric() {
			return fmt.Errorf("%w: %s over non-numeric value %v", ErrEval, a.spec.Kind, v)
		}
		switch {
		case a.isFloat:
			a.sumF += v.AsFloat()
		case v.Kind() == value.KindFloat:
			a.isFloat = true
			a.sumF = float64(a.sumI) + v.AsFloat()
			a.sumI = 0
		default:
			a.sumI += v.AsInt()
		}
	case AggMin:
		if !a.hasMin() || value.Compare(v, a.minV) < 0 {
			a.minV = v
		}
	case AggMax:
		if !a.hasMax() || value.Compare(v, a.maxV) > 0 {
			a.maxV = v
		}
	}
	return nil
}

func (a *Accumulator) hasMin() bool { return a.any && !a.minV.IsNull() }
func (a *Accumulator) hasMax() bool { return a.any && !a.maxV.IsNull() }

func (a *Accumulator) sum() float64 {
	if a.isFloat {
		return a.sumF
	}
	return float64(a.sumI)
}

// Result returns the aggregate value. Empty input yields NULL for
// sum/avg/min/max and 0 for count.
func (a *Accumulator) Result() value.Value {
	switch a.spec.Kind {
	case AggCount, AggCountStar:
		return value.Int(a.count)
	case AggSum:
		if !a.any {
			return value.Null()
		}
		if a.isFloat {
			return value.Float(a.sumF)
		}
		return value.Int(a.sumI)
	case AggAvg:
		if !a.any {
			return value.Null()
		}
		return value.Float(a.sum() / float64(a.count))
	case AggMin:
		if !a.any {
			return value.Null()
		}
		return a.minV
	case AggMax:
		if !a.any {
			return value.Null()
		}
		return a.maxV
	default:
		return value.Null()
	}
}
