package algebra

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"maybms/internal/colbatch"
	"maybms/internal/expr"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/value"
)

// keyValues are the values on which a key encoding and SQL `=` can part:
// an int and the equal float, ±0, NaN, and ints around 2^53, where AsFloat
// maps 2^53 and 2^53+1 to one float.
var keyValues = []value.Value{
	value.Int(1), value.Float(1), value.Float(0), value.Float(math.Copysign(0, -1)), value.Int(0),
	value.Float(math.NaN()), value.Int(1<<53 + 1), value.Int(1 << 53), value.Float(1 << 53),
	value.Int(-(1<<53 + 1)), value.Float(-(1 << 53)),
}

// keyRelation builds (k0, …, id) rows for a join: ints-only key columns
// (which a columnar build side hashes by value) or keyValues mixed with
// strings, booleans and NULLs; row-backed or columnar.
func keyRelation(rng *rand.Rand, keys int, intsOnly bool) *relation.Relation {
	names := []string{"id"}
	for k := 0; k < keys; k++ {
		names = append(names, fmt.Sprintf("k%d", k))
	}
	rel := relation.New(schema.New(names...))
	wide := rng.Intn(3) == 0 // an int beyond 2^53 rules out hashing by value
	for i, n := 0, rng.Intn(60); i < n; i++ {
		t := []value.Value{value.Int(int64(i))}
		for k := 0; k < keys; k++ {
			var v value.Value
			switch {
			case intsOnly && rng.Intn(10) == 0:
				v = value.Null()
			case intsOnly && rng.Intn(10) == 0:
				v = value.Int(1 << 53)
				if wide {
					v = value.Int(1<<53 + 1)
				}
			case intsOnly:
				v = value.Int(int64(rng.Intn(4)))
			default:
				switch rng.Intn(6) {
				case 0:
					v = value.Null()
				case 1:
					v = []value.Value{value.Str("1"), value.Str("a"), value.Bool(true)}[rng.Intn(3)]
				case 2, 3:
					v = keyValues[rng.Intn(len(keyValues))]
				default:
					v = value.Int(int64(rng.Intn(4)))
				}
			}
			t = append(t, v)
		}
		rel.MustAppend(t)
	}
	if rng.Intn(2) == 0 {
		return relation.FromBatch(colbatch.FromRows(rel.Schema, rel.Rows()))
	}
	return rel
}

// TestHashJoinKeysAreSQLEquality: a hash join pairs exactly the rows SQL `=`
// pairs. Over random key columns mixing int, float, string, NULL, NaN, ±0 and
// 2^53+1, on one and two keys, the reference HashJoin, the HashJoin and the
// cross join filtered by `=` must give the same rows in the same order —
// with the build side hashed by value (an exact int key column) and by
// canonical encoding, probed by row-backed and columnar batches.
func TestHashJoinKeysAreSQLEquality(t *testing.T) {
	t.Parallel()
	modes := map[bool]int{}
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keys := 1 + rng.Intn(2)
		l := keyRelation(rng, keys, rng.Intn(2) == 0)
		r := keyRelation(rng, keys, rng.Intn(2) == 0)
		lk, rk := make([]int, keys), make([]int, keys)
		var pred expr.Expr
		for k := range lk {
			lk[k], rk[k] = 1+k, 1+k
			eq := expr.Cmp{Op: expr.CmpEq, L: expr.Column{Index: lk[k]}, R: expr.Column{Index: l.Schema.Len() + rk[k]}}
			if pred == nil {
				pred = eq
			} else {
				pred = expr.And{L: pred, R: eq}
			}
		}
		join := func() Operator { return &HashJoin{Left: NewScan(l), Right: NewScan(r), LeftKeys: lk, RightKeys: rk} }

		want := renderResult(collectReference(&Filter{Child: &CrossJoin{Left: NewScan(l), Right: NewScan(r)}, Pred: pred}, nil))
		if got := renderResult(collectReference(join(), nil)); got != want {
			t.Fatalf("seed %d: reference HashJoin differs from the filtered cross join\nleft:\n%sright:\n%sgot:\n%s\nwant:\n%s", seed, l, r, got, want)
		}
		if got := renderResult(Collect(join(), nil)); got != want {
			t.Fatalf("seed %d: HashJoin differs from the filtered cross join\nleft:\n%sright:\n%sgot:\n%s\nwant:\n%s", seed, l, r, got, want)
		}
		build, err := drain(NewScan(r), nil)
		if err != nil {
			t.Fatal(err)
		}
		modes[newJoinTable(build, rk).intMode]++
	}
	if modes[true] == 0 || modes[false] == 0 {
		t.Fatalf("build sides hashed by value %d times, by encoding %d times: want both", modes[true], modes[false])
	}
}
