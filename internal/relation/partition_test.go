package relation

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"maybms/internal/colbatch"
	"maybms/internal/schema"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

// TestPartitionBy groups rows by key in first-appearance order, rows
// ascending within a group, over both batch forms and over a row subset.
func TestPartitionBy(t *testing.T) {
	sch := schema.New("A", "B")
	var rows []tuple.Tuple
	for i := 0; i < 2*colbatch.Floor; i++ {
		rows = append(rows, row(fmt.Sprint("a", i%3), i))
	}
	for _, n := range []int{5, len(rows)} {
		b := colbatch.FromRows(sch, append([]tuple.Tuple(nil), rows[:n]...))
		p := PartitionBy(b, []int{0}, nil)
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		if got, want := fmt.Sprint(partitionGroups(p)), fmt.Sprint(refGroups(b, []int{0}, all)); got != want {
			t.Errorf("%d rows: groups %s, want %s", n, got, want)
		}
		if p.Len() != 3 || p.Group(0)[0] != 0 || p.Group(2)[0] != 2 {
			t.Errorf("%d rows: %d groups, first rows %v", n, p.Len(), p.Start)
		}
		subset := []int32{1, 2, 4}
		p = PartitionBy(b, []int{0}, subset)
		if got := fmt.Sprint(partitionGroups(p)); got != "[[1 4] [2]]" {
			t.Errorf("%d rows: subset groups %s", n, got)
		}
	}
	if p := PartitionBy(colbatch.New(sch), []int{0}, nil); p.Len() != 0 || len(p.Rows) != 0 {
		t.Errorf("empty batch: %d groups", p.Len())
	}
}

// TestPartitionIdentity pins PartitionBy's key identity where a typed hash
// could drift from the byte key (refGroups, over value.Encode): an INTEGER
// and the equal FLOAT differ, +0.0 and -0.0 differ, a NaN is equal to a NaN
// of the same bits only, NULL equals NULL, a mixed-kind column keys by kind
// and payload, and a two-column key by both. Each case runs in row form and
// columnar, with the real hash and with one that makes every key collide,
// so that the chain of a hash's groups decides every group.
func TestPartitionIdentity(t *testing.T) {
	i, f, s, null := value.Int, value.Float, value.Str, value.Null()
	nan, otherNaN := math.NaN(), math.Float64frombits(math.Float64bits(math.NaN())^1)
	for _, c := range []struct {
		name   string
		rows   []tuple.Tuple
		cols   []int
		groups int
	}{
		{"int and float", []tuple.Tuple{{i(1)}, {f(1)}, {i(1)}, {f(1)}}, []int{0}, 2},
		{"signed zeros", []tuple.Tuple{{f(0)}, {f(math.Copysign(0, -1))}, {f(0)}}, []int{0}, 2},
		{"NaN bits", []tuple.Tuple{{f(nan)}, {f(nan)}, {f(otherNaN)}, {f(nan)}}, []int{0}, 2},
		{"NULL keys", []tuple.Tuple{{null}, {i(3)}, {null}, {i(3)}, {null}}, []int{0}, 2},
		{"mixed kinds", []tuple.Tuple{{i(1)}, {s("1")}, {value.Bool(true)}, {null}, {f(1)}, {s("1")}, {null}, {i(1)}}, []int{0}, 5},
		{"two columns", []tuple.Tuple{{s("a"), i(1)}, {s("a"), i(2)}, {s("b"), i(1)}, {s("a"), i(1)}, {null, i(1)}, {null, i(1)}, {s("b"), null}}, []int{0, 1}, 5},
	} {
		t.Cleanup(func() { hashKeys = (*colbatch.Batch).HashKeysOn })
		names := []string{"A", "B"}[:len(c.rows[0])]
		for _, collide := range []bool{false, true} {
			if collide {
				hashKeys = func(_ *colbatch.Batch, _ []int, _ []int32, hashes []uint64) {
					for k := range hashes {
						hashes[k] = 7
					}
				}
			}
			for _, n := range []int{len(c.rows), 4 * colbatch.Floor} {
				rows := make([]tuple.Tuple, n)
				for r := range rows {
					rows[r] = c.rows[r%len(c.rows)]
				}
				b := colbatch.FromRows(schema.New(names...), rows)
				all := make([]int32, n)
				for r := range all {
					all[r] = int32(r)
				}
				want := refGroups(b, c.cols, all)
				if got := partitionGroups(PartitionBy(b, c.cols, nil)); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s, %d rows, collide %v: groups %v, want %v", c.name, n, collide, got, want)
				}
				if len(want) != c.groups {
					t.Errorf("%s: reference has %d groups, want %d", c.name, len(want), c.groups)
				}
			}
			hashKeys = (*colbatch.Batch).HashKeysOn
		}
	}
}

// TestWeights pins the weight rule's error texts and the shares it gives.
func TestWeights(t *testing.T) {
	b := colbatch.FromRows(schema.New("W"), []tuple.Tuple{
		row(2), row(6), row(-5), row("oops"), row(0), row(math.Inf(1)), row(1e308), row(1e308),
	})
	for _, c := range []struct {
		row  int32
		want string
	}{
		{2, "weight value -5 must be positive"},
		{3, "weight value oops is not numeric"},
		{4, "weight value 0 must be positive"},
		{5, "weight value +Inf must be finite"},
	} {
		_, err := Weights(b, []int32{0, c.row}, 0)
		if err == nil || err.Error() != c.want {
			t.Errorf("row %d: err = %v, want %q", c.row, err, c.want)
		} else if err.(*WeightError).Row != int(c.row) {
			t.Errorf("row %d: error names row %d", c.row, err.(*WeightError).Row)
		}
	}
	w, err := Weights(b, []int32{0, 1}, 0)
	if err != nil || fmt.Sprint(Normalize(w)) != "[0.25 0.75]" {
		t.Errorf("shares = %v, %v", w, err)
	}
	if w, _ = Weights(b, []int32{0, 1, 2}, -1); fmt.Sprint(Normalize(w)) != fmt.Sprint([]float64{1. / 3, 1. / 3, 1. / 3}) {
		t.Errorf("uniform shares = %v", w)
	}
	// Weights whose sum overflows still share evenly.
	if w, _ = Weights(b, []int32{6, 7}, 0); fmt.Sprint(Normalize(w)) != "[0.5 0.5]" {
		t.Errorf("overflowing shares = %v", w)
	}
}

// TestEachPick enumerates a product of group sizes, last group fastest.
func TestEachPick(t *testing.T) {
	var got []string
	EachPick([]int{2, 3}, func(pick []int) error {
		got = append(got, fmt.Sprint(pick))
		return nil
	})
	if want := "[[0 0] [0 1] [0 2] [1 0] [1 1] [1 2]]"; fmt.Sprint(got) != want {
		t.Errorf("picks = %v, want %s", got, want)
	}
	n := 0
	EachPick(nil, func([]int) error { n++; return nil })
	if n != 1 {
		t.Errorf("no groups make %d picks, want 1", n)
	}
}

// loadCSVSeeds are FuzzLoadCSV's seeds, each a file and its opts, and
// FuzzReadCSV's files: the paper's Figure 1 and the examples' tables, with
// conflicts, NULLs and bad weights.
var loadCSVSeeds = []struct {
	csv  string
	opts uint8
}{
	{"A,B,C,D\na1,10,c1,2\na1,15,c2,6\na2,14,c3,4\na2,20,c4,5\na3,20,c5,6\n", 6},
	{"WID,Id,Species,Gender,Pos\nA,1,sperm,calf,b\nA,2,sperm,cow,c\nA,3,orca,cow,a\nB,1,sperm,calf,b\nB,3,orca,bull,a\n", 2},
	{"K,V,W\nk1,1,1\nk1,2,3\nk2,7,1\nk2,9,1\n", 6},
	{"PID,Status,W\n0,married,2\n0,single,1\n1,single,1\n2,,1\n", 7},
	{"SSN,TEL\n123,456\n789,123\n123,\n", 11},
	{"A,B,W\na1,10,1\na1,20,3\na2,5,2\na3,,1\n", 7},
	{"K,V,W\na,1,1\na,2,2\nb,3,-5\nc,4,oops\n", 6},
	{"K,V,W\na,1,+Inf\na,2,1e308\na,3,1e308\n", 6},
}

// FuzzLoadCSV loads any CSV under any import options and checks the plan
// against a map-based reference classification: every row lands exactly
// once, in Certain (in row order) or in one group; groups are in first-row
// order; each group's Probs sum to 1; the key partition equals the
// reference grouping; and the load fails on a bad weight exactly when some
// repair-input row has one. opts bit 0 is NULLS AS CHOICE, bit 1 keys on the
// first column, bit 3 on the first two, and bit 2 weighs a keyed import by
// the last column.
func FuzzLoadCSV(f *testing.F) {
	for _, s := range loadCSVSeeds {
		f.Add(s.csv, s.opts)
	}
	f.Fuzz(func(t *testing.T, csv string, opts uint8) {
		rel, err := ReadCSV(strings.NewReader(csv))
		if err != nil {
			return
		}
		b := rel.Batch()
		sch := rel.Schema
		names := sch.Names()
		var o ImportOptions
		o.NullsChoice = opts&1 != 0
		switch {
		case opts&8 != 0 && sch.Len() >= 2:
			o.RepairKey = names[:2]
		case opts&2 != 0:
			o.RepairKey = names[:1]
		}
		if opts&4 != 0 && o.RepairKey != nil { // WEIGHT belongs to REPAIR KEY
			o.Weight = names[len(names)-1]
		}
		plan, loadErr := LoadCSV(strings.NewReader(csv), o)
		keyIdx, err := sch.IndexesOf(o.RepairKey)
		weightIdx := -1
		if err == nil && o.Weight != "" {
			weightIdx, err = sch.Resolve("", o.Weight)
		}
		if err != nil {
			if loadErr == nil {
				t.Fatalf("load accepted options the schema rejects: %v", err)
			}
			return
		}

		// The reference: choice rows, then key groups among the others.
		n := b.Len()
		choice := make([]bool, n)
		input := []int32{}
		for i := 0; i < n; i++ {
			choice[i] = o.NullsChoice && hasNull(b.Row(i))
			if !choice[i] {
				input = append(input, int32(i))
			}
		}
		var groups [][]int32
		if len(keyIdx) > 0 {
			groups = refGroups(b, keyIdx, input)
			subset := input
			if !o.NullsChoice {
				subset = nil
			}
			if got, want := fmt.Sprint(partitionGroups(PartitionBy(b, keyIdx, subset))), fmt.Sprint(groups); got != want {
				t.Fatalf("partition %s, reference %s", got, want)
			}
		}
		badRow := -1
		if len(keyIdx) > 0 && weightIdx >= 0 {
		find:
			for _, g := range groups {
				for _, r := range g {
					v := b.At(int(r), weightIdx)
					if !v.IsNumeric() || v.AsFloat() <= 0 || math.IsInf(v.AsFloat(), 1) {
						badRow = int(r)
						break find
					}
				}
			}
		}
		if loadErr != nil {
			switch {
			case badRow >= 0:
				if want := fmt.Sprintf("relation: import: row %d: weight value", badRow+1); !strings.HasPrefix(loadErr.Error(), want) {
					t.Fatalf("load error %q, want a weight error on row %d", loadErr, badRow+1)
				}
			case !strings.Contains(loadErr.Error(), "alternatives"):
				t.Fatalf("load failed: %v", loadErr)
			}
			return
		}
		if badRow >= 0 {
			t.Fatalf("load accepted the bad weight on row %d", badRow+1)
		}

		// Walk the rows in order: each choice row and each conflicting key
		// group (at its first row) is the next group; a lone row is the
		// next certain row.
		groupOf := map[int32][]int32{}
		for _, g := range groups {
			groupOf[g[0]] = g
		}
		var certain []int32
		next := 0
		nextGroup := func() ImportGroup {
			if next >= len(plan.Groups) {
				t.Fatalf("plan has %d groups, reference more", len(plan.Groups))
			}
			next++
			g := plan.Groups[next-1]
			sum := 0.0
			for _, p := range g.Probs {
				sum += p
			}
			if len(g.Probs) != g.Rel.Len() || math.Abs(sum-1) > 1e-9 {
				t.Fatalf("group %d: %d probs over %d alternatives, sum %g", next-1, len(g.Probs), g.Rel.Len(), sum)
			}
			return g
		}
		for i := 0; i < n; i++ {
			r := int32(i)
			switch g, first := groupOf[r]; {
			case choice[i]:
				pg := nextGroup()
				if !pg.Choice {
					t.Fatalf("row %d: plan group is not a choice", i+1)
				}
				for _, alt := range pg.Rel.Rows() {
					for j, v := range b.Row(i) {
						if !v.IsNull() && !bytes.Equal(v.Encode(nil), alt[j].Encode(nil)) {
							t.Fatalf("row %d: alternative %v does not extend %v", i+1, alt, b.Row(i))
						}
					}
				}
			case len(keyIdx) == 0 || (first && len(g) == 1):
				certain = append(certain, r)
			case first:
				pg := nextGroup()
				if pg.Choice || !sameRows(pg.Rel.Batch(), b, g) {
					t.Fatalf("row %d: plan group %v, want rows %v", i+1, pg.Rel.Rows(), g)
				}
			}
		}
		if next != len(plan.Groups) {
			t.Fatalf("plan has %d groups, reference %d", len(plan.Groups), next)
		}
		if !sameRows(plan.Certain.Batch(), b, certain) {
			t.Fatalf("certain %v, want rows %v", plan.Certain.Rows(), certain)
		}
	})
}

// refGroups is the map-based reference grouping of the rows subset of b by
// cols: groups in first-appearance order.
func refGroups(b *colbatch.Batch, cols []int, subset []int32) [][]int32 {
	index := map[string]int{}
	var groups [][]int32
	for _, r := range subset {
		k := string(b.Row(int(r)).EncodeOn(nil, cols))
		g, ok := index[k]
		if !ok {
			g = len(groups)
			index[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], r)
	}
	return groups
}

func partitionGroups(p Partition) [][]int32 {
	out := make([][]int32, p.Len())
	for g := range out {
		out[g] = p.Group(g)
	}
	return out
}

// sameRows reports whether got holds the rows sel of b, in order.
func sameRows(got, b *colbatch.Batch, sel []int32) bool {
	if got.Len() != len(sel) {
		return false
	}
	for i, r := range sel {
		if !bytes.Equal(got.AppendKey(nil, i), b.AppendKey(nil, int(r))) {
			return false
		}
	}
	return true
}

func hasNull(t tuple.Tuple) bool {
	for _, v := range t {
		if v.IsNull() {
			return true
		}
	}
	return false
}
