package relation

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"maybms/internal/value"
)

func loadPlan(t *testing.T, csv string, opts ImportOptions) *ImportPlan {
	t.Helper()
	p, err := LoadCSV(strings.NewReader(csv), opts)
	if err != nil {
		t.Fatalf("LoadCSV: %v", err)
	}
	return p
}

func TestImportAllCertain(t *testing.T) {
	p := loadPlan(t, "A,B\n1,x\n2,y\n", ImportOptions{})
	if p.Certain.Len() != 2 || len(p.Groups) != 0 {
		t.Fatalf("plan = %d certain, %d groups", p.Certain.Len(), len(p.Groups))
	}
	// Certain-only plans keep the loaded batch itself — no copy.
	if p.Certain.Batch().RowBacked() {
		t.Error("certain part must stay columnar")
	}
	if p.WorldCount(100) != 1 {
		t.Errorf("world count = %d", p.WorldCount(100))
	}
}

func TestImportRepairKeyGroups(t *testing.T) {
	csv := "K,V,W\na,1,1\nb,2,1\na,3,3\nc,4,2\nb,5,1\n"
	p := loadPlan(t, csv, ImportOptions{RepairKey: []string{"K"}, Weight: "W"})
	// c is the only key without a conflict.
	if p.Certain.Len() != 1 || p.Certain.Rows()[0][0].AsStr() != "c" {
		t.Fatalf("certain = %v", p.Certain.Rows())
	}
	if len(p.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(p.Groups))
	}
	// Groups appear in first-row order: a's group before b's.
	ga, gb := p.Groups[0], p.Groups[1]
	if ga.Choice || gb.Choice {
		t.Error("repair groups must not be choice groups")
	}
	if ga.Rel.Rows()[0][0].AsStr() != "a" || gb.Rel.Rows()[0][0].AsStr() != "b" {
		t.Fatalf("group order: %v then %v", ga.Rel.Rows(), gb.Rel.Rows())
	}
	// a's weights 1 and 3 → probs 0.25, 0.75; b's uniform (1,1) → 0.5 each.
	if math.Abs(ga.Probs[0]-0.25) > 1e-12 || math.Abs(ga.Probs[1]-0.75) > 1e-12 {
		t.Errorf("weighted probs = %v", ga.Probs)
	}
	if math.Abs(gb.Probs[0]-0.5) > 1e-12 {
		t.Errorf("uniform probs = %v", gb.Probs)
	}
	if p.WorldCount(100) != 4 {
		t.Errorf("world count = %d, want 4", p.WorldCount(100))
	}
}

func TestImportNullsChoice(t *testing.T) {
	csv := "A,B\nx,1\ny,2\nz,\n"
	p := loadPlan(t, csv, ImportOptions{NullsChoice: true})
	if p.Certain.Len() != 2 || len(p.Groups) != 1 {
		t.Fatalf("plan = %d certain, %d groups", p.Certain.Len(), len(p.Groups))
	}
	g := p.Groups[0]
	if !g.Choice {
		t.Error("NULL row must form a choice group")
	}
	// B's active domain is {1, 2} in first-appearance order.
	rows := g.Rel.Rows()
	if len(rows) != 2 || rows[0][1].AsInt() != 1 || rows[1][1].AsInt() != 2 {
		t.Fatalf("choice alternatives = %v", rows)
	}
	for _, a := range rows {
		if a[0].AsStr() != "z" {
			t.Errorf("non-NULL cell changed: %v", a)
		}
	}
	if math.Abs(g.Probs[0]-0.5) > 1e-12 || math.Abs(g.Probs[1]-0.5) > 1e-12 {
		t.Errorf("choice probs = %v", g.Probs)
	}
}

func TestImportNullsChoiceCrossProduct(t *testing.T) {
	// Two NULL cells in one row: alternatives are the cross product of the
	// column domains, the last NULL column varying fastest.
	csv := "A,B\nx,1\ny,2\n,\n"
	p := loadPlan(t, csv, ImportOptions{NullsChoice: true})
	g := p.Groups[0]
	rows := g.Rel.Rows()
	if len(rows) != 4 {
		t.Fatalf("alternatives = %d, want 4", len(rows))
	}
	want := [][2]string{{"x", "1"}, {"x", "2"}, {"y", "1"}, {"y", "2"}}
	for i, w := range want {
		if rows[i][0].AsStr() != w[0] || rows[i][1].String() != w[1] {
			t.Errorf("alternative %d = %v, want %v", i, rows[i], w)
		}
	}
}

func TestImportNullsChoiceEmptyDomain(t *testing.T) {
	// Every value of B is NULL: nothing to fill from, the cell stays NULL.
	csv := "A,B\nx,\ny,\n"
	p := loadPlan(t, csv, ImportOptions{NullsChoice: true})
	if len(p.Groups) != 2 {
		t.Fatalf("groups = %d", len(p.Groups))
	}
	for _, g := range p.Groups {
		if g.Rel.Len() != 1 || !g.Rel.Rows()[0][1].IsNull() {
			t.Errorf("empty-domain fill = %v", g.Rel.Rows())
		}
	}
}

func TestImportChoiceRowsSkipRepairGrouping(t *testing.T) {
	// The NULL-bearing a-row becomes a choice group and must not also
	// join a's repair group.
	csv := "K,V\na,1\na,2\na,\n"
	p := loadPlan(t, csv, ImportOptions{NullsChoice: true, RepairKey: []string{"K"}})
	if len(p.Groups) != 2 {
		t.Fatalf("groups = %d, want 2 (repair + choice)", len(p.Groups))
	}
	if p.Groups[0].Choice || !p.Groups[1].Choice {
		t.Errorf("group kinds = %v, %v", p.Groups[0].Choice, p.Groups[1].Choice)
	}
	if p.Groups[0].Rel.Len() != 2 || p.Groups[1].Rel.Len() != 2 {
		t.Errorf("group sizes = %d, %d", p.Groups[0].Rel.Len(), p.Groups[1].Rel.Len())
	}
}

func TestImportChoiceCap(t *testing.T) {
	// 70 distinct values in each of two columns → 4900 alternatives for a
	// row that is NULL in both, beyond MaxChoiceAlternatives.
	var b strings.Builder
	b.WriteString("A,B\n")
	for i := 0; i < 70; i++ {
		fmt.Fprintf(&b, "a%d,b%d\n", i, i)
	}
	b.WriteString(",\n")
	_, err := LoadCSV(strings.NewReader(b.String()), ImportOptions{NullsChoice: true})
	if err == nil || !strings.Contains(err.Error(), "alternatives") {
		t.Fatalf("cap error = %v", err)
	}
}

func TestImportErrors(t *testing.T) {
	base := "K,V,W\na,1,1\na,2,-1\n"
	if _, err := LoadCSV(strings.NewReader(base), ImportOptions{RepairKey: []string{"K"}, Weight: "W"}); err == nil || !strings.Contains(err.Error(), "positive") {
		t.Errorf("negative weight = %v", err)
	}
	bad := "K,V,W\na,1,1\na,2,oops\n"
	if _, err := LoadCSV(strings.NewReader(bad), ImportOptions{RepairKey: []string{"K"}, Weight: "W"}); err == nil || !strings.Contains(err.Error(), "numeric") {
		t.Errorf("non-numeric weight = %v", err)
	}
	// A row with a key of its own is a repair candidate too: its weight is
	// checked like a conflicting row's, as REPAIR BY KEY checks it.
	single := "K,V,W\na,1,1\na,2,2\nb,3,-5\nc,4,oops\n"
	if _, err := LoadCSV(strings.NewReader(single), ImportOptions{RepairKey: []string{"K"}, Weight: "W"}); err == nil || err.Error() != "relation: import: row 3: weight value -5 must be positive" {
		t.Errorf("negative weight of a lone key = %v", err)
	}
	single = "K,V,W\na,1,1\na,2,2\nc,4,oops\n"
	if _, err := LoadCSV(strings.NewReader(single), ImportOptions{RepairKey: []string{"K"}, Weight: "W"}); err == nil || err.Error() != "relation: import: row 3: weight value oops is not numeric" {
		t.Errorf("non-numeric weight of a lone key = %v", err)
	}
	// A NULLS AS CHOICE row is no repair candidate: its weight is not read.
	if _, err := LoadCSV(strings.NewReader("K,V,W\na,1,1\nb,,\n"), ImportOptions{NullsChoice: true, RepairKey: []string{"K"}, Weight: "W"}); err != nil {
		t.Errorf("choice row's weight was validated: %v", err)
	}
	if _, err := LoadCSV(strings.NewReader(base), ImportOptions{RepairKey: []string{"nope"}}); err == nil {
		t.Error("unknown key column must fail")
	}
	if _, err := LoadCSV(strings.NewReader(base), ImportOptions{RepairKey: []string{"K"}, Weight: "nope"}); err == nil {
		t.Error("unknown weight column must fail")
	}
}

// TestImportTypeInference pins the loader's columnar type inference: a
// clean column adopts its kind, NULLs ride the null bitmap without
// degrading it, and a mixed-kind column falls back to the generic
// representation — with every cell still parsing exactly as value.Parse.
func TestImportTypeInference(t *testing.T) {
	csv := "I,F,S,B,M,N\n" +
		"1,1.5,x,true,1,\n" +
		"2,-0.25,NULL,false,oops,\n" +
		",3e2,z,NULL,2.5,\n"
	rel, err := ReadCSV(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	b := rel.Batch()
	if b.RowBacked() {
		t.Fatal("CSV load must produce a columnar batch")
	}
	wantKinds := []value.Kind{value.KindInt, value.KindFloat, value.KindString, value.KindBool}
	for j, want := range wantKinds {
		c := b.Col(j)
		if c.Any != nil || c.Kind != want {
			t.Errorf("col %d kind = %v (any=%v), want %v", j, c.Kind, c.Any != nil, want)
		}
	}
	if c := b.Col(4); c.Any == nil {
		t.Error("mixed-kind column must degrade to the generic representation")
	}
	if c := b.Col(5); c.Any != nil || c.Kind != value.KindNull {
		t.Error("all-NULL column must stay in the no-payload representation")
	}
	// NULL-heavy cells round-trip: the typed columns report NULL exactly
	// where the file had empty/NULL fields.
	checks := []struct {
		i, j int
		null bool
	}{{0, 0, false}, {2, 0, true}, {1, 2, true}, {2, 3, true}, {0, 5, true}}
	for _, c := range checks {
		if got := b.Col(c.j).Null(c.i); got != c.null {
			t.Errorf("null(%d,%d) = %v, want %v", c.i, c.j, got, c.null)
		}
	}
	// And every cell equals a fresh value.Parse of the field.
	fields := [][]string{
		{"1", "1.5", "x", "true", "1", ""},
		{"2", "-0.25", "NULL", "false", "oops", ""},
		{"", "3e2", "z", "NULL", "2.5", ""},
	}
	for i, rec := range fields {
		for j, f := range rec {
			want := value.Parse(f)
			got := b.At(i, j)
			if got.String() != want.String() || got.Kind() != want.Kind() {
				t.Errorf("cell (%d,%d) = %v [%v], want %v [%v]", i, j, got, got.Kind(), want, want.Kind())
			}
		}
	}
}
