package wsd

// split_form_test.go checks the split builders against each other and
// against colbatch's size rule: IMPORT ... REPAIR KEY and CREATE TABLE AS
// ... REPAIR BY KEY over the same file represent the same world-set on both
// engines and refuse the same bad weights, and every alternative a split
// stores under colbatch.Floor rows is in row form, whatever the form of the
// source it was picked from.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"maybms/internal/colbatch"
	"maybms/internal/core"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/tuple"
)

// writeCSV writes body under a header K,V,W and returns the file path.
func writeCSV(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "r.csv")
	if err := os.WriteFile(path, []byte("K,V,W\n"+body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// spellingSessions runs the IMPORT spelling into T (s1, d1) and the CTAS
// spelling — a plain IMPORT into R, then REPAIR BY KEY into T — (s2, d2),
// returning the first error of each run in that order.
func spellingSessions(path, weight string) (s1, s2 *core.Session, d1, d2 *WSD, errs [4]error) {
	w := ""
	if weight != "" {
		w = " weight " + weight
	}
	imp := fmt.Sprintf("import into T from '%s' repair key (K)%s", path, w)
	ctas := []string{fmt.Sprintf("import into R from '%s'", path), "create table T as select * from R repair by key K" + w}
	s1, s2, d1, d2 = core.NewSession(true), core.NewSession(true), New(true), New(true)
	_, errs[0] = s1.Exec(imp)
	_, errs[1] = core.Exec(d1, imp)
	for _, q := range ctas {
		if _, err := s2.Exec(q); err != nil && errs[2] == nil {
			errs[2] = err
		}
		if _, err := core.Exec(d2, q); err != nil && errs[3] == nil {
			errs[3] = err
		}
	}
	return s1, s2, d1, d2, errs
}

// TestImportRepairKeyMatchesRepairByKey: the two spellings of a key repair
// over one file, 44 rows (a columnar source) with three conflicting keys,
// give the same world-set — instances as multisets with probabilities — on
// both engines, with and without WEIGHT.
func TestImportRepairKeyMatchesRepairByKey(t *testing.T) {
	var body strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&body, "k%d,%d,%d\n", i, 10*i, 1+i%4)
		if i == 3 || i == 17 || i == 29 { // conflicting keys: two or three rows
			fmt.Fprintf(&body, "k%d,%d,%d\n", i, 10*i+1, 2+i%3)
		}
		if i == 17 {
			fmt.Fprintf(&body, "k%d,%d,5\n", i, 10*i+2)
		}
	}
	path := writeCSV(t, body.String())
	for _, weight := range []string{"", "W"} {
		s1, s2, d1, d2, errs := spellingSessions(path, weight)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("weight %q, run %d: %v", weight, i, err)
			}
		}
		if src := d2.certain[key("R")]; src.Len() < colbatch.Floor || src.Batch().RowBacked() {
			t.Fatalf("source R holds %d rows in row form %v, want a columnar source", src.Len(), src.Batch().RowBacked())
		}
		if d1.WorldCount().String() != "12" {
			t.Fatalf("weight %q: %s worlds, want 2*3*2", weight, d1.WorldCount())
		}
		naive := naiveViews(t, s1, "T")
		matchViews(t, naive, naiveViews(t, s2, "T"))
		matchViews(t, naive, wsdViews(t, d1, "T"))
		matchViews(t, naive, wsdViews(t, d2, "T"))
	}
}

// TestImportRepairKeyRefusesLikeRepairByKey: both spellings fail on the same
// bad weights, a lone key's included, with the same weight message.
func TestImportRepairKeyRefusesLikeRepairByKey(t *testing.T) {
	var clean strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&clean, "k%d,%d,1\n", i, i)
	}
	for _, c := range []struct{ rows, want string }{
		{"a,1,1\na,2,2\nb,3,-5\n", "weight value -5 must be positive"},
		{"a,1,1\na,2,2\nc,4,oops\n", "weight value oops is not numeric"},
		{"a,1,1\na,2,0\n", "weight value 0 must be positive"},
	} {
		_, _, _, _, errs := spellingSessions(writeCSV(t, clean.String()+c.rows), "W")
		for i, err := range errs {
			if err == nil || !strings.HasSuffix(err.Error(), c.want) {
				t.Errorf("rows %q, run %d: err = %v, want %q", c.rows, i, err, c.want)
			}
		}
	}
}

// TestSplitStoresSmallAlternativesAsRows pins the stored form of split
// alternatives: REPAIR BY KEY and CHOICE OF over a columnar certain source,
// and repairs nested under their alternatives, store every alternative of
// fewer than colbatch.Floor rows in row form — one-row column gathers of a
// columnar source would cost a header per column per alternative — and
// larger ones as columns.
func TestSplitStoresSmallAlternativesAsRows(t *testing.T) {
	sch := schema.New("K", "G", "V", "W")
	var rows []tuple.Tuple
	for i := 0; i < 64; i++ {
		g := 0 // one partition of Floor rows or more, three small ones
		if i%16 >= 10 {
			g = 1 + i%3
		}
		rows = append(rows, row(i/2, g, i, 1+i%3))
	}
	d := New(true)
	src := relation.FromBatch(colbatch.FromRows(sch, rows))
	if src.Batch().RowBacked() {
		t.Fatal("source must be columnar")
	}
	if err := d.PutCertain("S", src); err != nil {
		t.Fatal(err)
	}
	// The repair of I by V nests under I's key-0 component: V=0 is both
	// anchored in I's certain part (columnar imported rows) and fed by the
	// component, V=100 fed by the component alone.
	var body strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&body, "%d,%d,1\n", i, i%8)
	}
	body.WriteString("0,100,2\n")
	for _, q := range []string{
		"create table U as select * from S repair by key K weight W",
		"create table C as select * from S choice of G weight W",
		"create table N as select * from C repair by key K",
		fmt.Sprintf("import into I from '%s' repair key (K) weight W", writeCSV(t, body.String())),
		"create table J as select * from I repair by key V weight W",
	} {
		if _, err := core.Exec(d, q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	checked := map[string]int{}
	for _, c := range d.comps {
		for _, a := range c.Alts {
			for _, k := range []string{"u", "c", "n", "j"} {
				rel := a.Contrib[k]
				if rel == nil {
					continue
				}
				checked[k]++
				b := rel.Batch()
				if b.RowBacked() != (b.Len() < colbatch.Floor) {
					t.Errorf("%s: alternative of %d rows stored in row form %v", k, b.Len(), b.RowBacked())
				}
			}
		}
	}
	for _, k := range []string{"u", "c", "n", "j"} {
		if checked[k] == 0 {
			t.Errorf("%s: no alternative stored", k)
		}
	}
	if checked["c"] != 4 {
		t.Errorf("choice stored %d alternatives, want 4", checked["c"])
	}
}
