package wsd

// import_equiv_test.go checks the bulk-ingestion front end: the WSD
// backend's Import (components registered straight off the loaded batch)
// must represent exactly the world-set the naive engine enumerates for
// the same IMPORT statement, and IMPORT with a repair key must agree
// with the established per-row construction (INSERT every row, then
// REPAIR BY KEY).

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"maybms/internal/core"
	"maybms/internal/relation"
)

// randomDirtyCSV emits a CSV with key-conflicting rows (repair fodder),
// random positive weights, and — when withNulls — NULLed-out V cells
// (choice fodder). Returns the file path.
func randomDirtyCSV(t *testing.T, r *rand.Rand, withNulls bool) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("K,V,W\n")
	nGroups := 1 + r.Intn(3)
	for k := 0; k < nGroups; k++ {
		size := 1 + r.Intn(3)
		for v := 0; v < size; v++ {
			val := fmt.Sprintf("%d", 10+r.Intn(4))
			if withNulls && r.Intn(6) == 0 {
				val = ""
			}
			fmt.Fprintf(&b, "k%d,%s,%d\n", k, val, 1+r.Intn(9))
		}
	}
	path := filepath.Join(t.TempDir(), "dirty.csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func importStmt(path string, opts relation.ImportOptions) string {
	stmt := fmt.Sprintf("import into T from '%s'", strings.ReplaceAll(path, "'", "''"))
	if opts.NullsChoice {
		stmt += " nulls as choice"
	}
	if len(opts.RepairKey) > 0 {
		stmt += " repair key (" + strings.Join(opts.RepairKey, ", ") + ")"
		if opts.Weight != "" {
			stmt += " weight " + opts.Weight
		}
	}
	return stmt
}

func TestImportEquivalenceFuzz(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(47))
	for trial := 0; trial < 40; trial++ {
		withNulls := r.Intn(2) == 0
		opts := relation.ImportOptions{NullsChoice: withNulls}
		if r.Intn(4) > 0 {
			opts.RepairKey = []string{"K"}
			if r.Intn(2) == 0 {
				opts.Weight = "W"
			}
		}
		path := randomDirtyCSV(t, r, withNulls)

		// Naive engine: the statement splits worlds explicitly.
		s := core.NewSession(true)
		if _, err := s.Exec(importStmt(path, opts)); err != nil {
			t.Fatalf("trial %d: naive import: %v", trial, err)
		}

		// WSD engine: the same plan registered as components.
		plan, err := relation.LoadCSVFile(path, opts)
		if err != nil {
			t.Fatalf("trial %d: load: %v", trial, err)
		}
		d := New(true)
		if err := d.Import("T", plan); err != nil {
			t.Fatalf("trial %d: wsd import: %v", trial, err)
		}

		matchViews(t, naiveViews(t, s, "T"), wsdViews(t, d, "T"))

		// Tuple confidences agree between the engines.
		res, err := s.Exec("select K, V, W, conf from T")
		if err != nil {
			t.Fatalf("trial %d: naive conf: %v", trial, err)
		}
		for _, tp := range res.Groups[0].Rel.Rows() {
			base := tp[:3]
			want := tp[3].AsFloat()
			got, err := tupleConf(d, "T", base)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d: conf(%v) = %g (WSD) vs %g (naive)", trial, base, got, want)
			}
		}
	}
}

// TestImportMatchesPerRowConstruction checks IMPORT … REPAIR KEY against
// the established construction: INSERT each CSV row into a certain table,
// then REPAIR BY KEY — the world-sets must coincide.
func TestImportMatchesPerRowConstruction(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	for trial := 0; trial < 15; trial++ {
		weight := ""
		if r.Intn(2) == 0 {
			weight = "W"
		}
		opts := relation.ImportOptions{RepairKey: []string{"K"}, Weight: weight}
		path := randomDirtyCSV(t, r, false)

		imported := core.NewSession(true)
		if _, err := imported.Exec(importStmt(path, opts)); err != nil {
			t.Fatalf("trial %d: import: %v", trial, err)
		}

		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		perRow := core.NewSession(true)
		if _, err := perRow.Exec("create table R (K, V, W)"); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n")[1:] {
			f := strings.Split(line, ",")
			if _, err := perRow.Exec(fmt.Sprintf("insert into R values ('%s', %s, %s)", f[0], f[1], f[2])); err != nil {
				t.Fatalf("trial %d: insert %q: %v", trial, line, err)
			}
		}
		q := "create table T as select K, V, W from R repair by key K"
		if weight != "" {
			q += " weight W"
		}
		if _, err := perRow.Exec(q); err != nil {
			t.Fatalf("trial %d: repair: %v", trial, err)
		}

		matchViews(t, naiveViews(t, imported, "T"), naiveViews(t, perRow, "T"))
	}
}
