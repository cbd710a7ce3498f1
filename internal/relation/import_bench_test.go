package relation

import (
	"bytes"
	"fmt"
	"testing"
)

// benchDirtyCSV renders the file shape of the benchmark's ingest.dml
// workload: K,A,Cat,Label,W over rows rows, in which dirty rows, evenly
// spread, repeat the key of the row before them (a repair group of two) and
// as many others have a NULL Cat (a choice among the four categories).
func benchDirtyCSV(rows, dirty int) []byte {
	words := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"}
	var b bytes.Buffer
	b.WriteString("K,A,Cat,Label,W\n")
	every := rows / dirty
	k := 0
	for i := 0; i < rows; i++ {
		if i%every != every/2 || i/every >= dirty {
			k++
		}
		cat := fmt.Sprint(i * 7 % 4)
		if i%every == every-1 && i/every < dirty {
			cat = ""
		}
		fmt.Fprintf(&b, "%d,%d,%s,%s,%d\n", k, i*7919%1000, cat, words[i*31%len(words)], 1+i%5)
	}
	return b.Bytes()
}

// benchCSVData builds an in-memory dirty CSV: K,V,W with rows/dupEvery
// key conflicts (repair fodder) and rows/nullEvery NULLed V cells (choice
// fodder). V ranges over a small domain so NULL fills stay bounded.
func benchCSVData(rows, dupEvery, nullEvery int) []byte {
	var b bytes.Buffer
	b.Grow(rows * 16)
	b.WriteString("K,V,W\n")
	for i := 0; i < rows; i++ {
		key := i
		if dupEvery > 0 && i%dupEvery == 1 {
			key = i - 1 // conflict with the previous row's key
		}
		if nullEvery > 0 && i%nullEvery == 2 {
			fmt.Fprintf(&b, "k%d,,%d\n", key, 1+i%9)
		} else {
			fmt.Fprintf(&b, "k%d,%d,%d\n", key, i%20, 1+i%9)
		}
	}
	return b.Bytes()
}

func benchImport(b *testing.B, rows int, data []byte, opts ImportOptions) {
	b.Helper()
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := LoadCSV(bytes.NewReader(data), opts)
		if err != nil {
			b.Fatal(err)
		}
		if p.Certain.Len()+len(p.Groups) == 0 && rows > 0 {
			b.Fatal("empty plan")
		}
	}
}

// BenchmarkImportCertain is the clean bulk load: 1M rows straight into
// typed columns, one stored batch, no uncertainty classification.
// Allocations are per column (vector growth) and per chunk of rows (its
// string arena) — nothing per row or per cell.
func BenchmarkImportCertain(b *testing.B) {
	const rows = 1_000_000
	data := benchCSVData(rows, 0, 0)
	benchImport(b, rows, data, ImportOptions{})
}

// BenchmarkImportRepairKey adds key classification: ~10% of the rows
// conflict pairwise, each conflict becoming a weighted repair group
// gathered zero-copy from the loaded batch.
func BenchmarkImportRepairKey(b *testing.B) {
	const rows = 1_000_000
	data := benchCSVData(rows, 20, 0)
	benchImport(b, rows, data, ImportOptions{RepairKey: []string{"K"}, Weight: "W"})
}

// BenchmarkImportChoice adds NULL expansion: one row in 500 is missing V
// and expands into one choice group over V's 20-value active domain.
func BenchmarkImportChoice(b *testing.B) {
	const rows = 1_000_000
	data := benchCSVData(rows, 0, 500)
	benchImport(b, rows, data, ImportOptions{NullsChoice: true})
}

// BenchmarkImportDirty is ingest.dml's IMPORT: 40 000 rows, 4 of them with
// a NULL Cat and 4 key conflicts, under NULLS AS CHOICE REPAIR KEY (K)
// WEIGHT W — the load, the key partition over typed cells, the active
// domain of Cat, and 8 small groups.
func BenchmarkImportDirty(b *testing.B) {
	const rows = 40_000
	data := benchDirtyCSV(rows, 4)
	benchImport(b, rows, data, ImportOptions{NullsChoice: true, RepairKey: []string{"K"}, Weight: "W"})
}
