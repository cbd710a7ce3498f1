package wsd

// parallel_test.go checks that wiring the compact engine's
// component-independent passes through internal/exec changes nothing
// observable: every operation produces identical results for workers = 1
// (the exact sequential path) and parallel settings.

import (
	"fmt"
	"testing"

	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/tuple"
)

func rowList(rows ...tuple.Tuple) []tuple.Tuple { return rows }

// bigRepairWSD builds a weighted WSD with many components: one repair
// component per key group over an n-group relation.
func bigRepairWSD(t *testing.T, n, workers int) *WSD {
	t.Helper()
	r := relation.New(schema.New("K", "V", "W"))
	for i := 0; i < n; i++ {
		r.MustAppend(row(fmt.Sprintf("k%d", i), i, 1.0))
		r.MustAppend(row(fmt.Sprintf("k%d", i), i+1000, 3.0))
	}
	d := New(true)
	d.Workers = workers
	if err := d.PutCertain("R", r); err != nil {
		t.Fatal(err)
	}
	if err := d.RepairByKey("R", "I", []string{"K"}, "W"); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestWorkersSettingsAgree(t *testing.T) {
	const groups = 9
	build := func(workers int) *WSD { return bigRepairWSD(t, groups, workers) }

	seq := build(1)
	for _, workers := range []int{0, 2, 8} {
		par := build(workers)

		// Closures over the representation.
		seqPoss, err1 := seq.Possible("I")
		parPoss, err2 := par.Possible("I")
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if seqPoss.String() != parPoss.String() {
			t.Fatalf("workers=%d: possible diverged", workers)
		}
		seqCert, _ := seq.Certain("I")
		parCert, _ := par.Certain("I")
		if !seqCert.EqualSet(parCert) {
			t.Fatalf("workers=%d: certain diverged", workers)
		}
		seqConf, err1 := seq.ConfRelation("I")
		parConf, err2 := par.ConfRelation("I")
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if seqConf.String() != parConf.String() {
			t.Fatalf("workers=%d: conf relation diverged\nseq:\n%s\npar:\n%s", workers, seqConf, parConf)
		}

		// Point confidence (drives contributions()).
		for i := 0; i < groups; i++ {
			tp := row(fmt.Sprintf("k%d", i), i, 1.0)
			a, _ := seq.Conf("I", tp)
			b, _ := par.Conf("I", tp)
			if a != b {
				t.Fatalf("workers=%d: conf(k%d) %g vs %g", workers, i, a, b)
			}
		}

		// Assert (merges three components, filters alternatives in parallel).
		cond := func(cat plan.Catalog) (bool, error) {
			rel, err := cat.Lookup("I")
			if err != nil {
				return false, err
			}
			seen := 0
			for _, tp := range rel.Rows() {
				if tp[1].AsInt() < 1000 {
					seen++
				}
			}
			return seen >= 2, nil
		}
		touching := []string{"I"}
		seqD, parD := bigRepairWSD(t, 3, 1), bigRepairWSD(t, 3, workers)
		if err := seqD.Assert(touching, cond); err != nil {
			t.Fatal(err)
		}
		if err := parD.Assert(touching, cond); err != nil {
			t.Fatal(err)
		}
		sp, _ := seqD.ConfRelation("I")
		pp, _ := parD.ConfRelation("I")
		if sp.String() != pp.String() {
			t.Fatalf("workers=%d: post-assert conf diverged", workers)
		}

		// Materialize (per-alternative query evaluations in parallel).
		mat := func(d *WSD) *relation.Relation {
			t.Helper()
			createTableMerged(t, d, "M", mustCore(t, "select * from I"))
			rel, err := d.ConfRelation("M")
			if err != nil {
				t.Fatal(err)
			}
			return rel
		}
		if a, b := mat(seqD), mat(parD); a.String() != b.String() {
			t.Fatalf("workers=%d: materialize diverged", workers)
		}

		// Expand (mixed-radix parallel enumeration vs sequential odometer).
		seqSet, err1 := bigRepairWSD(t, 5, 1).Expand(0)
		parSet, err2 := bigRepairWSD(t, 5, workers).Expand(0)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if seqSet.Len() != parSet.Len() {
			t.Fatalf("workers=%d: expand sizes %d vs %d", workers, seqSet.Len(), parSet.Len())
		}
		for i := range seqSet.Worlds {
			sw, pw := seqSet.Worlds[i], parSet.Worlds[i]
			if sw.Name != pw.Name || sw.Prob != pw.Prob || sw.Fingerprint() != pw.Fingerprint() {
				t.Fatalf("workers=%d: expand world %d diverged (%s/%g vs %s/%g)",
					workers, i, sw.Name, sw.Prob, pw.Name, pw.Prob)
			}
		}
	}
}

func TestInsertCertainAndDrop(t *testing.T) {
	d := New(true)
	r := relation.New(schema.New("A", "B"))
	r.MustAppend(row("x", 1))
	if err := d.PutCertain("T", r); err != nil {
		t.Fatal(err)
	}
	if err := d.InsertCertain("T", nil); err != nil {
		t.Fatalf("empty insert: %v", err)
	}
	if err := d.InsertCertain("T", rowList(row("y", 2), row("z", 3))); err != nil {
		t.Fatal(err)
	}
	got, err := d.Possible("T")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("after insert: %v", got.Rows())
	}
	// Width mismatch rejected.
	if err := d.InsertCertain("T", rowList(row("w"))); err == nil {
		t.Fatal("want width error")
	}
	// Uncertain relations reject inserts and drops.
	if err := d.RepairByKey("T", "U", []string{"A"}, ""); err != nil {
		t.Fatal(err)
	}
	if err := d.InsertCertain("U", rowList(row("q", 9))); err == nil {
		t.Fatal("insert into uncertain relation must fail")
	}
	if err := d.dropCertain("U"); err == nil {
		t.Fatal("dropping uncertain relation must fail")
	}
	if err := d.dropCertain("T"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Possible("T"); err == nil {
		t.Fatal("T should be gone")
	}
}
