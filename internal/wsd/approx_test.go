package wsd

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"maybms/internal/relation"
	"maybms/internal/worldset"
)

// approxWSD builds k independent components of m uniform alternatives each
// (merged: m^k alternatives). The tests close a grouped core over it — an
// aggregate correlates the components, so CONF must go through the classic
// merge.
func approxWSD(t *testing.T, k, m, mergeLimit int) *WSD {
	t.Helper()
	d := New(true)
	r := relation.New(figure1R().Schema.Project([]int{0, 1}))
	for g := 0; g < k; g++ {
		for v := 0; v < m; v++ {
			r.MustAppend(row(fmt.Sprintf("g%02d", g), v))
		}
	}
	if err := d.PutCertain("R", r); err != nil {
		t.Fatal(err)
	}
	if err := d.repairByKey("R", "I", []string{"A"}, ""); err != nil {
		t.Fatal(err)
	}
	d.MergeLimit = mergeLimit
	return d
}

// TestApproxConfMatchesExactWhenMergeFits: while the merge fits the limit,
// APPROX CONF takes the very same exact routing as CONF — byte-identical
// answers, order included.
func TestApproxConfMatchesExactWhenMergeFits(t *testing.T) {
	d := approxWSD(t, 4, 3, DefaultMergeLimit)
	exact := renderRel(selectOn(t, d, "select conf, A, B from I group by A, B"))
	approx := renderRel(selectOn(t, d, "select approx conf, A, B from I group by A, B"))
	if approx != exact {
		t.Fatalf("approx conf diverged from exact within the merge limit:\n%s\nwant:\n%s", approx, exact)
	}
}

// TestApproxConfFallsBackToMonteCarlo: past the merge limit CONF fails with
// ErrMergeTooBig while APPROX CONF switches to the seeded sampler — a
// deterministic estimate close to the known exact confidence 1/m.
func TestApproxConfFallsBackToMonteCarlo(t *testing.T) {
	const k, m = 8, 3 // merged: 3^8 = 6561 alternatives
	build := func() *WSD { return approxWSD(t, k, m, 64) }
	d := build()

	core, cl := parseCore(t, "select conf, A, B from I group by A, B")
	if _, err := d.selectClosure(core, cl); !errors.Is(err, ErrMergeTooBig) {
		t.Fatalf("exact conf past the limit: err = %v, want ErrMergeTooBig", err)
	}

	est := selectOn(t, d, "select approx conf, A, B from I group by A, B")
	if want := k * m; len(est.Rows()) != want {
		t.Fatalf("estimated %d possible tuples, want %d", len(est.Rows()), want)
	}
	// The Monte-Carlo route appends the confidence estimate plus the
	// ±1/(2√samples) standard-error bound.
	n := est.Schema.Len()
	if got, got2 := est.Schema.At(n-2).Name, est.Schema.At(n-1).Name; got != "conf" || got2 != "cerr" {
		t.Fatalf("trailing columns = %q, %q, want conf, cerr", got, got2)
	}
	wantBound := 1 / (2 * math.Sqrt(mcSamples))
	// True confidence of every tuple is 1/m; with 1000 samples the binomial
	// standard error is ≈ 0.015, so 0.06 is a 4σ tolerance.
	for _, tp := range est.Rows() {
		if c := tp[len(tp)-2].AsFloat(); math.Abs(c-1.0/m) > 0.06 {
			t.Fatalf("tuple %v: estimate %v too far from %v", tp[:len(tp)-2], c, 1.0/m)
		}
		if b := tp[len(tp)-1].AsFloat(); b != wantBound {
			t.Fatalf("tuple %v: cerr = %v, want %v", tp[:len(tp)-2], b, wantBound)
		}
	}

	// A fixed seed → byte-identical estimate (fresh WSD: the failed exact
	// attempt above must not have consumed randomness either).
	again := selectOn(t, build(), "select approx conf, A, B from I group by A, B")
	if renderRel(again) != renderRel(est) {
		t.Fatalf("seeded estimate not deterministic:\n%s\nvs:\n%s", renderRel(again), renderRel(est))
	}
}

// TestApproxConfUnweighted: APPROX CONF inherits CONF's weighted-session
// requirement.
func TestApproxConfUnweighted(t *testing.T) {
	d := New(false)
	r := relation.New(figure1R().Schema.Project([]int{0, 1}))
	r.MustAppend(row("a", 1))
	if err := d.PutCertain("R", r); err != nil {
		t.Fatal(err)
	}
	if err := d.repairByKey("R", "I", []string{"A"}, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec("select approx conf, A from I"); !errors.Is(err, worldset.ErrNotWeighted) {
		t.Fatalf("err = %v, want worldset.ErrNotWeighted", err)
	}
}
