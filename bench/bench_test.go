package main

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestSmoke runs all five workloads at smoke scale, untraced and traced,
// twice, and checks what BENCHMARK.json promises: every workload and
// metric it names is emitted with its unit, nothing fails, and the counts
// that must repeat exactly do.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	var named []string
	for _, w := range sp.Workloads {
		named = append(named, w.Name)
	}
	if !reflect.DeepEqual(named, workloadNames) {
		t.Fatalf("BENCHMARK.json names workloads %v, the benchmark has %v", named, workloadNames)
	}

	work := t.TempDir()
	bin, err := buildServer(root, work)
	if err != nil {
		t.Fatal(err)
	}
	o := options{seed: 1, scale: "smoke", seconds: 0.05, workDir: work, bin: bin}
	for _, name := range workloadNames {
		var first [2]*result
		for run := 0; run < 2; run++ {
			e, err := runUntraced(o, name)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := runTraced(o, name, "")
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range []*result{e, tr} {
				if r.Failed != 0 || r.Attempted == 0 {
					t.Errorf("%s: %d of %d statements failed: %s", name, r.Failed, r.Attempted, r.FirstErr)
				}
				specs := sp.EndToEnd
				if i == 1 {
					specs = sp.PerLayer
				}
				if len(r.Metrics) != len(specs) {
					t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", name, len(r.Metrics), len(specs))
				}
				for _, m := range specs {
					if v, ok := r.Metrics[m.Name]; !ok {
						t.Errorf("%s: metric %s is not emitted", name, m.Name)
					} else if v.Unit != m.Unit {
						t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", name, m.Name, v.Unit, m.Unit)
					}
				}
				if run == 0 {
					first[i] = r
					continue
				}
				if r.Digest != first[i].Digest {
					t.Errorf("%s: answer digest %s, first run %s", name, r.Digest, first[i].Digest)
				}
				for _, c := range []string{"statements_per_round", "resp_bytes_per_round", "stmt_bytes_per_round", "check_compared", "check_skipped"} {
					if r.Counts[c] != first[i].Counts[c] {
						t.Errorf("%s: count %s is %v, first run %v", name, c, r.Counts[c], first[i].Counts[c])
					}
				}
				if i == 0 {
					continue
				}
				for m, v := range r.Metrics {
					exact := v.Unit == "count" || v.Unit == "bytes" || v.Unit == "rows"
					// Clients racing on a text new to the shared plan
					// cache may both compile it.
					if exact && m != "plan.prepares" && !strings.HasPrefix(m, "exec.gate") && v.Value != first[i].Metrics[m].Value {
						t.Errorf("%s: %s is %v, first run %v", name, m, v.Value, first[i].Metrics[m].Value)
					}
				}
			}
		}
	}
}

// TestGenerateIsSeeded checks that a seed fixes every script and file and
// that another seed gives other ones.
func TestGenerateIsSeeded(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 7, "smoke")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, 7, "smoke")
		c, _ := generate(name, 8, "smoke")
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if reflect.DeepEqual(a.Scripts, c.Scripts) && reflect.DeepEqual(a.Setup, c.Setup) && reflect.DeepEqual(a.Files, c.Files) {
			t.Errorf("%s: another seed gave the same inputs", name)
		}
		dir := t.TempDir()
		ra, _ := a.prepare(a.Scripts[0], 0, 3, nonceBase, dir)
		rb, _ := b.prepare(b.Scripts[0], 0, 3, nonceBase, dir)
		for i := range ra {
			if string(ra[i].line) != string(rb[i].line) {
				t.Fatalf("%s: request %d differs for the same seed", name, i)
			}
		}
	}
}

func TestSameAnswers(t *testing.T) {
	closed := func(rows ...[]any) *answer {
		return &answer{kind: "closed", groups: []group{{prob: 1, cols: []string{"K", "conf"}, rows: rows}}}
	}
	a := closed([]any{1.0, 0.25}, []any{2.0, 0.5})
	if err := sameAnswers("conf", a, closed([]any{2.0, 0.5 + 1e-12}, []any{1.0, 0.25})); err != nil {
		t.Errorf("equal answers in another order: %v", err)
	}
	if sameAnswers("conf", a, closed([]any{1.0, 0.25}, []any{2.0, 0.51})) == nil {
		t.Error("a differing confidence passed")
	}
	if sameAnswers("conf", a, closed([]any{1.0, 0.25})) == nil {
		t.Error("a missing row passed")
	}

	naive := &answer{kind: "worlds", groups: []group{
		{prob: 0.5, rows: [][]any{{"a", 1.0}, {"b", 3.0}}},
		{prob: 0.5, rows: [][]any{{"a", 2.0}, {"b", 3.0}}},
	}}
	cond := func(second string) *answer {
		return &answer{kind: "closed", groups: []group{{prob: 1, cols: []string{"A", "B", "cond"}, rows: [][]any{
			{"b", 3.0, ""}, {"a", 1.0, "c0=0"}, {"a", 2.0, second},
		}}}}
	}
	if err := sameAnswers("world", naive, cond("c0=1")); err != nil {
		t.Errorf("a conditional relation that decodes to the naive worlds: %v", err)
	}
	if sameAnswers("world", naive, cond("c1=0")) == nil {
		t.Error("a conditional relation with a world the naive backend lacks passed")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "engine", StartUs: 0, DurUs: 100},
		{Name: "parse", StartUs: 2, DurUs: 8},
		{Name: "eval", StartUs: 10, DurUs: 80},
		{Name: "plan", StartUs: 20, DurUs: 5},
		{Name: "closure", StartUs: 90, DurUs: 10},
		{Name: "encode", StartUs: 100, DurUs: 7},
	}
	selfTimes(spans)
	want := map[string]struct {
		parent string
		self   int64
	}{"engine": {"", 2}, "parse": {"engine", 8}, "eval": {"engine", 75}, "plan": {"eval", 5}, "closure": {"engine", 10}, "encode": {"", 7}}
	for _, sp := range spans {
		if w := want[sp.Name]; sp.Parent != w.parent || sp.SelfUs != w.self {
			t.Errorf("%s: parent %q self %d, want %q %d", sp.Name, sp.Parent, sp.SelfUs, w.parent, w.self)
		}
	}
}

// TestSpread checks the quartile distance against Python's
// statistics.quantiles(values, n=4), which the driver uses.
func TestSpread(t *testing.T) {
	xs := []float64{10, 12, 11, 15, 9, 13, 14, 10, 12, 11}
	// quantiles → [10.0, 11.5, 13.25]; median 11.5
	if got, want := spread(xs), 3.25/11.5; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestCompare(t *testing.T) {
	sp := &spec{EndToEnd: []metricSpec{{Name: "stmts_per_s", Better: "higher", Bound: 0.1}, {Name: "p50_ms", Better: "lower", Bound: 0.1}}}
	set := func(rate, p50, spread float64) *resultSet {
		return &resultSet{Seed: 1, Scale: "full", EndToEnd: map[string]*result{"w": {
			Metrics: map[string]value{"stmts_per_s": {rate, "1/s", spread}, "p50_ms": {p50, "ms", 0}},
			Printed: map[string]value{"fail_share": {Value: 0}},
		}}}
	}
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	if code := compare(null, sp, set(100, 1, 0), set(95, 1.05, 0)); code != 0 {
		t.Error("changes within the bound counted as worse")
	}
	if code := compare(null, sp, set(100, 1, 0), set(80, 1, 0)); code != 1 {
		t.Error("a 20 % drop in throughput passed")
	}
	if code := compare(null, sp, set(100, 1, 0.2), set(80, 1, 0)); code != 0 {
		t.Error("a drop within a spread wider than the bound counted as worse, not unresolved")
	}
	failing := set(100, 1, 0)
	failing.EndToEnd["w"].Printed["fail_share"] = value{Value: 0.01}
	if code := compare(null, sp, set(100, 1, 0), failing); code != 1 {
		t.Error("a rise in fail_share passed")
	}
}
