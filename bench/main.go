// Command bench is the repository's end-to-end benchmark. It builds
// cmd/maybms-serve, drives it over the newline-JSON TCP protocol with five
// seed-generated workloads, checks the answers, and prints every metric by
// name with its unit. README.md beside this file says how to run it and
// how to read what it prints.
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash bench/run.sh [--seed <n>] [--seconds <s>] [--scale full|smoke] [--out file.json]
//	bash bench/run.sh compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// A resultSet is what a run over all workloads writes: per workload the
// untraced result and the traced one, and where they were measured.
type resultSet struct {
	Env      map[string]string  `json:"env"`
	Seed     int64              `json:"seed"`
	Scale    string             `json:"scale"`
	Seconds  float64            `json:"seconds"`
	EndToEnd map[string]*result `json:"end_to_end"`
	PerLayer map[string]*result `json:"per_layer"`
	Claim    any                `json:"claim"` // this benchmark is an instrument; it claims nothing
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "run this one workload and print its result as the last line (default: all five)")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "how long one run measures")
	trace := flag.Int("trace", 0, "1: the traced pass and the per-layer metrics; 0: the end-to-end metrics")
	scale := flag.String("scale", "full", "input sizes: full or smoke")
	out := flag.String("out", "", "with all workloads: write the result set here (default .bench_build/out/result.json)")
	traceOut := flag.String("trace-out", "", "write the traced pass's spans here, one JSON object per line (default .bench_build/out/spans-<workload>.jsonl)")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	// Everything a run writes goes under here.
	work := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(work, "bin"), 0o755); err != nil {
		fatal(err)
	}
	o := options{seed: *seed, scale: *scale, seconds: *seconds, workDir: work}
	if o.bin, err = buildServer(root, filepath.Join(work, "bin")); err != nil {
		fatal(err)
	}
	spansPath := func(name string) string {
		if *traceOut != "" {
			return *traceOut
		}
		return filepath.Join(work, "out", "spans-"+name+".jsonl")
	}

	if *name != "" {
		var res *result
		if *trace == 1 {
			res, err = runTraced(o, *name, spansPath(*name))
		} else {
			res, err = runUntraced(o, *name)
		}
		if err != nil {
			fatal(err)
		}
		res.print(os.Stdout)
		res.printLastLine(os.Stdout)
		if res.Failed > 0 {
			os.Exit(1)
		}
		return
	}

	set := &resultSet{Env: environment(root), Seed: *seed, Scale: *scale, Seconds: *seconds,
		EndToEnd: map[string]*result{}, PerLayer: map[string]*result{}}
	failed := 0
	for _, name := range workloadNames {
		e, err := runUntraced(o, name)
		if err != nil {
			fatal(err)
		}
		e.print(os.Stdout)
		t, err := runTraced(o, name, spansPath(name))
		if err != nil {
			fatal(err)
		}
		t.print(os.Stdout)
		set.EndToEnd[name], set.PerLayer[name] = e, t
		failed += e.Failed + t.Failed
	}
	if *out == "" {
		*out = filepath.Join(work, "out", "result.json")
	}
	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		fatal(err)
	}
	data, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("result set written to %s\n\"claim\": null\n", *out)
	if failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// environment records where a result set was measured.
func environment(root string) map[string]string {
	env := map[string]string{
		"go":         runtime.Version(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"clients":    fmt.Sprint(clients),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
		cmd.Dir = root
		if out, err := cmd.Output(); err == nil {
			env["commit"] = strings.TrimSpace(string(out))
		}
	}
	return env
}

// print writes the result for a reader: every metric by name with its
// unit, gated ones first.
func (r *result) print(w *os.File) {
	fmt.Fprintf(w, "== %s: %d round(s), %d statement(s) attempted, %d failed\n", r.Workload, r.Rounds, r.Attempted, r.Failed)
	if r.FirstErr != "" {
		fmt.Fprintf(w, "   first failure: %s\n", r.FirstErr)
	}
	if r.Digest != "" {
		fmt.Fprintf(w, "   answer_digest %s\n", r.Digest)
	}
	printValues := func(title string, m map[string]value) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			v := m[n]
			fmt.Fprintf(w, "   %-8s %-28s %14.4f %-7s", title, n, v.Value, v.Unit)
			if v.Spread > 0 {
				fmt.Fprintf(w, " round_spread %.3f", v.Spread)
			}
			fmt.Fprintln(w)
		}
	}
	printValues("metric", r.Metrics)
	printValues("printed", r.Printed)
	names := make([]string, 0, len(r.Counts))
	for n := range r.Counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "   %-8s %-28s %14.1f\n", "count", n, r.Counts[n])
	}
	if len(r.Shares) > 0 {
		fmt.Fprintf(w, "   %-10s %8s %18s %18s\n", "layer", "spans", "busy ms/statement", "share of request")
		for _, s := range r.Shares {
			fmt.Fprintf(w, "   %-10s %8d %18.4f %18.3f\n", s.Layer, s.Spans, s.BusyMs, s.ShareOfReq)
		}
	}
}

// printLastLine writes the one JSON object the driver reads.
func (r *result) printLastLine(w *os.File) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for n, v := range r.Metrics {
		metrics[n] = mv{v.Value, v.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "%s\n", line)
}
