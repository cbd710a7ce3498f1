package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// A spec is the part of BENCHMARK.json that compare and the test read.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareMain prints one row per end-to-end metric and workload and
// returns the exit code: 1 when any row is worse or any workload fails
// more than it did.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare old.json new.json")
		return 2
	}
	code, err := func() (int, error) {
		root, err := findRoot()
		if err != nil {
			return 0, err
		}
		sp, err := readSpec(root)
		if err != nil {
			return 0, err
		}
		older, err := readResultSet(args[0])
		if err != nil {
			return 0, err
		}
		newer, err := readResultSet(args[1])
		if err != nil {
			return 0, err
		}
		return compare(os.Stdout, sp, older, newer), nil
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return code
}

func compare(w *os.File, sp *spec, older, newer *resultSet) int {
	if older.Seed != newer.Seed || older.Scale != newer.Scale || older.Seconds != newer.Seconds {
		fmt.Fprintf(w, "note: settings differ (seed %d/%d, scale %s/%s, seconds %g/%g); rows compare different inputs\n",
			older.Seed, newer.Seed, older.Scale, newer.Scale, older.Seconds, newer.Seconds)
	}
	names := map[string]bool{}
	for n := range older.EndToEnd {
		names[n] = true
	}
	for n := range newer.EndToEnd {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	worse := 0
	fmt.Fprintf(w, "%-16s %-12s %12s %12s %18s %6s  %s\n", "workload", "metric", "old", "new", "new/old", "bound", "verdict")
	for _, name := range sorted {
		o, n := older.EndToEnd[name], newer.EndToEnd[name]
		switch {
		case o == nil:
			fmt.Fprintf(w, "%-16s added: only the new set has it\n", name)
			continue
		case n == nil:
			fmt.Fprintf(w, "%-16s removed: only the old set has it\n", name)
			continue
		}
		for _, m := range sp.EndToEnd {
			ov, ook := o.Metrics[m.Name]
			nv, nok := n.Metrics[m.Name]
			switch {
			case !ook && !nok:
				continue
			case !ook:
				fmt.Fprintf(w, "%-16s %-12s added: only the new set has it\n", name, m.Name)
				continue
			case !nok:
				fmt.Fprintf(w, "%-16s %-12s removed: only the old set has it\n", name, m.Name)
				continue
			}
			ratio := nv.Value / ov.Value
			change := ratio - 1 // > 0 is worse for "lower"
			if m.Better == "higher" {
				change = 1 - ratio
			}
			verdict := "same"
			switch {
			case ov.Spread > m.Bound || nv.Spread > m.Bound:
				verdict = "unresolved"
			case change > m.Bound:
				verdict = "worse"
				worse++
			case change < -m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-16s %-12s %12.4f %12.4f %9.3f of %-8.4g %6.2f  %s\n", name, m.Name, ov.Value, nv.Value, ratio, ov.Value, m.Bound, verdict)
		}
		// Metrics a set reports that BENCHMARK.json does not name are
		// listed, never dropped.
		for _, set := range []struct {
			tag string
			r   *result
		}{{"old", o}, {"new", n}} {
			for m := range set.r.Metrics {
				known := false
				for _, k := range sp.EndToEnd {
					known = known || k.Name == m
				}
				if !known {
					fmt.Fprintf(w, "%-16s %-12s not in BENCHMARK.json (%s set)\n", name, m, set.tag)
				}
			}
		}
		of, nf := o.Printed["fail_share"].Value, n.Printed["fail_share"].Value
		verdict := "same"
		if nf > of {
			verdict = "worse"
			worse++
		}
		fmt.Fprintf(w, "%-16s %-12s %12.6f %12.6f %18s %6s  %s\n", name, "fail_share", of, nf, "", "0", verdict)
		if o.Digest != n.Digest && older.Seed == newer.Seed && older.Scale == newer.Scale {
			fmt.Fprintf(w, "%-16s answer_digest differs: %s, %s\n", name, o.Digest, n.Digest)
			worse++
		}
	}
	if worse > 0 {
		fmt.Fprintf(w, "%d row(s) worse\n", worse)
		return 1
	}
	return 0
}
