package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"
)

// setUps is how often a run sets the workload up from nothing; setup_s is
// the median, and the rounds are measured on the last one.
const setUps = 5

// options are the settings of one run.
type options struct {
	seed    int64
	scale   string
	seconds float64
	workDir string // everything a run writes goes under here
	bin     string // the built maybms-serve
}

// A value is one measured number with its unit. Spread is the distance
// between the quartiles of the per-round values over their median, for
// metrics that have per-round values.
type value struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"round_spread,omitempty"`
}

// A result is everything one run of one workload reports.
type result struct {
	Workload  string           `json:"workload"`
	Rounds    int              `json:"rounds"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	FirstErr  string           `json:"first_error,omitempty"`
	Digest    string           `json:"answer_digest,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	// Printed are reported but not gated: tail latency, per-class medians,
	// the loader's share of the processor time.
	Printed map[string]value `json:"printed,omitempty"`
	// Counts repeat exactly for a seed and scale, except as noted.
	Counts map[string]float64 `json:"counts,omitempty"`
	Shares []layerShare       `json:"shares,omitempty"`
}

// fail counts n failed statements or checks and keeps the first reason.
func (r *result) fail(n int, format string, args ...any) {
	r.Failed += n
	if r.FirstErr == "" {
		r.FirstErr = fmt.Sprintf(format, args...)
	}
}

// median and quartile distance follow Python's statistics.median and
// statistics.quantiles(values, n=4), the driver's definitions.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func spread(xs []float64) float64 {
	n := len(xs)
	m := median(xs)
	if n < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 { // the exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / m
}

// percentile returns the p-th percentile of sorted nanosecond samples in
// milliseconds, and how many samples lie beyond it.
func percentile(sorted []int64, p float64) (ms float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / 1e6, len(sorted) - 1 - i
}

// typicalLatency is the benchmark's p50_ms: the median latency of each
// statement class in milliseconds, and their geometric mean weighted by
// the classes' shares of the statements. The plain median of a mixed
// script sits on the border between two classes and jumps from one to the
// other with the seed; a class's own median does not, and this mean moves
// in proportion when any class gets slower.
func typicalLatency(samples []sample) (float64, map[string]float64) {
	byClass := map[string][]int64{}
	for _, s := range samples {
		byClass[s.class] = append(byClass[s.class], s.nanos)
	}
	medians := map[string]float64{}
	var logSum float64
	for class, lat := range byClass {
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		medians[class], _ = percentile(lat, 0.5)
		logSum += float64(len(lat)) * math.Log(medians[class])
	}
	return math.Exp(logSum / float64(max(1, len(samples)))), medians
}

// setUp brings a workload up from nothing: server start, input
// generation, load and warm-up round.
func setUp(o options, name string) (*child, *driver, float64, error) {
	t0 := time.Now()
	srv, err := startServer(o.bin)
	if err != nil {
		return nil, nil, 0, err
	}
	w, err := generate(name, o.seed, o.scale)
	dataDir := filepath.Join(o.workDir, "data", name)
	if err == nil {
		err = w.writeFiles(dataDir)
	}
	var d *driver
	if err == nil {
		d, err = newDriver(w, srv.addr, dataDir)
	}
	if err == nil {
		if err = d.setUp(nil); err != nil {
			d.close()
		}
	}
	if err != nil {
		srv.stop()
		return nil, nil, 0, err
	}
	return srv, d, time.Since(t0).Seconds(), nil
}

// runUntraced measures the end-to-end metrics of one workload against a
// server child, with tracing off.
func runUntraced(o options, name string) (*result, error) {
	res := &result{Workload: name, Metrics: map[string]value{}, Printed: map[string]value{}, Counts: map[string]float64{}}
	if err := answerCheck(o, name, res); err != nil {
		return nil, err
	}

	var srv *child
	var d *driver
	var setups []float64
	for i := 0; i < setUps; i++ {
		if srv != nil {
			d.close()
			srv.stop()
		}
		var secs float64
		var err error
		if srv, d, secs, err = setUp(o, name); err != nil {
			return nil, err
		}
		setups = append(setups, secs)
	}
	defer srv.stop()
	defer d.close()

	before, err := d.stats()
	if err != nil {
		return nil, err
	}
	cpuSrv0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	cpuSelf0 := selfCPUSeconds()

	stopSampler := srv.sampleRSS()
	var rounds []roundResult
	// The digest needs two rounds to compare, however short the run.
	for t0 := time.Now(); len(rounds) < 2 || time.Since(t0).Seconds() < o.seconds; {
		r, err := d.run(d.w.Scripts, nil)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
	}
	rss := stopSampler()

	cpuSelf := selfCPUSeconds() - cpuSelf0
	cpuSrv, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	cpuSrv -= cpuSrv0
	after, err := d.stats()
	if err != nil {
		return nil, err
	}
	peak, err := srv.rssMB("VmHWM")
	if err != nil {
		return nil, err
	}

	// Rounds are too short for per-class medians of their own, so the
	// spread of p50_ms is taken over fifths of the run.
	var perSec, p50s []float64
	var all []sample
	fifth := (len(rounds) + 4) / 5
	var part []sample
	for i, r := range rounds {
		res.Attempted += len(r.samples)
		if r.failed > 0 {
			res.fail(r.failed, "round %d: %s", i, r.firstErr)
		}
		if r.digest != rounds[0].digest {
			res.fail(1, "round %d: answer digest %s differs from round 0's %s", i, r.digest, rounds[0].digest)
		}
		perSec = append(perSec, float64(len(r.samples))/r.wall.Seconds())
		all = append(all, r.samples...)
		part = append(part, r.samples...)
		if (i+1)%fifth == 0 || i == len(rounds)-1 {
			p, _ := typicalLatency(part)
			p50s = append(p50s, p)
			part = nil
		}
	}
	p50, byClass := typicalLatency(all)

	res.Rounds = len(rounds)
	res.Digest = rounds[0].digest.String()
	res.Metrics["stmts_per_s"] = value{median(perSec), "1/s", spread(perSec)}
	res.Metrics["p50_ms"] = value{p50, "ms", spread(p50s)}
	res.Metrics["setup_s"] = value{median(setups), "s", spread(setups)}
	res.Metrics["rss_mb"] = value{Value: rss, Unit: "MB"}

	lat := make([]int64, len(all))
	for i, s := range all {
		lat[i] = s.nanos
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	p99, beyond := percentile(lat, 0.99)
	res.Printed["p99_ms"] = value{Value: p99, Unit: "ms"}
	res.Printed["p99_beyond"] = value{Value: float64(beyond), Unit: "count"}
	res.Printed["p50_samples"] = value{Value: float64(len(all)), Unit: "count"}
	res.Printed["peak_rss_mb"] = value{Value: peak, Unit: "MB"}
	res.Printed["fail_share"] = value{Value: float64(res.Failed) / float64(max(1, res.Attempted)), Unit: "ratio"}
	if cpuSelf+cpuSrv > 0 {
		res.Printed["loader_cpu_share"] = value{Value: cpuSelf / (cpuSelf + cpuSrv), Unit: "ratio"}
	}
	for class, ms := range byClass {
		res.Printed["p50_ms."+class] = value{Value: ms, Unit: "ms"}
	}

	n := float64(len(rounds))
	res.Counts["statements_per_round"] = float64(len(rounds[0].samples))
	res.Counts["resp_bytes_per_round"] = float64(rounds[0].respBytes)
	res.Counts["stmt_bytes_per_round"] = float64(rounds[0].stmtBytes)
	for _, r := range rounds[1:] {
		if r.respBytes != rounds[0].respBytes {
			res.fail(1, "response bytes differ between rounds: %d and %d", rounds[0].respBytes, r.respBytes)
			break
		}
	}
	// Sessions racing on a text that is new to the shared cache may each
	// compile it, so misses and prepares can differ by a few between runs.
	res.Counts["plan_prepares_per_round"] = float64(after.Server.Prepares-before.Server.Prepares) / n
	res.Counts["plan_cache_hits_per_round"] = float64(after.Server.CacheHits-before.Server.CacheHits) / n
	res.Counts["plan_cache_misses_per_round"] = float64(after.Server.CacheMisses-before.Server.CacheMisses) / n
	return res, nil
}
