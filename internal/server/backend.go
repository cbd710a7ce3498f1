package server

import (
	"fmt"

	"maybms/internal/core"
	"maybms/internal/obs"
	"maybms/internal/wsd"
)

// A backend executes I-SQL statements for one session. Calls are
// serialized by the session's lock; implementations need not be
// concurrency-safe across exec calls (statement execution itself may
// parallelize internally).
type backend interface {
	// exec runs one statement.
	exec(sql string) (*core.Result, error)
	// setInterrupt installs (or clears, with nil) a cooperative
	// cancellation hook polled during statement execution. Backends that
	// cannot cancel mid-statement may ignore it.
	setInterrupt(f func() error)
	// kind returns the backend name ("naive" or "compact").
	kind() string
	// worlds renders the current world count.
	worlds() string
	// counters returns the backend's execution counters (nil for
	// backends without any). The returned values are read from atomics,
	// so counters is safe to call without the session's execution lock.
	counters() *CompactCounters
	// setTrace installs (or clears, with nil) the statement trace that
	// subsequent exec calls report spans into. Serialized like exec.
	setTrace(t *obs.Trace)
	// planCache returns the session's plan-cache lookup attribution
	// (hits, misses against the process-wide shared cache). Read from
	// atomics; safe without the session's execution lock.
	planCache() (hits, misses uint64)
}

// naiveBackend is a full I-SQL session over explicitly enumerated worlds.
type naiveBackend struct {
	s *core.Session
}

func newNaiveBackend(weighted bool, workers, maxWorlds int) *naiveBackend {
	s := core.NewSession(weighted)
	s.SetWorkers(workers)
	if maxWorlds > 0 {
		s.MaxWorlds = maxWorlds
	}
	return &naiveBackend{s: s}
}

func (b *naiveBackend) exec(sql string) (*core.Result, error) { return b.s.Exec(sql) }
func (b *naiveBackend) setInterrupt(f func() error)           { b.s.SetInterrupt(f) }
func (b *naiveBackend) kind() string                          { return "naive" }
func (b *naiveBackend) worlds() string                        { return fmt.Sprintf("%d", b.s.WorldCount()) }
func (b *naiveBackend) counters() *CompactCounters            { return nil }
func (b *naiveBackend) setTrace(t *obs.Trace)                 { b.s.SetTrace(t) }
func (b *naiveBackend) planCache() (uint64, uint64)           { return b.s.PlanCacheCounts() }

// compactBackend is a session over a world-set decomposition; the compact
// backend's statement executor (wsd.WSD.Exec) runs its statements.
type compactBackend struct {
	d *wsd.WSD
}

func newCompactBackend(weighted bool, workers, mergeLimit int) *compactBackend {
	d := wsd.New(weighted)
	d.Workers = workers
	if mergeLimit > 0 {
		d.MergeLimit = mergeLimit
	}
	return &compactBackend{d: d}
}

func (b *compactBackend) exec(sql string) (*core.Result, error) { return b.d.Exec(sql) }
func (b *compactBackend) setInterrupt(f func() error)           { b.d.Interrupt = f }
func (b *compactBackend) kind() string                          { return "compact" }
func (b *compactBackend) worlds() string                        { return b.d.WorldCount().String() }
func (b *compactBackend) setTrace(t *obs.Trace)                 { b.d.Trace = t }
func (b *compactBackend) planCache() (uint64, uint64)           { return b.d.PlanCacheCounts() }

func (b *compactBackend) counters() *CompactCounters {
	return &CompactCounters{
		Merges:        b.d.MergeCount(),
		Componentwise: b.d.ComponentwiseCount(),
		Conditional:   b.d.ConditionalCount(),
	}
}

// newBackend builds a backend by name ("" and "naive" select the naive
// engine, "compact" the world-set-decomposition engine).
func newBackend(name string, weighted bool, workers, maxWorlds int) (backend, error) {
	switch name {
	case "", "naive":
		return newNaiveBackend(weighted, workers, maxWorlds), nil
	case "compact":
		return newCompactBackend(weighted, workers, maxWorlds), nil
	default:
		return nil, fmt.Errorf("unknown backend %q (want naive or compact)", name)
	}
}
