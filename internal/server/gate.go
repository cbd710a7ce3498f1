package server

import (
	"context"
	"runtime"
	"time"

	"maybms/internal/obs"
)

// Gate admission telemetry: statements admitted, admissions that had to
// wait for a slot, and how long admission took (near-zero when idle,
// the queueing delay under load). One observation per statement.
var (
	gateAcquires = obs.Default().Counter("maybms_gate_acquires_total",
		"Statement admissions through the execution gate.")
	gateWaits = obs.Default().Counter("maybms_gate_waited_total",
		"Admissions that blocked waiting for a free slot.")
	gateWaitSeconds = obs.Default().Histogram("maybms_gate_wait_seconds",
		"Admission wait time in seconds.", obs.DurationBuckets)
)

// gate is a counting semaphore bounding how many statements execute at once
// across sessions: the server acquires a slot per statement execution. A
// statement runs on one goroutine, so the gate is the server's only bound
// on engine parallelism.
type gate struct {
	slots chan struct{}
}

// newGate creates a gate with slots slots; slots < 1 selects
// runtime.GOMAXPROCS(0).
func newGate(slots int) *gate {
	if slots < 1 {
		slots = runtime.GOMAXPROCS(0)
	}
	return &gate{slots: make(chan struct{}, slots)}
}

// acquire blocks until a slot is free or ctx is done, returning ctx's
// error in the latter case.
func (g *gate) acquire(ctx context.Context) error {
	// Fast path: a free slot means no wait to measure (and no clock read
	// when metrics are off).
	select {
	case g.slots <- struct{}{}:
		gateAcquires.Inc()
		return nil
	default:
	}
	var start time.Time
	if obs.Enabled() {
		start = time.Now()
	}
	select {
	case g.slots <- struct{}{}:
		gateAcquires.Inc()
		gateWaits.Inc()
		if !start.IsZero() {
			gateWaitSeconds.Observe(time.Since(start).Seconds())
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release frees a slot acquired with acquire.
func (g *gate) release() { <-g.slots }

// size returns the number of slots.
func (g *gate) size() int { return cap(g.slots) }
