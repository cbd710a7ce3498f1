// Package exec is the shared parallel-execution layer of the possible-worlds
// engine. Worlds are independent by construction, so every per-world loop —
// query evaluation, assert filtering, fingerprinting, update candidate
// construction — is an ordered map over world indexes. This package provides
// that map with a bounded worker pool, index-ordered result collection, and
// error short-circuiting whose reported error is exactly the one the plain
// sequential loop would have reported.
//
// A workers value of 1 runs the exact sequential path (no goroutines, no
// synchronization); 0 or negative selects runtime.GOMAXPROCS(0). Tasks must
// be independent and deterministic: task i may read shared state but must
// write only to its own slot, which all engine call sites obey.
package exec

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"maybms/internal/obs"
)

var panics = obs.Default().Counter("maybms_panics_total",
	"Panics recovered into a failed statement.")

// Recovered turns a recovered panic value into the error the statement
// fails with, and counts it in maybms_panics_total.
func Recovered(v any) error {
	panics.Inc()
	return fmt.Errorf("internal error: %v", v)
}

// Resolve normalizes a workers setting: n >= 1 is used as-is, anything else
// selects runtime.GOMAXPROCS(0).
func Resolve(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map evaluates fn(0), …, fn(n-1) with at most workers concurrent
// goroutines and returns the results in index order. With workers <= 1 (after
// Resolve) it is exactly the sequential loop, stopping at the first error.
//
// In parallel mode indexes are claimed in increasing order and every claimed
// task runs to completion, so when one or more tasks fail the error returned
// is the one with the lowest index — the same error the sequential loop
// reports — and no results are returned.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := Do(workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MapPolled is Map with poll called before each task: a non-nil return
// fails that task, so a cancelled statement stops between units of work.
// Which task observes the interruption first is scheduling-dependent. A nil
// poll is Map.
func MapPolled[T any](workers, n int, poll func() error, fn func(i int) (T, error)) ([]T, error) {
	if poll == nil {
		return Map(workers, n, fn)
	}
	return Map(workers, n, func(i int) (T, error) {
		if err := poll(); err != nil {
			var zero T
			return zero, err
		}
		return fn(i)
	})
}

// Do is Map without per-task results: it runs fn over [0, n) under the same
// ordering and error contract.
func Do(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	// Per-world tasks are often microseconds of work; claim indexes in
	// chunks so the atomic counter and scheduler overhead amortize while
	// the tail still balances across workers.
	chunk := n / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}

	var (
		next     atomic.Int64
		stopped  atomic.Bool
		mu       sync.Mutex
		firstIdx = n
		firstErr error
		wg       sync.WaitGroup
	)
	record := func(i int, err error) {
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		stopped.Store(true)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// A panicking task fails at its index like an erring one. The
			// worker stops with it; the rest of its chunk lies above the
			// failed index, so the lowest-index error is unchanged.
			i := -1
			defer func() {
				if v := recover(); v != nil {
					record(i, Recovered(v))
				}
			}()
			for {
				if stopped.Load() {
					return
				}
				end := int(next.Add(int64(chunk)))
				start := end - chunk
				if start >= n {
					return
				}
				if end > n {
					end = n
				}
				// A claimed chunk runs to completion even after an error
				// elsewhere: indexes are claimed in increasing order, so
				// everything below a failed index has been claimed and will
				// report, which is what makes the lowest-index error equal
				// the sequential one.
				for i = start; i < end; i++ {
					if err := fn(i); err != nil {
						record(i, err)
					}
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
