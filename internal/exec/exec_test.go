package exec

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestMapOrdered(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 16, 100} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for _, n := range []int{0, 1, 2, 7, 64, 1000} {
				out, err := Map(workers, n, func(i int) (int, error) { return i * i, nil })
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				if len(out) != n {
					t.Fatalf("n=%d: got %d results", n, len(out))
				}
				for i, v := range out {
					if v != i*i {
						t.Fatalf("n=%d: out[%d] = %d, want %d", n, i, v, i*i)
					}
				}
			}
		})
	}
}

func TestMapLowestIndexError(t *testing.T) {
	// Several tasks fail; the reported error must be the lowest-index one,
	// matching what a sequential loop would return.
	fails := map[int]bool{13: true, 5: true, 99: true}
	for _, workers := range []int{1, 3, 8} {
		_, err := Map(workers, 200, func(i int) (int, error) {
			if fails[i] {
				return 0, fmt.Errorf("task %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "task 5 failed" {
			t.Fatalf("workers=%d: got error %v, want task 5 failed", workers, err)
		}
	}
}

// TestMapPanicIsTaskError: a task that panics on a worker goroutine fails at
// its index, under the lowest-index contract, instead of killing the
// process; an erring task below it still wins.
func TestMapPanicIsTaskError(t *testing.T) {
	for _, tc := range []struct {
		fails map[int]bool
		want  string
	}{
		{map[int]bool{}, "internal error: boom at 7"},
		{map[int]bool{3: true}, "task 3 failed"},
	} {
		_, err := Map(4, 64, func(i int) (int, error) {
			if i == 7 || i == 40 {
				panic(fmt.Sprintf("boom at %d", i))
			}
			if tc.fails[i] {
				return 0, fmt.Errorf("task %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != tc.want {
			t.Errorf("got %v, want %s", err, tc.want)
		}
	}
}

func TestDoShortCircuits(t *testing.T) {
	// After an error, not every remaining task should run (with enough
	// tasks the pool must stop claiming new chunks).
	var ran atomic.Int64
	boom := errors.New("boom")
	err := Do(4, 100000, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if got := ran.Load(); got == 100000 {
		t.Fatalf("all %d tasks ran despite early error", got)
	}
}

func TestResolve(t *testing.T) {
	if Resolve(3) != 3 {
		t.Fatal("Resolve(3) != 3")
	}
	if Resolve(0) < 1 || Resolve(-5) < 1 {
		t.Fatal("Resolve of non-positive must be >= 1")
	}
}
