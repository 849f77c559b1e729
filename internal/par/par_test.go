package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForCallsEveryIndexOnce: every index in [0, n) runs exactly once,
// on a worker whose w lies in [0, min(workers, n)), for worker counts
// below, at and above both n and GOMAXPROCS.
func TestForCallsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		for _, workers := range []int{-1, 0, 1, 3, 64} {
			t.Run(fmt.Sprintf("n%d/w%d", n, workers), func(t *testing.T) {
				want := workers
				if want <= 0 {
					want = runtime.GOMAXPROCS(0)
				}
				want = min(want, n)
				calls := make([]atomic.Int32, n)
				var badW atomic.Int64
				badW.Store(-1)
				err := For(n, workers, func(w, i int) error {
					if w < 0 || w >= want {
						badW.Store(int64(w))
					}
					calls[i].Add(1)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if w := badW.Load(); w >= 0 {
					t.Fatalf("worker index %d outside [0, %d)", w, want)
				}
				for i := range calls {
					if c := calls[i].Load(); c != 1 {
						t.Fatalf("index %d called %d times", i, c)
					}
				}
			})
		}
	}
}

// TestForOneWorkerStopsAtFirstError: one worker walks the indices in
// order, returns the first error, and claims no index after it.
func TestForOneWorkerStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	var ran []int
	err := For(100, 1, func(w, i int) error {
		ran = append(ran, i)
		if i >= 5 {
			return fmt.Errorf("index %d: %w", i, boom)
		}
		return nil
	})
	if !errors.Is(err, boom) || err.Error() != "index 5: boom" {
		t.Fatalf("For returned %v, want the error of index 5", err)
	}
	for k, i := range ran {
		if i != k {
			t.Fatalf("call %d ran index %d, want ascending order", k, i)
		}
	}
	if len(ran) != 6 {
		t.Fatalf("ran %d indices, want 6 (none after the failing one)", len(ran))
	}
}

// TestForAllocsPerCall: For allocates per call, never per index.
func TestForAllocsPerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the count is checked in the plain test run")
	}
	var sink atomic.Int64
	fn := func(w, i int) error {
		sink.Add(int64(i))
		return nil
	}
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := For(n, 2, fn); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(4), allocs(4096)
	t.Logf("allocations per call: %.0f at n=4, %.0f at n=4096", small, large)
	if large > small {
		t.Fatalf("allocations grow with n: %.0f at n=4, %.0f at n=4096", small, large)
	}
}
