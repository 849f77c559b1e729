// Package par runs index loops on a bounded pool of goroutines.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls fn(w, i) for every i in [0, n) on min(workers, n)
// goroutines; workers <= 0 means GOMAXPROCS. The goroutines claim
// indices in ascending order from one shared counter, so one worker
// walks 0..n-1 in order, and w (0 <= w < workers) names the calling
// goroutine, for indexing per-worker scratch. After the first error no
// new index is claimed, and For returns that error once the running
// calls end. Its allocations are per call, never per index.
func For(n, workers int, fn func(w, i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	// The loop's shared state is one value, so it escapes in one
	// allocation. The first error sits behind a mutex: publishing it
	// through an atomic pointer to the loop's err would move that
	// variable to the heap on every index.
	var st struct {
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	}
	st.wg.Add(workers)
	for w := range workers {
		go func() {
			defer st.wg.Done()
			for {
				i := st.next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				if err := fn(w, int(i)); err != nil {
					st.mu.Lock()
					if st.first == nil {
						st.first = err
					}
					st.mu.Unlock()
					st.next.Store(int64(n)) // claim nothing more
					return
				}
			}
		}()
	}
	st.wg.Wait()
	return st.first
}
