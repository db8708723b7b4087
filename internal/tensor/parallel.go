package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers maps a Parallelism knob to a worker count: values <= 0 select
// runtime.NumCPU().
func Workers(parallelism int) int {
	if parallelism > 0 {
		return parallelism
	}
	return runtime.NumCPU()
}

// ParallelFor runs fn(i) for every i in [0, n) on up to workers goroutines.
// Items are claimed from a shared atomic counter, so each runs exactly once;
// callers guarantee determinism by making items independent (disjoint output
// regions, sequential accumulation inside an item), which keeps parallel
// output bit-identical to serial. The first error stops further item claims
// and is returned. workers <= 1 runs inline with no goroutines.
func ParallelFor(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
