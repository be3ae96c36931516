// Package par provides the deterministic work-distribution primitive
// shared by the experiment sweeps (parallel points) and the attack
// pipeline (parallel trials): an indexed parallel map whose result is
// independent of the worker count, because every index writes only its
// own pre-assigned slot and derives any randomness from its own seed.
// This is the repository's whole determinism story in one primitive:
// parallelism only ever distributes index-addressed work, never
// reorders reductions. The map allocates one goroutine per worker and
// an atomic cursor — nothing per index.
package par

import (
	"runtime"
	"sync"
)

// Workers resolves a requested worker count: values < 1 mean "use every
// available CPU" (GOMAXPROCS); there is no artificial ceiling — the
// sweeps are CPU-bound and scale to whatever the hardware offers.
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	w := runtime.GOMAXPROCS(0)
	if w < 1 {
		w = 1
	}
	return w
}

// Map executes fn(i) for every i in [0, n) on up to `workers` goroutines
// and returns the error of the lowest failing index. Indices are claimed
// in order and none is claimed after a failure, so every index below a
// failing one has run: where fn fails deterministically, the error is
// the same at any worker count and on every run. Each index must write
// only its own result slot, so results are identical for any worker
// count.
func Map(n, workers int, fn func(i int) error) error {
	return MapWorker(n, workers, func(_, i int) error { return fn(i) })
}

// MapWorker is Map with the executing worker's id (0 <= id < workers)
// passed to fn, so callers can give each worker its own reusable scratch
// state (feature pipelines, histogram buffers) without synchronization.
func MapWorker(n, workers int, fn func(worker, i int) error) error {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg     sync.WaitGroup
		next   int
		mu     sync.Mutex
		errIdx = n
		err    error
	)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if errIdx < n || next >= n {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	fail := func(i int, e error) {
		mu.Lock()
		defer mu.Unlock()
		if i < errIdx {
			errIdx, err = i, e
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				if e := fn(worker, i); e != nil {
					fail(i, e)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return err
}
