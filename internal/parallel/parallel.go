// Package parallel is the repository's sanctioned concurrency runner: a
// worker pool of min(GOMAXPROCS, n) goroutines whose results are
// index-addressed, so a sharded sweep reduces in exactly the order a
// sequential loop would and its output is byte-identical regardless of
// pool size or goroutine scheduling. GOMAXPROCS is the only pool-size
// knob.
//
// The design rules that make sharded sweeps deterministic:
//
//  1. Work is identified by index. Map(n, fn) calls fn(i) for every i
//     in [0, n) and stores fn's result in slot i of the result slice.
//     No channel fan-in, no append from multiple goroutines — reduction
//     order is the index order, decided before any goroutine starts.
//  2. Errors are selected deterministically. When tasks fail, the error
//     of the LOWEST index is returned — the same error a sequential loop
//     would have stopped at — no matter which goroutine finished first.
//  3. Cancellation is cooperative. After the first failure no NEW
//     indices are dispatched; tasks already in flight run to completion
//     (tasks share nothing, so there is nothing to interrupt safely).
//
// The noclint determinism analyzer enforces rule 1 globally: `go`
// statements inside internal packages are flagged everywhere except
// here, so every parallel sweep in the model flows through this runner.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Map runs fn(i) for every i in [0, n) on min(GOMAXPROCS, n)
// goroutines and returns the results in index order. On failure it
// returns the error of the lowest failing index and a nil slice;
// remaining indices are not dispatched once any task has failed. fn must
// be safe for concurrent invocation with distinct indices; results never
// pass through a channel, so output is identical for every GOMAXPROCS.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	return mapSized[T](runtime.GOMAXPROCS(0), n, fn)
}

// mapSized is Map on a pool of min(workers, n) goroutines; workers must
// be positive.
func mapSized[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	workers = min(workers, n)
	if workers == 1 {
		// Inline fast path: no goroutines, exact sequential semantics.
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := fn(i)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	// Deterministic error selection: the lowest failing index, exactly
	// the error the sequential loop above would have returned.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
