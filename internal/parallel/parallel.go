// Package parallel is the repository's sanctioned concurrency runner: a
// bounded worker pool whose results are index-addressed, so a sharded
// sweep reduces in exactly the order a sequential loop would and its
// output is byte-identical regardless of worker count or goroutine
// scheduling.
//
// The design rules that make sharded sweeps deterministic:
//
//  1. Work is identified by index. Map(workers, n, fn) calls fn(i) for
//     every i in [0, n) and stores fn's result in slot i of the result
//     slice. No channel fan-in, no append from multiple goroutines —
//     reduction order is the index order, decided before any goroutine
//     starts.
//  2. Errors are selected deterministically. When tasks fail, the error
//     of the LOWEST index is returned — the same error a sequential loop
//     would have stopped at — no matter which goroutine finished first.
//  3. Cancellation is cooperative. After the first failure no NEW
//     indices are dispatched; tasks already in flight run to completion
//     (tasks share nothing, so there is nothing to interrupt safely).
//     MapContext adds an external cancel with the same shape: a context checked only at task-claim boundaries, so the
//     task bodies — the simulators' Step loops — never see a context
//     and stay alloc-free and byte-identical when the context never
//     fires.
//
// The noclint determinism analyzer enforces rule 1 globally: `go`
// statements inside internal packages are flagged everywhere except
// here, so every parallel sweep in the model flows through this runner.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the GOMAXPROCS-derived default pool size. The
// nocchar -parallel N flag adjusts GOMAXPROCS, so the whole process —
// experiment fan-out and inner sweeps alike — honours one knob.
func DefaultWorkers() int {
	return runtime.GOMAXPROCS(0)
}

// normalize clamps a requested worker count to [1, n] with the
// GOMAXPROCS default for workers <= 0. n == 0 yields 0 (no pool).
func normalize(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	return workers
}

// Map runs fn(i) for every i in [0, n) on at most workers goroutines
// (workers <= 0 selects DefaultWorkers) and returns the results in index
// order. On failure it returns the error of the lowest failing index and
// a nil slice; remaining indices are not dispatched once any task has
// failed. fn must be safe for concurrent invocation with distinct
// indices; results never pass through a channel, so output is identical
// for every worker count.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapContext[T](nil, workers, n, fn)
}

// MapContext is Map with an external cancel: when ctx is cancelled, no
// NEW indices are dispatched — exactly the first-error rule applied to a
// caller-side event — and the call returns ctx.Err() once in-flight
// tasks finish. The context is consulted only at task-claim boundaries
// (one Err call per index), never inside fn, so the hot sweep bodies
// stay context-free; with a nil or never-cancelled ctx the results and
// allocation profile are identical to Map. When both a task failure and
// a cancellation occur, the lowest failing index's error wins, matching
// what a sequential ctx-checking loop would have stopped at.
func MapContext[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		return nil, nil
	}
	out := make([]T, n)
	workers = normalize(workers, n)
	if workers == 1 {
		// Inline fast path: no goroutines, exact sequential semantics
		// with the claim-boundary check before each task.
		for i := 0; i < n; i++ {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
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
			for {
				if failed.Load() || ctxErr(ctx) != nil {
					return
				}
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
	// the error the sequential loop above would have returned; external
	// cancellation reports only when no task failed.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	return out, nil
}

// ctxErr is ctx.Err tolerating the nil (no external cancel) context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
