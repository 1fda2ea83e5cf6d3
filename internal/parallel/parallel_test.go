package parallel

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		got, err := Map(workers, 10, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		want := []int{0, 1, 4, 9, 16, 25, 36, 49, 64, 81}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: got %v, want %v", workers, got, want)
		}
	}
}

// TestMapIdenticalAcrossPoolSizes is the runner-level statement of the
// byte-identical requirement: the same fn must reduce to the same slice
// for every worker count, including N > items and N = 1.
func TestMapIdenticalAcrossPoolSizes(t *testing.T) {
	run := func(workers int) []string {
		out, err := Map(workers, 23, func(i int) (string, error) {
			return fmt.Sprintf("row-%02d", i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run(1)
	for _, workers := range []int{2, 3, 23, 100} {
		if got := run(workers); !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d diverged from sequential: %v vs %v", workers, got, ref)
		}
	}
}

func TestMapEmptyAndEdgePools(t *testing.T) {
	out, err := Map(4, 0, func(i int) (int, error) { return 0, errors.New("must not run") })
	if err != nil || out != nil {
		t.Errorf("n=0: got (%v, %v), want (nil, nil)", out, err)
	}
	// workers > n must not panic or leak goroutines; n=1 with a large pool.
	one, err := Map(1000, 1, func(i int) (int, error) { return 42, nil })
	if err != nil || len(one) != 1 || one[0] != 42 {
		t.Errorf("workers>n: got (%v, %v)", one, err)
	}
}

// TestMapLowestIndexErrorWins pins deterministic error selection: with
// several failing indices, the reported error is the lowest-index one —
// what a sequential loop would have stopped at — for every pool size.
func TestMapLowestIndexErrorWins(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		_, err := Map(workers, 16, func(i int) (int, error) {
			if i >= 5 {
				return 0, fmt.Errorf("task %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "task 5 failed" {
			t.Errorf("workers=%d: err = %v, want task 5 failed", workers, err)
		}
	}
}

// TestMapCancelsOnFirstError proves dispatch stops after a failure: with
// an early error, far fewer than n tasks run. In-flight tasks (at most
// one per worker) may still complete.
func TestMapCancelsOnFirstError(t *testing.T) {
	const n, workers = 1000, 4
	var ran atomic.Int64
	_, err := Map(workers, n, func(i int) (int, error) {
		ran.Add(1)
		if i == 3 {
			return 0, errors.New("early failure")
		}
		return i, nil
	})
	if err == nil || err.Error() != "early failure" {
		t.Fatalf("err = %v, want early failure", err)
	}
	// Workers stop claiming indices once the failure flag is set; only
	// tasks claimed before index 3 reported can still run.
	if got := ran.Load(); got >= n/2 {
		t.Errorf("%d of %d tasks ran after an early error; dispatch did not cancel", got, n)
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers() = %d", DefaultWorkers())
	}
}

// TestMapContextNilAndBackgroundMatchMap pins the no-cancel contract:
// a nil context and a never-cancelled one reduce to exactly Map's
// output for every pool size.
func TestMapContextNilAndBackgroundMatchMap(t *testing.T) {
	fn := func(i int) (int, error) { return i * 3, nil }
	want, err := Map(4, 17, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, ctx := range []context.Context{nil, context.Background()} {
		for _, workers := range []int{1, 2, 8} {
			got, err := MapContext(ctx, workers, 17, fn)
			if err != nil {
				t.Fatalf("ctx=%v workers=%d: %v", ctx, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("ctx=%v workers=%d: got %v, want %v", ctx, workers, got, want)
			}
		}
	}
}

// TestMapContextCancelStopsDispatch wedges the pool's first tasks, then
// cancels: no new index may be claimed after the cancel, the call must
// return ctx.Err(), and the in-flight tasks still complete (tasks are
// never interrupted mid-body).
func TestMapContextCancelStopsDispatch(t *testing.T) {
	const n, workers = 1000, 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started sync.WaitGroup
	started.Add(workers)
	release := make(chan struct{})
	var ran atomic.Int64
	go func() {
		// Once the whole first wave is parked inside its task bodies,
		// cancel and release: each worker finishes its in-flight task,
		// observes the dead context at the claim boundary, and exits.
		started.Wait()
		cancel()
		close(release)
	}()
	_, err := MapContext(ctx, workers, n, func(i int) (int, error) {
		ran.Add(1)
		started.Done()
		<-release
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != workers {
		t.Errorf("%d tasks ran; want exactly the %d in flight at cancel time", got, workers)
	}
}

// TestMapContextLowestIndexErrorBeatsCancel: when a task has already
// failed, external cancellation must not mask the deterministic
// lowest-index error.
func TestMapContextLowestIndexErrorBeatsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sentinel := errors.New("task failure")
	_, err := MapContext(ctx, 2, 50, func(i int) (int, error) {
		if i == 0 {
			cancel() // cancel and fail in the same breath
			return 0, sentinel
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want the task's own error to win over ctx.Err()", err)
	}
}

// TestMapContextSkipsUndispatched: with a pre-cancelled context no task
// runs at all, on both the sequential and pooled paths.
func TestMapContextSkipsUndispatched(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		_, err := MapContext(ctx, workers, 100, func(i int) (int, error) {
			ran.Add(1)
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Errorf("workers=%d: %d tasks ran under a dead context", workers, ran.Load())
		}
	}
}
