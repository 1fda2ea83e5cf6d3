package parallel

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, workers := range []int{runtime.GOMAXPROCS(0), 1, 2, 7, 64} {
		got, err := mapSized(workers, 10, func(i int) (int, error) { return i * i, nil })
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
		out, err := mapSized(workers, 23, func(i int) (string, error) {
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
	out, err := mapSized(4, 0, func(i int) (int, error) { return 0, errors.New("must not run") })
	if err != nil || out != nil {
		t.Errorf("n=0: got (%v, %v), want (nil, nil)", out, err)
	}
	// workers > n must not panic or leak goroutines; n=1 with a large pool.
	one, err := mapSized(1000, 1, func(i int) (int, error) { return 42, nil })
	if err != nil || len(one) != 1 || one[0] != 42 {
		t.Errorf("workers>n: got (%v, %v)", one, err)
	}
}

// TestMapLowestIndexErrorWins pins deterministic error selection: with
// several failing indices, the reported error is the lowest-index one —
// what a sequential loop would have stopped at — for every pool size.
func TestMapLowestIndexErrorWins(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		_, err := mapSized(workers, 16, func(i int) (int, error) {
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
	_, err := mapSized(workers, n, func(i int) (int, error) {
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

// TestMapPoolIsGOMAXPROCS pins the one pool-size knob: Map never runs
// more tasks at once than GOMAXPROCS.
func TestMapPoolIsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var mu sync.Mutex
	active, peak := 0, 0
	_, err := Map(64, func(i int) (int, error) {
		mu.Lock()
		active++
		peak = max(peak, active)
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		active--
		mu.Unlock()
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > 2 {
		t.Errorf("%d tasks ran at once under GOMAXPROCS=2", peak)
	}
}
