package simcheck

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"gpunoc/internal/noc"
	"gpunoc/internal/parallel"
)

// Property tests for the replay layer (ISSUE 9 satellite 4): replay
// statistics must be byte-identical run to run, across worker-pool
// sizes, and across a save/load round trip of the trace.

func replayCfg() noc.ReplayConfig {
	return noc.ReplayConfig{
		Mesh:   noc.MeshConfig{Width: 4, Height: 4, BufferFlits: 4, Arbiter: noc.RoundRobin},
		PortOf: noc.HashedPortMapping(4),
	}
}

func replaySteps(seed int64) [][]uint64 {
	r := rand.New(rand.NewSource(seed))
	steps := make([][]uint64, 10)
	for i := range steps {
		step := make([]uint64, 4+r.Intn(28))
		for j := range step {
			step[j] = uint64(r.Int63n(1 << 30))
		}
		steps[i] = step
	}
	return steps
}

// Replays racing in a worker pool must each produce exactly the
// sequential answer: the replay path has no hidden shared state, and
// pool size is invisible in the results. ReplayStepStats is a
// comparable struct, so the comparison is exact equality.
func TestReplayStatsIdenticalAcrossPoolSizes(t *testing.T) {
	steps := replaySteps(21)
	base, err := noc.ReplayTrace(replayCfg(), steps)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4} {
		runs, err := replayRuns(procs, steps)
		if err != nil {
			t.Fatal(err)
		}
		for ri, got := range runs {
			if !slices.Equal(got, base) {
				t.Fatalf("GOMAXPROCS=%d run %d: %+v, sequential says %+v", procs, ri, got, base)
			}
		}
	}
}

// replayRuns replays steps six times on a pool of procs goroutines.
func replayRuns(procs int, steps [][]uint64) ([][]noc.ReplayStepStats, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return parallel.Map(6, func(i int) ([]noc.ReplayStepStats, error) {
		return noc.ReplayTrace(replayCfg(), steps)
	})
}

// A trace that goes to disk and comes back must replay to identical
// statistics.
func TestReplaySaveLoadRoundTrip(t *testing.T) {
	steps := replaySteps(33)
	loaded, err := ParseTrace(TraceBytes(steps))
	if err != nil {
		t.Fatal(err)
	}
	want, err := noc.ReplayTrace(replayCfg(), steps)
	if err != nil {
		t.Fatal(err)
	}
	got, err := noc.ReplayTrace(replayCfg(), loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("round-tripped trace diverged after save/load: %+v vs %+v", got, want)
	}
}
