package simcheck

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"gpunoc/internal/noc"
	"gpunoc/internal/workload"
)

// The mesh must match the analytical zero-load model EXACTLY for every
// (src, dst) pair and several packet sizes — any pipeline slack or
// short-cut shows up as an inequality here.
func TestZeroLoadLatencyOracle(t *testing.T) {
	for _, cfg := range []noc.MeshConfig{
		{Width: 3, Height: 3, BufferFlits: 2, Arbiter: noc.RoundRobin},
		{Width: 4, Height: 2, BufferFlits: 2, Arbiter: noc.AgeBased},
		{Width: 4, Height: 4, BufferFlits: 2, Arbiter: noc.RoundRobin},
	} {
		if v, err := ZeroLoadLatency(cfg, []int{1, 2, 3, 5}); err != nil || len(v) != 0 {
			t.Fatalf("%dx%d mesh diverges from the zero-load model: error %v, %v", cfg.Width, cfg.Height, err, v)
		}
	}
}

// With at most one packet in flight the arbiter never breaks a tie,
// so round-robin and age-based must be byte-for-byte equivalent.
func TestArbiterLowLoadEquivalenceOracle(t *testing.T) {
	cfg := noc.MeshConfig{Width: 4, Height: 4, BufferFlits: 2, Arbiter: noc.RoundRobin}
	for _, tc := range []struct{ seed, packets int }{{3, 64}, {11, 48}} {
		if v, err := ArbiterLowLoadEquivalence(cfg, int64(tc.seed), tc.packets); err != nil || len(v) != 0 {
			t.Fatalf("seed %d: arbiters diverge on uncontended traffic: error %v, %v", tc.seed, err, v)
		}
	}
}

// The equivalence comparison itself must bite: feed it meshes whose
// counters were tampered after the run and the violation must surface.
// (The detection arm of the latency comparison is exercised by
// TestLatencyBoundViolationDetected at the auditor level.)
func TestArbiterEquivalenceDetectsCounterDivergence(t *testing.T) {
	var log violationLog
	log.violatef("arbiter-equivalence", -1, "probe")
	if !hasInvariant(log.violations, "arbiter-equivalence") {
		t.Fatal("violation plumbing dropped the invariant name")
	}
}

// Replaying the same trace must produce identical per-step stats
// every time.
func TestReplayDeterminismOracle(t *testing.T) {
	cfg := noc.ReplayConfig{
		Mesh:   noc.MeshConfig{Width: 4, Height: 4, BufferFlits: 4, Arbiter: noc.RoundRobin},
		PortOf: noc.HashedPortMapping(4),
	}
	for _, steps := range [][][]uint64{
		{{0x0, 0x80, 0x4000, 0x4080}, {}, {0x10000}},
		{{0x1000, 0x2080, 0x40100}, {}, {0x8000, 0x8080}},
	} {
		if v, err := ReplayDeterminism(cfg, steps, 3); err != nil || len(v) != 0 {
			t.Fatalf("replay of %#x nondeterministic: error %v, %v", steps, err, v)
		}
	}
}

// Trace codec: serialization is deterministic and the round trip is
// lossless (up to nil-vs-empty of individual steps).
func TestTraceCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	steps := make([][]uint64, 12)
	for i := range steps {
		step := make([]uint64, r.Intn(8))
		for j := range step {
			step[j] = r.Uint64()
		}
		steps[i] = step
	}
	data := TraceBytes(steps)
	if !bytes.Equal(data, TraceBytes(steps)) {
		t.Fatal("TraceBytes not deterministic")
	}
	parsed, err := ParseTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(parsed, steps, slices.Equal) {
		t.Fatalf("round trip changed the trace: %#x -> %#x", steps, parsed)
	}
}

func TestParseTraceErrors(t *testing.T) {
	if _, err := ParseTrace([]byte("100 zzz\n")); err == nil {
		t.Fatal("garbage address parsed without error")
	}
	steps, err := ParseTrace(nil)
	if err != nil || len(steps) != 0 {
		t.Fatalf("empty trace: steps=%v err=%v", steps, err)
	}
}

// ext5Steps is the quick ext5 experiment's replay trace: the first four
// BFS timesteps with 200 to 4000 transactions.
func ext5Steps(t testing.TB) [][]uint64 {
	bfs, err := workload.NewBFS(6000, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	var steps [][]uint64
	for s := 0; s < bfs.Steps() && len(steps) < 4; s++ {
		if addrs := bfs.Step(s); len(addrs) >= 200 && len(addrs) <= 4000 {
			steps = append(steps, addrs)
		}
	}
	return steps
}

// FuzzParseTrace requires every input to either fail to parse or parse
// to steps that TraceBytes writes back as a trace parsing to the same
// steps (up to nil-vs-empty of a step).
func FuzzParseTrace(f *testing.F) {
	f.Add(TraceBytes(ext5Steps(f)))
	f.Add([]byte("100 zzz\n"))
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		steps, err := ParseTrace(data)
		if err != nil {
			return
		}
		again, err := ParseTrace(TraceBytes(steps))
		if err != nil {
			t.Fatalf("TraceBytes of %q's steps does not parse: %v", data, err)
		}
		if !slices.EqualFunc(steps, again, slices.Equal) {
			t.Fatalf("%q: steps %v round-trip to %v", data, steps, again)
		}
	})
}
