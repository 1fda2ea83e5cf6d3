package simcheck

import (
	"bytes"
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
	} {
		v, err := ZeroLoadLatency(cfg, []int{1, 2, 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(v) != 0 {
			t.Fatalf("%dx%d mesh diverges from the zero-load model: %v", cfg.Width, cfg.Height, v[0])
		}
	}
}

// With at most one packet in flight the arbiter never breaks a tie,
// so round-robin and age-based must be byte-for-byte equivalent.
func TestArbiterLowLoadEquivalenceOracle(t *testing.T) {
	cfg := noc.MeshConfig{Width: 4, Height: 4, BufferFlits: 2, Arbiter: noc.RoundRobin}
	v, err := ArbiterLowLoadEquivalence(cfg, 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Fatalf("arbiters diverge on uncontended traffic: %v", v[0])
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
	steps := [][]uint64{{0x0, 0x80, 0x4000, 0x4080}, {}, {0x10000}}
	v, err := ReplayDeterminism(cfg, steps, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Fatalf("replay nondeterministic: %v", v[0])
	}
}

// Trace codec: serialization is deterministic and the round trip is
// lossless (up to nil-vs-empty of individual steps).
func TestTraceCodecRoundTrip(t *testing.T) {
	r := newRNG(5)
	steps := make([][]uint64, 12)
	for i := range steps {
		step := make([]uint64, r.intn(8))
		for j := range step {
			step[j] = r.next()
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
	if len(parsed) != len(steps) {
		t.Fatalf("round trip changed step count: %d -> %d", len(steps), len(parsed))
	}
	for i := range steps {
		if len(parsed[i]) != len(steps[i]) {
			t.Fatalf("step %d changed length: %d -> %d", i, len(steps[i]), len(parsed[i]))
		}
		for j := range steps[i] {
			if parsed[i][j] != steps[i][j] {
				t.Fatalf("step %d addr %d changed: %#x -> %#x", i, j, steps[i][j], parsed[i][j])
			}
		}
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
		if len(again) != len(steps) {
			t.Fatalf("%q: %d steps round-trip to %d", data, len(steps), len(again))
		}
		for i := range steps {
			if !slices.Equal(steps[i], again[i]) {
				t.Fatalf("%q: step %d %v round-trips to %v", data, i, steps[i], again[i])
			}
		}
	})
}
