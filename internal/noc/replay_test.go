package noc

import "testing"

func replayConfig(portOf func(uint64) int) ReplayConfig {
	return ReplayConfig{
		Mesh:   MeshConfig{Width: 6, Height: 6, BufferFlits: 8, Arbiter: RoundRobin},
		PortOf: portOf,
	}
}

// sequentialTrace returns steps of contiguous 32-byte transactions.
func sequentialTrace(steps, perStep int) [][]uint64 {
	out := make([][]uint64, steps)
	addr := uint64(0)
	for s := range out {
		for i := 0; i < perStep; i++ {
			out[s] = append(out[s], addr)
			addr += 32
		}
	}
	return out
}

func TestReplayValidation(t *testing.T) {
	if _, err := ReplayTrace(ReplayConfig{Mesh: MeshConfig{Width: 4, Height: 4, BufferFlits: 4}}, sequentialTrace(1, 4)); err == nil {
		t.Error("missing PortOf should fail")
	}
	if _, err := ReplayTrace(replayConfig(HashedPortMapping(6)), nil); err == nil {
		t.Error("empty trace should fail")
	}
	bad := replayConfig(func(uint64) int { return 99 })
	if _, err := ReplayTrace(bad, sequentialTrace(1, 4)); err == nil {
		t.Error("out-of-range port should fail")
	}
}

func TestReplayEmptyStep(t *testing.T) {
	stats, err := ReplayTrace(replayConfig(HashedPortMapping(6)), [][]uint64{{}, {0, 32}})
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Transactions != 0 || stats[0].Makespan != 0 {
		t.Error("empty step should be free")
	}
	if stats[1].Transactions != 2 || stats[1].Makespan <= 0 {
		t.Error("second step should deliver")
	}
}

// Section IV-C end to end: a hashed mapping keeps the ports balanced and
// the burst drains in near-ideal time; a camped mapping funnels the whole
// burst into one port and the makespan blows up by roughly the port count.
func TestReplayHashingPreventsMemoryCamping(t *testing.T) {
	trace := sequentialTrace(4, 600)

	hashed, err := ReplayTrace(replayConfig(HashedPortMapping(6)), trace)
	if err != nil {
		t.Fatal(err)
	}
	// One contiguous step is < the camping region, so every transaction
	// of a step lands on one port.
	camped, err := ReplayTrace(replayConfig(CampedPortMapping(6, 1<<20)), trace)
	if err != nil {
		t.Fatal(err)
	}
	for s := range trace {
		h, c := hashed[s], camped[s]
		if h.PortCV > 0.2 {
			t.Errorf("step %d: hashed port CV %.2f, want balanced", s, h.PortCV)
		}
		if c.PortCV < 1.5 {
			t.Errorf("step %d: camped port CV %.2f, want concentrated", s, c.PortCV)
		}
		if float64(c.Makespan) < 2.5*float64(h.Makespan) {
			t.Errorf("step %d: camping makespan %d should dwarf hashed %d", s, c.Makespan, h.Makespan)
		}
	}
	// Hashed throughput approaches the 6-port ejection limit.
	h0 := hashed[0]
	ideal := float64(h0.Transactions) / 6.0
	if float64(h0.Makespan) > 1.6*ideal {
		t.Errorf("hashed makespan %d vs ideal %.0f; too far from port-limited", h0.Makespan, ideal)
	}
}

func TestPortMappings(t *testing.T) {
	h := HashedPortMapping(8)
	counts := make([]int, 8)
	for i := 0; i < 8000; i++ {
		p := h(uint64(i) * 128)
		if p < 0 || p >= 8 {
			t.Fatalf("hash out of range: %d", p)
		}
		counts[p]++
	}
	for p, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("hashed port %d gets %d of 8000", p, c)
		}
	}
	c := CampedPortMapping(4, 1024)
	if c(0) != 0 || c(1023) != 0 || c(1024) != 1 || c(4096) != 0 {
		t.Error("camped mapping wrong")
	}
}

// A one-transaction step drains in its hop count plus 2 cycles, so on a
// one-column mesh the top node's transaction to the single bottom-row MC
// meets the replayCyclesPerTxn bound at a height of 4095 and passes it
// at 4096. Passing it is an error, not a truncated makespan.
func TestReplayStepPastBoundIsError(t *testing.T) {
	column := func(height int) ReplayConfig {
		return ReplayConfig{
			Mesh:   MeshConfig{Width: 1, Height: height, BufferFlits: 1, Arbiter: RoundRobin},
			PortOf: func(uint64) int { return 0 },
		}
	}
	stats, err := ReplayTrace(column(replayCyclesPerTxn-1), [][]uint64{{0}})
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Makespan != replayCyclesPerTxn {
		t.Fatalf("makespan %d at the bound, want %d", stats[0].Makespan, replayCyclesPerTxn)
	}
	if stats, err := ReplayTrace(column(replayCyclesPerTxn), [][]uint64{{0}}); err == nil {
		t.Fatalf("a step past the bound returned %+v, want an error", stats)
	}
}
