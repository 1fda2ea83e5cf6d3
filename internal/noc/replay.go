package noc

import (
	"fmt"

	"gpunoc/internal/stats"
)

// Trace replay drives the flit-level mesh with an application's memory
// transactions instead of synthetic random traffic. This closes the loop
// on the paper's Section IV-C: when the address mapping load-balances
// transactions across the memory ports (as the GPU's hash does), the NoC
// digests each burst quickly; when it does not - "memory camping" [41] -
// one port's column serializes the burst and the makespan explodes.

// ReplayConfig configures a trace replay.
type ReplayConfig struct {
	Mesh MeshConfig
	// PortOf maps a transaction's byte address to one of the bottom-row
	// memory controllers, numbered from the left; this is where an
	// address hash (or the lack of one) plugs in.
	PortOf func(addr uint64) int
}

// replayCyclesPerTxn bounds how long one step may take to drain, per
// transaction injected: a step past the bound aborts the replay with an
// error (safety for pathological mappings), so no reported makespan is
// truncated.
const replayCyclesPerTxn = 4096

// ReplayStepStats reports one timestep of the replay.
type ReplayStepStats struct {
	// Transactions injected this step.
	Transactions int
	// Makespan is the cycles from first injection until the network
	// drained.
	Makespan int64
	// PortCV is the coefficient of variation of per-MC transaction counts
	// (0 = perfectly balanced, the regime Observation #12 reports).
	PortCV float64
}

// ReplayTrace injects each timestep's transactions (round-robin across
// the compute nodes) as one-flit request packets toward PortOf(addr) and
// runs the mesh until the step drains, returning per-step statistics. A
// step that does not drain within replayCyclesPerTxn cycles per
// transaction is an error.
func ReplayTrace(cfg ReplayConfig, steps [][]uint64) ([]ReplayStepStats, error) {
	if cfg.PortOf == nil {
		return nil, fmt.Errorf("noc: replay needs a PortOf mapping")
	}
	if len(steps) == 0 {
		return nil, fmt.Errorf("noc: empty trace")
	}
	m, err := NewMesh(cfg.Mesh)
	if err != nil {
		return nil, err
	}
	mcs, compute, err := m.placeMCs(nil)
	if err != nil {
		return nil, err
	}
	if len(compute) == 0 {
		return nil, fmt.Errorf("noc: no compute nodes")
	}

	out := make([]ReplayStepStats, 0, len(steps))
	for _, addrs := range steps {
		st := ReplayStepStats{Transactions: len(addrs)}
		if len(addrs) == 0 {
			out = append(out, st)
			continue
		}
		portCounts := make([]float64, len(mcs))
		start := m.Cycle()
		// Queue every transaction; injection drains as buffers allow.
		for i, addr := range addrs {
			port := cfg.PortOf(addr)
			if port < 0 || port >= len(mcs) {
				return nil, fmt.Errorf("noc: PortOf(%#x) = %d outside [0, %d)", addr, port, len(mcs))
			}
			portCounts[port]++
			src := compute[i%len(compute)]
			if _, err := m.Inject(src, mcs[port], 1); err != nil {
				return nil, err
			}
		}
		limit := replayCyclesPerTxn * len(addrs)
		for cycles := 0; !m.Drained(); cycles++ {
			if cycles >= limit {
				return nil, fmt.Errorf("noc: replay step %d of %d transactions did not drain in %d cycles", len(out), len(addrs), limit)
			}
			m.Step()
		}
		st.Makespan = m.Cycle() - start
		if mean := stats.Mean(portCounts); mean > 0 {
			st.PortCV = stats.StdDev(portCounts) / mean
		}
		out = append(out, st)
	}
	return out, nil
}

// HashedPortMapping spreads line addresses across n ports with a mixing
// hash, the anti-camping mapping modern GPUs use.
func HashedPortMapping(n int) func(addr uint64) int {
	return func(addr uint64) int {
		line := addr >> 7
		h := line
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		return int(h % uint64(n))
	}
}

// CampedPortMapping sends large contiguous regions to the same port
// (plain address interleaving at a huge granularity), the access pattern
// that produces memory camping.
func CampedPortMapping(n int, regionBytes uint64) func(addr uint64) int {
	return func(addr uint64) int {
		return int((addr / regionBytes) % uint64(n))
	}
}
