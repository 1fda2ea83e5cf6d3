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
	// MCs lists the memory-controller nodes; empty means the bottom row.
	MCs []int
	// PortOf maps a transaction's byte address to an index into MCs.
	// This is where an address hash (or the lack of one) plugs in.
	PortOf func(addr uint64) int
}

// replayCyclesPerTxn bounds how long one step may take to drain, per
// transaction injected: a step past the bound is aborted (safety for
// pathological mappings) and reported as not drained.
const replayCyclesPerTxn = 4096

// ReplayStepStats reports one timestep of the replay.
type ReplayStepStats struct {
	// Transactions injected this step.
	Transactions int
	// Makespan is the cycles from first injection until the network
	// drained.
	Makespan int64
	// AvgLatency is the mean packet latency.
	AvgLatency float64
	// PortCV is the coefficient of variation of per-MC transaction counts
	// (0 = perfectly balanced, the regime Observation #12 reports).
	PortCV float64
	// Drained is false if the step hit the replayCyclesPerTxn bound.
	Drained bool
}

// ReplayTrace injects each timestep's transactions (round-robin across
// the compute nodes) as one-flit request packets toward PortOf(addr) and
// runs the mesh until the step drains, returning per-step statistics.
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
	mcs, compute, err := m.placeMCs(cfg.MCs)
	if err != nil {
		return nil, err
	}
	sinks := make([]*latencySink, len(mcs))
	for i, n := range mcs {
		sinks[i] = &latencySink{}
		m.SetSink(n, sinks[i])
	}
	if len(compute) == 0 {
		return nil, fmt.Errorf("noc: no compute nodes")
	}

	out := make([]ReplayStepStats, 0, len(steps))
	for _, addrs := range steps {
		st := ReplayStepStats{Transactions: len(addrs), Drained: true}
		if len(addrs) == 0 {
			out = append(out, st)
			continue
		}
		portCounts := make([]float64, len(mcs))
		start := m.Cycle()
		var basePkts, baseLat int64
		for _, s := range sinks {
			basePkts += s.packets
			baseLat += s.latencySum
		}
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
				st.Drained = false
				break
			}
			m.Step()
		}
		st.Makespan = m.Cycle() - start
		var pkts, lat int64
		for _, s := range sinks {
			pkts += s.packets
			lat += s.latencySum
		}
		pkts -= basePkts
		lat -= baseLat
		if pkts > 0 {
			st.AvgLatency = float64(lat) / float64(pkts)
		}
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
