package noc

import (
	"fmt"
	"math"
	"math/rand"

	"gpunoc/internal/obs"
)

// FairnessConfig sets up the Fig. 23 experiment: a Width x Height mesh
// whose bottom-row nodes are memory controllers, with random many-to-few
// traffic from every compute node to the MCs under saturation (infinite
// source backlog).
type FairnessConfig struct {
	Mesh MeshConfig
	// MCs lists the memory-controller node indices. Empty means the
	// bottom row, matching the paper's "memory controllers on the edges".
	MCs []int
	// PacketFlits is the packet size in flits.
	PacketFlits int
	// InjectRate is the offered load in packets per cycle per compute
	// node. The interesting regime is just above saturation, where
	// arbitration decides who gets the contested links.
	InjectRate float64
	// Cycles is the measurement length after warmup.
	Cycles int
	// Warmup cycles are simulated but not measured.
	Warmup int
	// Seed drives the random destination choice.
	Seed int64
	// Obs receives the mesh's instruments; nil runs unobserved.
	Obs *obs.Registry
}

// FairnessResult reports per-compute-node accepted throughput.
type FairnessResult struct {
	// Throughput[i] is accepted packets per cycle for compute node
	// ComputeNodes[i].
	Throughput   []float64
	ComputeNodes []int
	// MaxMinRatio is max/min over compute-node throughputs, the paper's
	// unfairness figure of merit (~2.4x under round-robin, ~1 under
	// age-based arbitration).
	MaxMinRatio float64
}

// RunFairness executes the experiment.
func RunFairness(cfg FairnessConfig) (*FairnessResult, error) {
	if cfg.PacketFlits <= 0 {
		return nil, fmt.Errorf("noc: fairness packet size %d invalid", cfg.PacketFlits)
	}
	if cfg.Cycles <= 0 {
		return nil, fmt.Errorf("noc: fairness cycles %d invalid", cfg.Cycles)
	}
	m, err := NewMesh(cfg.Mesh)
	if err != nil {
		return nil, err
	}
	m.Observe(cfg.Obs)
	mcs, compute, err := m.placeMCs(cfg.MCs)
	if err != nil {
		return nil, err
	}
	if len(compute) == 0 {
		return nil, fmt.Errorf("noc: no compute nodes left")
	}

	if cfg.InjectRate <= 0 {
		return nil, fmt.Errorf("noc: fairness injection rate %v invalid", cfg.InjectRate)
	}
	base := offerLoad(m, compute, mcs, cfg.PacketFlits, cfg.InjectRate, cfg.Warmup, cfg.Cycles, cfg.Seed, m.AcceptedPackets)
	res := &FairnessResult{ComputeNodes: compute}
	res.fold(m.AcceptedPackets, base, cfg.Cycles)
	return res, nil
}

// network is the surface offerLoad drives, shared by Mesh and Xbar.
type network interface {
	PendingInjection(node int) int
	Inject(src, dst, flits int) (Packet, error)
	Step()
}

// offerLoad runs warmup+cycles cycles of Bernoulli sources: each cycle,
// each of srcs offers a flits-flit packet with probability rate to a
// seeded-random entry of dsts. A source whose queue holds more than 16
// packets' worth of flits stops generating, like a core whose MSHRs are
// full. It returns a copy of accepted taken when warm-up ends.
func offerLoad(net network, srcs, dsts []int, flits int, rate float64, warmup, cycles int, seed int64, accepted []int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	var base []int64
	for c := 0; c < warmup+cycles; c++ {
		if c == warmup {
			base = append([]int64(nil), accepted...)
		}
		for _, src := range srcs {
			if rng.Float64() >= rate || net.PendingInjection(src) > 16*flits {
				continue
			}
			if _, err := net.Inject(src, dsts[rng.Intn(len(dsts))], flits); err != nil {
				panic(err) // callers validate every node index
			}
		}
		net.Step()
	}
	return base
}

// placeMCs returns the memory-controller nodes, mcs or the bottom row
// when mcs is empty, and the remaining compute nodes in ascending order.
func (m *Mesh) placeMCs(mcs []int) ([]int, []int, error) {
	if len(mcs) == 0 {
		for x := 0; x < m.cfg.Width; x++ {
			mcs = append(mcs, m.NodeAt(x, m.cfg.Height-1))
		}
	}
	isMC := make([]bool, m.Nodes())
	for _, n := range mcs {
		if n < 0 || n >= m.Nodes() {
			return nil, nil, fmt.Errorf("noc: MC node %d out of range", n)
		}
		isMC[n] = true
	}
	var compute []int
	for n, is := range isMC {
		if !is {
			compute = append(compute, n)
		}
	}
	return mcs, compute, nil
}

// fold fills Throughput with each compute node's packets accepted since
// base, per cycle, and MaxMinRatio with their spread.
func (res *FairnessResult) fold(accepted, base []int64, cycles int) {
	minT, maxT := math.MaxFloat64, 0.0
	for _, n := range res.ComputeNodes {
		tp := float64(accepted[n]-base[n]) / float64(cycles)
		res.Throughput = append(res.Throughput, tp)
		minT, maxT = min(minT, tp), max(maxT, tp)
	}
	res.MaxMinRatio = math.Inf(1)
	if minT > 0 {
		res.MaxMinRatio = maxT / minT
	}
}

// DefaultFairnessConfig mirrors the paper's footnote-10 setup: a 6x6 mesh,
// 30 compute nodes, 6 memory controllers on the edge, dimension-ordered
// routing and the chosen arbitration.
func DefaultFairnessConfig(arb Arbiter, seed int64) FairnessConfig {
	return FairnessConfig{
		Mesh:        MeshConfig{Width: 6, Height: 6, BufferFlits: 8, Arbiter: arb},
		PacketFlits: 1,
		InjectRate:  0.25,
		Warmup:      2000,
		Cycles:      20000,
		Seed:        seed,
	}
}
