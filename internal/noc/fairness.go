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
	MCs          []int
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
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Bernoulli sources at the configured offered load, with a bounded
	// source queue: a stalled source stops generating, like a core whose
	// MSHRs are full.
	topUp := func() {
		for _, src := range compute {
			if rng.Float64() >= cfg.InjectRate {
				continue
			}
			if m.PendingInjection(src) > 16*cfg.PacketFlits {
				continue
			}
			dst := mcs[rng.Intn(len(mcs))]
			if _, err := m.Inject(src, dst, cfg.PacketFlits, nil); err != nil {
				panic(err) // indices are validated above
			}
		}
	}

	for c := 0; c < cfg.Warmup; c++ {
		topUp()
		m.Step()
	}
	base := make([]int64, m.Nodes())
	copy(base, m.AcceptedPackets)
	for c := 0; c < cfg.Cycles; c++ {
		topUp()
		m.Step()
	}

	res := &FairnessResult{ComputeNodes: compute, MCs: mcs}
	res.fold(m.AcceptedPackets, base, cfg.Cycles)
	return res, nil
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
