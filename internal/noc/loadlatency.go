package noc

import (
	"gpunoc/internal/obs"
	"gpunoc/internal/units"

	"fmt"
	"math/rand"
)

// This file adds the classic NoC characterization sweep - average packet
// latency versus offered load - to the mesh simulator. The paper's
// Section VI leans on the saturation behaviour of baseline NoCs
// ("bisection bandwidth only becomes an important metric if the nodes are
// injecting sufficient bandwidth to saturate it"); the load-latency curve
// is where that saturation point is read off.

// latencySink counts delivered packets and accumulates their network
// latency (delivery cycle minus creation cycle). Only packets created at
// or after measureFrom count: a packet injected during warm-up but
// delivered during measurement carries warm-up queueing in its latency,
// which biased the mean upward near saturation where queues are deepest.
type latencySink struct {
	measureFrom int64
	packets     int64
	latencySum  int64
}

func (s *latencySink) Accept(p Packet, lastFlit bool, cycle int64) bool {
	if lastFlit && p.CreatedAt >= s.measureFrom {
		s.packets++
		s.latencySum += cycle - p.CreatedAt
	}
	return true
}

// LoadPoint is one point of a load-latency sweep.
type LoadPoint struct {
	// OfferedRate is packets per cycle per compute node.
	OfferedRate float64
	// AcceptedRate is delivered packets per cycle per compute node.
	AcceptedRate float64
	// AvgLatency is the mean packet network latency.
	AvgLatency units.Cycles
}

// LoadLatencyConfig configures the sweep; topology and traffic follow the
// fairness experiment (random many-to-few onto the bottom-row MCs).
type LoadLatencyConfig struct {
	Mesh        MeshConfig
	PacketFlits int
	Rates       []float64
	Cycles      int
	Warmup      int
	Seed        int64
	// Obs receives one mesh instrument scope per swept rate; nil runs
	// unobserved.
	Obs *obs.Registry
}

// DefaultLoadLatencyConfig sweeps the Fig. 23 topology across offered
// loads up to saturation.
func DefaultLoadLatencyConfig(arb Arbiter, seed int64) LoadLatencyConfig {
	return LoadLatencyConfig{
		Mesh:        MeshConfig{Width: 6, Height: 6, BufferFlits: 8, Arbiter: arb},
		PacketFlits: 1,
		Rates:       []float64{0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3},
		Cycles:      8000,
		Warmup:      1000,
		Seed:        seed,
	}
}

// RunLoadLatency executes the sweep and returns one point per rate.
func RunLoadLatency(cfg LoadLatencyConfig) ([]LoadPoint, error) {
	if len(cfg.Rates) == 0 {
		return nil, fmt.Errorf("noc: no rates to sweep")
	}
	if cfg.PacketFlits <= 0 || cfg.Cycles <= 0 {
		return nil, fmt.Errorf("noc: invalid load-latency parameters")
	}
	points := make([]LoadPoint, 0, len(cfg.Rates))
	for _, rate := range cfg.Rates {
		if rate <= 0 {
			return nil, fmt.Errorf("noc: non-positive rate %v", rate)
		}
		m, err := NewMesh(cfg.Mesh)
		if err != nil {
			return nil, err
		}
		m.Observe(cfg.Obs.Scope(fmt.Sprintf("rate%.2f", rate)))
		mcs, compute, err := m.placeMCs(nil)
		if err != nil {
			return nil, err
		}
		sinks := make([]*latencySink, len(mcs))
		for i, n := range mcs {
			sinks[i] = &latencySink{measureFrom: int64(cfg.Warmup)}
			m.SetSink(n, sinks[i])
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		step := func() error {
			for _, src := range compute {
				if rng.Float64() >= rate {
					continue
				}
				if m.PendingInjection(src) > 16*cfg.PacketFlits {
					continue
				}
				dst := mcs[rng.Intn(len(mcs))]
				if _, err := m.Inject(src, dst, cfg.PacketFlits); err != nil {
					return err
				}
			}
			m.Step()
			return nil
		}
		// The sinks themselves ignore warm-up-created packets (see
		// latencySink), so no baseline subtraction is needed: everything
		// they record belongs to the measurement interval.
		for c := 0; c < cfg.Warmup+cfg.Cycles; c++ {
			if err := step(); err != nil {
				return nil, err
			}
		}
		var pkts, lat int64
		for _, s := range sinks {
			pkts += s.packets
			lat += s.latencySum
		}
		pt := LoadPoint{OfferedRate: rate}
		if pkts > 0 {
			pt.AcceptedRate = float64(pkts) / float64(cfg.Cycles) / float64(len(compute))
			pt.AvgLatency = units.Cycles(float64(lat) / float64(pkts))
		}
		points = append(points, pt)
	}
	return points, nil
}

// SaturationRate estimates the sweep's saturation throughput: the highest
// accepted rate observed.
func SaturationRate(points []LoadPoint) float64 {
	best := 0.0
	for _, p := range points {
		if p.AcceptedRate > best {
			best = p.AcceptedRate
		}
	}
	return best
}
