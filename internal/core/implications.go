package core

import (
	"fmt"
	"math/rand"

	"gpunoc/internal/bottleneck"
	"gpunoc/internal/gpu"
	"gpunoc/internal/kernel"
	"gpunoc/internal/noc"
	"gpunoc/internal/rsa"
	"gpunoc/internal/sidechannel"
	"gpunoc/internal/stats"
)

// CheckImplications evaluates the paper's Implications #1-#6. Like
// CheckObservations it is an end-to-end consistency check, but for the
// paper's *consequences* rather than its raw measurements.
func CheckImplications() ([]CheckResult, error) {
	var out []CheckResult
	add := func(id int, text string, pass bool, detail string) {
		out = append(out, CheckResult{ID: id, Text: text, Pass: pass, Detail: detail})
	}

	v100, err := NewContext(gpu.V100(), true)
	if err != nil {
		return nil, err
	}
	a100, err := NewContext(gpu.A100(), true)
	if err != nil {
		return nil, err
	}

	// #1: NoC characterization reveals core/slice placement.
	clusters, err := sidechannel.ClusterSMsByLatency(v100.Device, []int{0, 6, 2, 8, 4, 10}, 8, 0.9)
	if err != nil {
		return nil, err
	}
	add(1, "NoC characterization leaks placement for co-location",
		len(clusters) == 3,
		fmt.Sprintf("6 probed SMs -> %d placement groups (want the 3 column pairs)", len(clusters)))

	// #2: non-uniform latency shifts side-channel timing across cores:
	// an attacker calibrated on one SM mis-reads a kernel running on an
	// SM placed elsewhere in the GPC (a different TPC position).
	nearSM := v100.Device.SMsOfGPC(0)[0]
	farSM := v100.Device.SMsOfGPC(0)[13]
	c0, err := sidechannel.TimingVsUniqueLines(v100.Device, nearSM, 16, 8)
	if err != nil {
		return nil, err
	}
	c1, err := sidechannel.TimingVsUniqueLines(v100.Device, farSM, 16, 8)
	if err != nil {
		return nil, err
	}
	shift := stats.Mean(c1) - stats.Mean(c0)
	if shift < 0 {
		shift = -shift
	}
	add(2, "Core placement shifts timing-channel calibration",
		shift > 2,
		fmt.Sprintf("mean warp-timing shift between SM%d and SM%d: %.1f cycles", nearSM, farSM, shift))

	// #3: random thread-block scheduling degrades the RSA channel.
	opts := kernel.DefaultOptions()
	opts.GridSync = true
	staticM, err := kernel.NewMachine(a100.Device, kernel.ListScheduler{SMs: []int{0, 8}}, opts)
	if err != nil {
		return nil, err
	}
	schedRng := rand.New(rand.NewSource(7))
	randomM, err := kernel.NewMachine(a100.Device, kernel.RandomScheduler{Rand: schedRng.Uint64}, opts)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(3))
	mae := func(m *kernel.Machine) (float64, error) {
		timer := rsa.NewGPUTimer(m)
		ones := []int{8, 24, 40, 56}
		calib, err := sidechannel.CollectRSATimings(timer, 64, ones, 3, rng)
		if err != nil {
			return 0, err
		}
		test, err := sidechannel.CollectRSATimings(timer, 64, ones, 2, rng)
		if err != nil {
			return 0, err
		}
		_, e, err := sidechannel.EvaluateRSAAttack(calib, test)
		return e, err
	}
	sMAE, err := mae(staticM)
	if err != nil {
		return nil, err
	}
	rMAE, err := mae(randomM)
	if err != nil {
		return nil, err
	}
	add(3, "Random thread-block scheduling blunts timing attacks",
		rMAE > 5*sMAE+1,
		fmt.Sprintf("ones-count inference MAE: static %.2f vs random %.2f bits", sMAE, rMAE))

	// #4: a properly provisioned NoC does not bottleneck memory or L2.
	stages, err := bottleneck.Hierarchy(v100.Device.Config(), v100.Engine.Profile())
	if err != nil {
		return nil, err
	}
	memBound, binding, err := bottleneck.MemoryBound(stages)
	if err != nil {
		return nil, err
	}
	add(4, "Real-GPU NoC does not bottleneck memory or L2 bandwidth",
		memBound,
		fmt.Sprintf("series bottleneck: %s", binding.Name))

	// #5: interface bandwidth, not just bisection, must be provisioned.
	starved := v100.Engine.Profile()
	starved.MPPortGBs = 40
	sStages, err := bottleneck.Hierarchy(v100.Device.Config(), starved)
	if err != nil {
		return nil, err
	}
	factor, err := bottleneck.NetworkWallFactor(sStages)
	if err != nil {
		return nil, err
	}
	add(5, "Insufficient interface bandwidth creates a network wall",
		factor > 1.5,
		fmt.Sprintf("starving the NoC-MEM interface yields wall factor %.1fx", factor))

	// #6: multi-hop meshes struggle to provide uniform bandwidth; a
	// hierarchical organization does not.
	mesh, err := noc.RunFairness(fastFairness(noc.RoundRobin))
	if err != nil {
		return nil, err
	}
	xbar, err := noc.RunXbarFairness(fastXbarFairness(noc.RoundRobin))
	if err != nil {
		return nil, err
	}
	add(6, "Multi-hop meshes are non-uniform; hierarchical crossbars are not",
		mesh.MaxMinRatio > 2 && xbar.MaxMinRatio < 1.3,
		fmt.Sprintf("round-robin max/min ratio: mesh %.2fx vs crossbar %.2fx", mesh.MaxMinRatio, xbar.MaxMinRatio))

	return out, nil
}

func fastFairness(arb noc.Arbiter) noc.FairnessConfig {
	cfg := noc.DefaultFairnessConfig(arb, 42)
	cfg.Cycles, cfg.Warmup = 6000, 1000
	return cfg
}

func fastXbarFairness(arb noc.Arbiter) noc.XbarFairnessConfig {
	cfg := noc.DefaultXbarFairnessConfig(arb, 42)
	cfg.Cycles, cfg.Warmup = 6000, 1000
	return cfg
}
