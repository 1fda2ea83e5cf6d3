// Benchmark harness: one benchmark per (gpu, experiment) key of the
// registry, plus ablation benchmarks for the design choices DESIGN.md
// calls out. Run with:
//
//	go test -run '^$' -bench . -benchmem
//
// The ablations report their figures of merit via b.ReportMetric; each
// experiment's own figures of merit are in its rendered artifacts.
package gpunoc_test

import (
	"math/rand"
	"testing"

	"gpunoc"
	"gpunoc/internal/bandwidth"
	"gpunoc/internal/core"
	"gpunoc/internal/gpu"
	"gpunoc/internal/kernel"
	"gpunoc/internal/microbench"
	"gpunoc/internal/noc"
	"gpunoc/internal/perfbench"
	"gpunoc/internal/rsa"
	"gpunoc/internal/sidechannel"
	"gpunoc/internal/stats"
)

// BenchmarkExperiments cold-fills, in quick mode, every (gpu, experiment)
// key that `nocchar -all` runs, as sub-benchmark <GPU>/<id>. A key whose
// run returns an error is reported as a skip carrying that error.
func BenchmarkExperiments(b *testing.B) {
	for _, cfg := range gpu.AllConfigs() {
		b.Run(string(cfg.Name), func(b *testing.B) {
			for _, e := range core.All() {
				if e.SupportsGPU(cfg.Name) {
					b.Run(e.ID, func(b *testing.B) { perfbench.ExperimentLoop(b, e.ID, cfg) })
				}
			}
		})
	}
}

// --- Ablation benchmarks (DESIGN.md) -----------------------------------------

// Ablation 1: floorplan-driven latency vs flat latency. With the wire
// term zeroed, the non-uniformity of Observation #1 vanishes.
func BenchmarkAblationFlatLatency(b *testing.B) {
	spread := func(cfg gpu.Config) float64 {
		dev, err := gpu.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var xs []float64
		for s := 0; s < cfg.L2Slices; s++ {
			xs = append(xs, float64(dev.L2HitLatencyMean(24, s)))
		}
		sum := stats.Summarize(xs)
		return sum.Max - sum.Min
	}
	base := gpu.V100()
	flat := gpu.V100()
	flat.Cal.WireRTT = 0
	var s1, s2 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s1, s2 = spread(base), spread(flat)
	}
	b.ReportMetric(s1, "spread-floorplan")
	b.ReportMetric(s2, "spread-flat")
}

// Ablation 2: Little's-law regime. With effectively unlimited MLP the
// near/far single-SM bandwidth gap of Fig. 14 disappears (capacity binds
// instead of latency).
func BenchmarkAblationLittlesLaw(b *testing.B) {
	dev, err := gpu.New(gpu.A100())
	if err != nil {
		b.Fatal(err)
	}
	gap := func(mutate func(*bandwidth.Profile)) float64 {
		prof, err := bandwidth.ProfileFor(dev.Config())
		if err != nil {
			b.Fatal(err)
		}
		if mutate != nil {
			mutate(&prof)
		}
		eng, err := bandwidth.NewEngineWithProfile(dev, prof)
		if err != nil {
			b.Fatal(err)
		}
		near, err := eng.Solve([]bandwidth.Flow{{SM: 0, Slices: []int{0}}})
		if err != nil {
			b.Fatal(err)
		}
		far, err := eng.Solve([]bandwidth.Flow{{SM: 0, Slices: []int{9}}})
		if err != nil {
			b.Fatal(err)
		}
		return 1 - float64(far.TotalGBs)/float64(near.TotalGBs)
	}
	var calibrated, deepMLP float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		calibrated = gap(nil)
		deepMLP = gap(func(p *bandwidth.Profile) {
			p.MLPLines, p.MLPWriteLines, p.MLPPerSliceLines = 100000, 100000, 100000
		})
	}
	b.ReportMetric(calibrated, "nearfar-gap")
	b.ReportMetric(deepMLP, "nearfar-gap-deep-mlp")
}

// Ablation 3: spatial GPC ports. Replacing the per-MP spatial ports with
// one fat port removes the +218%-style gain of Fig. 15(c).
func BenchmarkAblationSpatialGPCPorts(b *testing.B) {
	dev, err := gpu.New(gpu.V100())
	if err != nil {
		b.Fatal(err)
	}
	gain := func(mutate func(*bandwidth.Profile)) float64 {
		prof, err := bandwidth.ProfileFor(dev.Config())
		if err != nil {
			b.Fatal(err)
		}
		if mutate != nil {
			mutate(&prof)
		}
		eng, err := bandwidth.NewEngineWithProfile(dev, prof)
		if err != nil {
			b.Fatal(err)
		}
		run := func(nMPs int) float64 {
			var slices []int
			for mp := 0; mp < nMPs; mp++ {
				slices = append(slices, dev.SlicesOfMP(mp)...)
			}
			bw, err := microbench.SetBandwidth(eng, dev.SMsOfGPC(0), slices, false)
			if err != nil {
				b.Fatal(err)
			}
			return bw
		}
		return run(4)/run(1) - 1
	}
	var spatial, fat float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spatial = gain(nil)
		fat = gain(func(p *bandwidth.Profile) { p.GPCMPPortGBs = p.GPCTrunkGBs })
	}
	b.ReportMetric(100*spatial, "gain-%-spatial")
	b.ReportMetric(100*fat, "gain-%-fat-port")
}

// Ablation 4: arbitration policy (also covered by Fig 23); here as a
// small sweep over buffer depths.
func BenchmarkAblationArbitration(b *testing.B) {
	var rrRatio, ageRatio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rr, err := noc.RunFairness(noc.DefaultFairnessConfig(noc.RoundRobin, 7))
		if err != nil {
			b.Fatal(err)
		}
		age, err := noc.RunFairness(noc.DefaultFairnessConfig(noc.AgeBased, 7))
		if err != nil {
			b.Fatal(err)
		}
		rrRatio, ageRatio = rr.MaxMinRatio, age.MaxMinRatio
	}
	b.ReportMetric(rrRatio, "rr-ratio")
	b.ReportMetric(ageRatio, "age-ratio")
}

// Ablation 5: scheduling defence on the RSA channel: random-seed
// scheduling multiplies the attacker's inference error.
func BenchmarkAblationScheduling(b *testing.B) {
	dev, err := gpu.New(gpu.A100())
	if err != nil {
		b.Fatal(err)
	}
	mae := func(sched kernel.Scheduler) float64 {
		opts := kernel.DefaultOptions()
		opts.GridSync = true
		m, err := kernel.NewMachine(dev, sched, opts)
		if err != nil {
			b.Fatal(err)
		}
		timer := rsa.NewGPUTimer(m)
		rng := rand.New(rand.NewSource(3))
		ones := []int{8, 24, 40, 56}
		calib, err := sidechannel.CollectRSATimings(timer, 64, ones, 3, rng)
		if err != nil {
			b.Fatal(err)
		}
		test, err := sidechannel.CollectRSATimings(timer, 64, ones, 2, rng)
		if err != nil {
			b.Fatal(err)
		}
		_, e, err := sidechannel.EvaluateRSAAttack(calib, test)
		if err != nil {
			b.Fatal(err)
		}
		return e
	}
	var static, random float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		static = mae(kernel.ListScheduler{SMs: []int{0, 8}})
		rng := rand.New(rand.NewSource(7))
		random = mae(kernel.RandomScheduler{Rand: rng.Uint64})
	}
	b.ReportMetric(static, "static-mae-bits")
	b.ReportMetric(random, "random-mae-bits")
}

// Ablation 6: H100 partition-local caching. Turning it off re-introduces
// A100-style per-GPC hit-latency spread.
func BenchmarkAblationLocalCaching(b *testing.B) {
	spread := func(local bool) float64 {
		cfg := gpu.H100()
		cfg.LocalL2Caching = local
		dev, err := gpu.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		lat, err := microbench.GPCToMPLatency(dev, 0, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		return stats.Max(lat) - stats.Min(lat)
	}
	var on, off float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		on, off = spread(true), spread(false)
	}
	b.ReportMetric(on, "spread-local-on")
	b.ReportMetric(off, "spread-local-off")
}

// A facade smoke benchmark: the public quick-start path.
func BenchmarkFacadeQuickstart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dev, err := gpunoc.NewDevice("v100")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := gpunoc.LatencyProfile(dev, 24, 2); err != nil {
			b.Fatal(err)
		}
	}
}
