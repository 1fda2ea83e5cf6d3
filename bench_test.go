// Benchmark harness: one benchmark per (gpu, experiment) key of the
// registry, the simulators' and serving layer's hot paths, and ablation
// benchmarks for the design choices DESIGN.md calls out. Run with:
//
//	go test -run '^$' -bench . -benchmem
//
// cmd/nocbench ratchets a recorded run of this file against
// bench.baseline.json, whose entries name the gated benchmarks.
//
// The ablations report their figures of merit via b.ReportMetric; each
// experiment's own figures of merit are in its rendered artifacts.
package gpunoc_test

import (
	"fmt"
	"math/rand"
	"testing"

	"gpunoc"
	"gpunoc/internal/bandwidth"
	"gpunoc/internal/core"
	"gpunoc/internal/gpu"
	"gpunoc/internal/kernel"
	"gpunoc/internal/microbench"
	"gpunoc/internal/noc"
	"gpunoc/internal/obs"
	"gpunoc/internal/resultstore"
	"gpunoc/internal/rsa"
	"gpunoc/internal/sidechannel"
	"gpunoc/internal/stats"
)

// BenchmarkExperiments cold-fills, in quick mode, every (gpu, experiment)
// key that `nocchar -all` runs, as sub-benchmark <GPU>/<id>. A key whose
// run returns an error fails.
func BenchmarkExperiments(b *testing.B) {
	for _, cfg := range gpu.AllConfigs() {
		b.Run(string(cfg.Name), func(b *testing.B) {
			for _, e := range core.All() {
				if e.SupportsGPU(cfg.Name) {
					b.Run(e.ID, func(b *testing.B) { experimentLoop(b, e.ID, cfg) })
				}
			}
		})
	}
}

// experimentLoop runs registry experiment id against cfg once per
// iteration, building a fresh core.Context inside the timed region each
// time: that is the cost a nocserve cold fill actually pays (engine
// construction, then the run), and it keeps iterations independent of
// state an earlier run warmed. The canonical gpu.Device, tables
// included, is built once per process and shared, so only the first
// iteration of a process can pay for it. A run that returns an error
// fails the benchmark: the registry lists only (gpu, experiment) pairs
// that run.
func experimentLoop(b *testing.B, id string, cfg gpu.Config) {
	b.Helper()
	e, err := core.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, err := core.NewContext(cfg, true)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Hot-path benchmarks -----------------------------------------------------

// stepBacklogFlits is the source-queue depth BenchmarkMeshStep and
// BenchmarkXbarStep top up to every cycle: four 4-flit packets.
// stepWarmup is the number of cycles they run before timing, long
// enough for the packet table and its free list to reach their working
// size.
const (
	stepBacklogFlits = 16
	stepWarmup       = 2000
)

// droppingSink counts delivered packets so the mesh benchmark can
// report a delivery figure of merit without retaining payloads.
type droppingSink struct{ packets int64 }

func (s *droppingSink) Accept(_ noc.Packet, lastFlit bool, _ int64) bool {
	if lastFlit {
		s.packets++
	}
	return true
}

// BenchmarkMeshStep measures an 8x8 mesh's steady-state Step under
// uniform-random 4-flit traffic, sources topped up to a fixed backlog.
func BenchmarkMeshStep(b *testing.B) {
	m, err := noc.NewMesh(noc.MeshConfig{Width: 8, Height: 8, BufferFlits: 8, Arbiter: noc.RoundRobin})
	if err != nil {
		b.Fatal(err)
	}
	n := m.Nodes()
	sinks := make([]droppingSink, n)
	for node := 0; node < n; node++ {
		m.SetSink(node, &sinks[node])
	}
	rng := rand.New(rand.NewSource(1))
	// Each cycle tops every source queue up to a fixed backlog, so the
	// routers stay busy while the queues and the packet table stay
	// bounded whatever b.N is.
	step := func() {
		for src := 0; src < n; src++ {
			if m.PendingInjection(src) >= stepBacklogFlits {
				continue
			}
			dst := rng.Intn(n - 1)
			if dst >= src {
				dst++
			}
			if _, err := m.Inject(src, dst, 4); err != nil {
				b.Fatal(err)
			}
		}
		m.Step()
	}
	for i := 0; i < stepWarmup; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	var delivered int64
	for i := range sinks {
		delivered += sinks[i].packets
	}
	b.ReportMetric(float64(delivered)/float64(m.Cycle()), "pkts_per_cycle")
}

// BenchmarkXbarStep measures the hierarchical crossbar's steady-state
// Step at the default ext1 topology, sources topped up to a fixed
// backlog.
func BenchmarkXbarStep(b *testing.B) {
	cfg := noc.DefaultXbarFairnessConfig(noc.RoundRobin, 1).Xbar
	x, err := noc.NewXbar(cfg)
	if err != nil {
		b.Fatal(err)
	}
	n := x.Nodes()
	rng := rand.New(rand.NewSource(1))
	// Ports drain at most MemPorts*PortCapacity flits per cycle, far
	// below what 30 sources offer, so the topped-up queues keep every
	// port busy.
	step := func() {
		for src := 0; src < n; src++ {
			if x.PendingInjection(src) >= stepBacklogFlits {
				continue
			}
			if _, err := x.Inject(src, rng.Intn(cfg.MemPorts), 4); err != nil {
				b.Fatal(err)
			}
		}
		x.Step()
	}
	for i := 0; i < stepWarmup; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkGPUSimQuick runs the many-to-few-to-many gpusim pipeline at a
// reduced cycle count.
func BenchmarkGPUSimQuick(b *testing.B) {
	cfg := noc.DefaultGPUSimConfig(1)
	cfg.Cycles, cfg.Warmup = 6000, 600
	b.ReportAllocs()
	b.ResetTimer()
	var memUtil float64
	for i := 0; i < b.N; i++ {
		res, err := noc.RunGPUSim(cfg)
		if err != nil {
			b.Fatal(err)
		}
		memUtil = res.MemUtilization
	}
	b.ReportMetric(memUtil, "mem_util")
}

// BenchmarkHistObserve measures obs.Histogram.Observe across the
// depth-bucket layout, overflow included.
func BenchmarkHistObserve(b *testing.B) {
	h := obs.New().Histogram("bench/occupancy", obs.DepthBounds())
	b.ReportAllocs()
	b.ResetTimer()
	v := int64(0)
	for i := 0; i < b.N; i++ {
		h.Observe(v)
		v = (v + 137) % 2048
	}
}

// BenchmarkResultRender runs the Result renderers (JSON, CSV, text and
// Markdown) over a warm fig1 quick result.
func BenchmarkResultRender(b *testing.B) {
	ctx, err := core.NewContext(gpu.V100(), true)
	if err != nil {
		b.Fatal(err)
	}
	e, err := core.Lookup("fig1")
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.RunResult(ctx, e)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := res.JSONBytes(); err != nil {
			b.Fatal(err)
		}
		_ = res.CSVBytes()
		_ = res.TextBytes()
		_ = res.MarkdownBytes()
	}
}

// BenchmarkResultstoreCold measures one resultstore cold fill
// (singleflight spawn and insert) per op.
func BenchmarkResultstoreCold(b *testing.B) {
	entry := &resultstore.Entry{JSON: []byte(`{"ok":true}`), Text: []byte("ok")}
	s, err := resultstore.New(resultstore.Options{
		Compute: func(resultstore.Key) (*resultstore.Entry, error) {
			return entry, nil
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]resultstore.Key, b.N)
	for i := range keys {
		keys[i] = resultstore.Key{GPU: gpu.GenV100, Exp: fmt.Sprintf("bench%07d", i), Quick: true}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Get(keys[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResultstoreWarm measures one resultstore warm hit (lock, map
// lookup and recency bump) per op.
func BenchmarkResultstoreWarm(b *testing.B) {
	entry := &resultstore.Entry{JSON: []byte(`{"ok":true}`), Text: []byte("ok")}
	s, err := resultstore.New(resultstore.Options{
		Compute: func(resultstore.Key) (*resultstore.Entry, error) {
			return entry, nil
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	k := resultstore.Key{GPU: gpu.GenV100, Exp: "fig1", Quick: true}
	if _, _, err := s.Get(k); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Get(k); err != nil {
			b.Fatal(err)
		}
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
		m, err := kernel.NewMachine(dev, sched, kernel.Options{GridSync: true})
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
		lat, err := microbench.NewBench(nil).GPCToMPLatency(dev, 0, 1)
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
