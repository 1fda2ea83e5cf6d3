package perfbench

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"gpunoc/internal/core"
	"gpunoc/internal/gpu"
	"gpunoc/internal/noc"
	"gpunoc/internal/obs"
	"gpunoc/internal/resultstore"
)

// ExperimentLoop runs registry experiment id against cfg once per
// iteration, building a fresh core.Context inside the timed region each
// time: that is the cost a nocserve cold fill actually pays (device +
// engine construction, then the run), and it keeps iterations
// independent of state an earlier run warmed. A run that returns an
// error fails the benchmark: the registry lists only (gpu, experiment)
// pairs that run.
func ExperimentLoop(b *testing.B, id string, cfg gpu.Config) {
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

// stepBacklogFlits is the source-queue depth mesh_step and xbar_step
// top up to every cycle: four 4-flit packets. stepWarmup is the number
// of cycles they run before timing, long enough for the packet table
// and its free list to reach their working size.
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

// Suite returns the curated benchmark set, sorted by name. Names are
// baseline keys: renaming one is a baseline change, and -check fails on
// the stale entry until the baseline is regenerated.
func Suite() []Benchmark {
	return []Benchmark{
		{
			Name:          "experiment_quick",
			Doc:           "end-to-end quick fig1 run incl. fresh Context (the nocserve cold-fill path)",
			DefaultBudget: Budget{MaxNsRatio: DefaultMaxNsRatio, MaxAllocsDelta: 4096},
			Fn: func(b *testing.B) {
				ExperimentLoop(b, "fig1", gpu.V100())
			},
		},
		{
			Name: "ext4_quick",
			Doc:  "end-to-end quick ext4 working-set sweep on V100 incl. fresh Context (the cache engine's key)",
			// ~160 allocs/op; one allocation per cache set (the V100's
			// 64 slices x 48 sets) would add 3072.
			DefaultBudget: Budget{MaxNsRatio: DefaultMaxNsRatio, MaxAllocsDelta: 512},
			Fn: func(b *testing.B) {
				ExperimentLoop(b, "ext4", gpu.V100())
			},
		},
		{
			Name: "fig18_quick",
			Doc:  "end-to-end quick fig18 AES attack on V100 incl. fresh Context (the most expensive quick key)",
			// ~20 k allocs/op; one allocation per warp load (10 rounds x
			// 16 loads per sample, 5000 samples) would add 800 k.
			DefaultBudget: Budget{MaxNsRatio: DefaultMaxNsRatio, MaxAllocsDelta: 4096},
			Fn: func(b *testing.B) {
				ExperimentLoop(b, "fig18", gpu.V100())
			},
		},
		{
			Name: "fig21_quick",
			Doc:  "end-to-end quick fig21 request/reply mesh simulation on A100 incl. fresh Context (the NoC simulators' key)",
			// ~1.4 k allocs/op. The packet tables recycle delivered
			// packets' slots, so they allocate only while growing to the
			// peak in flight; one allocation per injected packet would
			// add ~62 k.
			DefaultBudget: Budget{MaxNsRatio: DefaultMaxNsRatio, MaxAllocsDelta: 4096},
			Fn: func(b *testing.B) {
				ExperimentLoop(b, "fig21", gpu.A100())
			},
		},
		{
			Name: "fig9_quick",
			Doc:  "end-to-end quick fig9 bandwidth sweep on A100 incl. fresh Context (the bandwidth engine's key)",
			// ~45 k allocs/op; one allocation per AMVA iteration (~24 k
			// iterations per op) would add more than the budget.
			DefaultBudget: Budget{MaxNsRatio: DefaultMaxNsRatio, MaxAllocsDelta: 8192},
			Fn: func(b *testing.B) {
				ExperimentLoop(b, "fig9", gpu.A100())
			},
		},
		{
			Name:          "gpusim_quick",
			Doc:           "many-to-few-to-many gpusim pipeline, reduced cycle count",
			DefaultBudget: Budget{MaxNsRatio: DefaultMaxNsRatio, MaxAllocsDelta: 64},
			Fn: func(b *testing.B) {
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
			},
		},
		{
			Name:          "hist_observe",
			Doc:           "obs.Histogram.Observe across the depth-bucket layout incl. overflow",
			DefaultBudget: Budget{MaxNsRatio: DefaultMaxNsRatio, MaxAllocsDelta: 0},
			Fn: func(b *testing.B) {
				h := obs.New().Histogram("perfbench/occupancy", obs.DepthBounds())
				b.ReportAllocs()
				b.ResetTimer()
				v := int64(0)
				for i := 0; i < b.N; i++ {
					h.Observe(v)
					v = (v + 137) % 2048
				}
			},
		},
		{
			Name:          "mesh_step",
			Doc:           "8x8 mesh steady-state Step under uniform-random 4-flit traffic, sources topped up to a fixed backlog",
			DefaultBudget: Budget{MaxNsRatio: DefaultMaxNsRatio, MaxAllocsDelta: 0},
			Fn: func(b *testing.B) {
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
				// Each cycle tops every source queue up to a fixed
				// backlog, so the routers stay busy while the queues and
				// the packet table stay bounded whatever b.N is.
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
			},
		},
		{
			Name:          "result_render",
			Doc:           "Result renderers (JSON+CSV+text+markdown) over a warm fig1 quick result",
			DefaultBudget: Budget{MaxNsRatio: DefaultMaxNsRatio, MaxAllocsDelta: 64},
			Fn: func(b *testing.B) {
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
			},
		},
		{
			Name:          "resultstore_cold",
			Doc:           "resultstore GetContext cold fill (singleflight spawn + insert) per op",
			DefaultBudget: Budget{MaxNsRatio: DefaultMaxNsRatio, MaxAllocsDelta: 16},
			Fn: func(b *testing.B) {
				entry := &resultstore.Entry{JSON: []byte(`{"ok":true}`), Text: []byte("ok")}
				s, err := resultstore.New(resultstore.Options{
					Compute: func(context.Context, resultstore.Key) (*resultstore.Entry, error) {
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
			},
		},
		{
			Name:          "resultstore_warm",
			Doc:           "resultstore GetContext warm hit (lock + map lookup + recency bump) per op",
			DefaultBudget: Budget{MaxNsRatio: DefaultMaxNsRatio, MaxAllocsDelta: 0},
			Fn: func(b *testing.B) {
				entry := &resultstore.Entry{JSON: []byte(`{"ok":true}`), Text: []byte("ok")}
				s, err := resultstore.New(resultstore.Options{
					Compute: func(context.Context, resultstore.Key) (*resultstore.Entry, error) {
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
			},
		},
		{
			Name:          "xbar_step",
			Doc:           "hierarchical crossbar steady-state Step at the default ext1 topology, sources topped up to a fixed backlog",
			DefaultBudget: Budget{MaxNsRatio: DefaultMaxNsRatio, MaxAllocsDelta: 0},
			Fn: func(b *testing.B) {
				cfg := noc.DefaultXbarFairnessConfig(noc.RoundRobin, 1).Xbar
				x, err := noc.NewXbar(cfg)
				if err != nil {
					b.Fatal(err)
				}
				n := x.Nodes()
				rng := rand.New(rand.NewSource(1))
				// Ports drain at most MemPorts*PortCapacity flits per
				// cycle, far below what 30 sources offer, so the topped-up
				// queues keep every port busy.
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
			},
		},
	}
}

// SuiteNames returns the full suite's benchmark names, the reference
// set Check uses to detect stale baseline entries.
func SuiteNames() []string {
	benches := Suite()
	names := make([]string, len(benches))
	for i, bm := range benches {
		names[i] = bm.Name
	}
	return names
}

// DefaultBudgets maps each suite benchmark to its seed budget, for
// NewBaseline.
func DefaultBudgets() map[string]Budget {
	out := map[string]Budget{}
	for _, bm := range Suite() {
		out[bm.Name] = bm.DefaultBudget
	}
	return out
}
