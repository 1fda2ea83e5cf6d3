package microbench

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"gpunoc/internal/bandwidth"
	"gpunoc/internal/gpu"
	"gpunoc/internal/profiler"
	"gpunoc/internal/stats"
)

func v100(t *testing.T) *gpu.Device {
	t.Helper()
	return gpu.MustNew(gpu.V100())
}

func engine(t *testing.T, cfg gpu.Config) *bandwidth.Engine {
	t.Helper()
	e, err := bandwidth.NewEngine(gpu.MustNew(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestMeasureL2LatencyBasic(t *testing.T) {
	dev := v100(t)
	r, err := NewBench(nil).MeasureL2Latency(dev, 24, 5, 32)
	if err != nil {
		t.Fatal(err)
	}
	if r.Summary.N != 32 {
		t.Fatalf("samples = %d, want 32", r.Summary.N)
	}
	if r.Summary.Mean < 170 || r.Summary.Mean > 270 {
		t.Errorf("latency %.1f outside the plausible V100 band", r.Summary.Mean)
	}
	// The measured mean approximates the model's mean for that pair.
	want := float64(dev.L2HitLatencyMean(24, 5))
	if diff := r.Summary.Mean - want; diff > 3 || diff < -3 {
		t.Errorf("measured %.1f vs model %.1f", r.Summary.Mean, want)
	}
}

func TestMeasureL2LatencyValidation(t *testing.T) {
	dev := v100(t)
	if _, err := NewBench(nil).MeasureL2Latency(dev, -1, 0, 4); err == nil {
		t.Error("bad SM should fail")
	}
	if _, err := NewBench(nil).MeasureL2Latency(dev, 0, 99, 4); err == nil {
		t.Error("bad slice should fail")
	}
	if _, err := NewBench(nil).MeasureL2Latency(dev, 0, 0, 0); err == nil {
		t.Error("zero iters should fail")
	}
}

func TestMissLatencyExceedsHit(t *testing.T) {
	dev := v100(t)
	hit, err := NewBench(nil).MeasureL2Latency(dev, 0, 3, 16)
	if err != nil {
		t.Fatal(err)
	}
	miss, err := NewBench(nil).MeasureL2MissLatency(dev, 0, 3, 16)
	if err != nil {
		t.Fatal(err)
	}
	if miss.Summary.Mean < hit.Summary.Mean+150 {
		t.Errorf("miss %.0f should exceed hit %.0f by the DRAM penalty", miss.Summary.Mean, hit.Summary.Mean)
	}
}

func TestLatencyProfileNonUniform(t *testing.T) {
	dev := v100(t)
	prof, err := NewBench(nil).LatencyProfile(dev, 24, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof) != 32 {
		t.Fatalf("profile length %d", len(prof))
	}
	sum := stats.Summarize(prof)
	if sum.Max-sum.Min < 30 {
		t.Errorf("profile spread %.1f too small; Observation #1 expects strong non-uniformity", sum.Max-sum.Min)
	}
}

func TestCorrelationHeatmapStructure(t *testing.T) {
	dev := v100(t)
	// One SM per GPC for speed: SMs 0..5 are GPCs 0..5.
	sms := []int{0, 1, 2, 3, 4, 5}
	hm, err := NewBench(nil).CorrelationHeatmap(dev, sms, 6)
	if err != nil {
		t.Fatal(err)
	}
	if hm[0][1] < 0.85 {
		t.Errorf("GPC0-GPC1 measured correlation %.2f, want high", hm[0][1])
	}
	if hm[0][4] > 0.3 {
		t.Errorf("GPC0-GPC4 measured correlation %.2f, want low", hm[0][4])
	}
}

func TestSMToSMLatencyMatrixH100(t *testing.T) {
	dev := gpu.MustNew(gpu.H100())
	m, err := SMToSMLatencyMatrix(dev, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 {
		t.Fatalf("matrix rank %d, want 3", len(m))
	}
	if !(m[0][0] < m[1][1] && m[1][1] < m[2][2]) {
		t.Errorf("diagonal should increase with CPC distance from the switch: %v %v %v", m[0][0], m[1][1], m[2][2])
	}
	if m[0][0] < 185 || m[0][0] > 210 {
		t.Errorf("CPC0-CPC0 latency %.1f outside [185, 210] (paper 196)", m[0][0])
	}
	if _, err := SMToSMLatencyMatrix(v100(t), 0, 4); err == nil {
		t.Error("V100 should not have an SM-to-SM matrix")
	}
	if _, err := SMToSMLatencyMatrix(dev, 99, 4); err == nil {
		t.Error("bad GPC should fail")
	}
}

func TestGPCToMPLatencyPartitions(t *testing.T) {
	// A100, destination MP0 (partition 0): GPCs 0-3 near, 4-7 far.
	dev := gpu.MustNew(gpu.A100())
	lat, err := NewBench(nil).GPCToMPLatency(dev, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 4; g++ {
		if lat[g] > 260 {
			t.Errorf("near GPC%d latency %.0f too high", g, lat[g])
		}
	}
	for g := 4; g < 8; g++ {
		if lat[g] < 350 {
			t.Errorf("far GPC%d latency %.0f should be ~400", g, lat[g])
		}
	}
}

func TestGPCToMPLatencyH100Uniform(t *testing.T) {
	dev := gpu.MustNew(gpu.H100())
	lat, err := NewBench(nil).GPCToMPLatency(dev, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// "Much more uniform across the GPCs" than A100's ~190-cycle near/far
	// split: the residual spread is only the intra-partition column
	// geometry.
	if spread := stats.Max(lat) - stats.Min(lat); spread > 60 {
		t.Errorf("H100 per-GPC hit latency spread %.0f; local caching should keep it well under A100's ~190", spread)
	}
	for g, l := range lat {
		if l > 300 {
			t.Errorf("H100 GPC%d hit latency %.0f; no GPC should see far-partition hits", g, l)
		}
	}
}

func TestGPCToMPMissPenalty(t *testing.T) {
	// V100: constant. H100: varies with requester partition.
	v := v100(t)
	pen, err := NewBench(nil).GPCToMPMissPenalty(v, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if spread := stats.Max(pen) - stats.Min(pen); spread > 10 {
		t.Errorf("V100 miss penalty spread %.0f, want ~constant", spread)
	}
	h := gpu.MustNew(gpu.H100())
	penH, err := NewBench(nil).GPCToMPMissPenalty(h, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if spread := stats.Max(penH) - stats.Min(penH); spread < 100 {
		t.Errorf("H100 miss penalty spread %.0f, want home-partition dependence", spread)
	}
	if _, err := NewBench(nil).GPCToMPMissPenalty(v, 99, 2); err == nil {
		t.Error("bad MP should fail")
	}
	if _, err := NewBench(nil).GPCToMPLatency(v, 99, 2); err == nil {
		t.Error("bad MP should fail")
	}
}

func TestSliceBandwidth(t *testing.T) {
	eng := engine(t, gpu.V100())
	bw, err := SliceBandwidth(eng, []int{0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bw < 25 || bw > 40 {
		t.Errorf("single-SM slice bandwidth %.1f outside [25, 40]", bw)
	}
	if _, err := SliceBandwidth(eng, nil, 0); err == nil {
		t.Error("empty SM set should fail")
	}
}

func TestAggregateAndMemoryBandwidth(t *testing.T) {
	eng := engine(t, gpu.V100())
	fabric, err := AggregateFabricBandwidth(eng)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := MemoryBandwidth(eng)
	if err != nil {
		t.Fatal(err)
	}
	if fabric/mem < 2 {
		t.Errorf("fabric %.0f / memory %.0f = %.2f, want > 2 (Observation #7)", fabric, mem, fabric/mem)
	}
}

func TestSpeedupTPC(t *testing.T) {
	eng := engine(t, gpu.V100())
	dev := eng.Device()
	s, err := Speedup(eng, dev.SMsOfTPC(0, 0), false)
	if err != nil {
		t.Fatal(err)
	}
	if s < 1.85 || s > 2.05 {
		t.Errorf("TPC read speedup %.2f, want ~2", s)
	}
	if _, err := Speedup(eng, nil, false); err == nil {
		t.Error("empty SM set should fail")
	}
}

func TestBuildSliceMapProfilerV100(t *testing.T) {
	dev := v100(t)
	p := profiler.New(dev)
	m, err := BuildSliceMapProfiler(dev, p, 256)
	if err != nil {
		t.Fatal(err)
	}
	// Every address is attributed to its true slice.
	for s, addrs := range m.Addrs {
		for _, a := range addrs {
			if dev.HomeSlice(a) != s {
				t.Fatalf("address %#x attributed to slice %d, home is %d", a, s, dev.HomeSlice(a))
			}
		}
	}
	if len(m.Addrs) != dev.Config().L2Slices {
		t.Fatalf("map has %d slices, want %d", len(m.Addrs), dev.Config().L2Slices)
	}
	for s := range m.Addrs {
		if _, err := m.AddressFor(s); err != nil {
			t.Errorf("slice %d should have addresses after 256 lines: %v", s, err)
		}
	}
	if _, err := BuildSliceMapProfiler(dev, p, 0); err == nil {
		t.Error("zero lines should fail")
	}
}

func TestBuildSliceMapProfilerFailsAggregated(t *testing.T) {
	dev := gpu.MustNew(gpu.A100())
	p := profiler.New(dev)
	_, err := BuildSliceMapProfiler(dev, p, 8)
	if !errors.Is(err, profiler.ErrAggregatedOnly) {
		t.Errorf("want ErrAggregatedOnly on A100, got %v", err)
	}
}

// TestBuildSliceMapByContentionGroups certifies the paper's footnote-1
// method on every generation. At 64 lines each probe class is exactly one
// serving slice of the prober's two SM groups: SM 0 reaches the class
// anchor, SM 8 the probed line. On V100 and A100 that is also one home
// slice per class; on H100 partition-local L2 caching (Fig. 8f) puts
// lines of different home slices behind one serving slice. The class
// counts are pinned: 64 lines reach 30, 42 and 32 serving slices.
func TestBuildSliceMapByContentionGroups(t *testing.T) {
	for _, tc := range []struct {
		cfg       gpu.Config
		classes   int
		homeMixed bool
	}{{gpu.V100(), 30, false}, {gpu.A100(), 42, false}, {gpu.H100(), 32, true}} {
		t.Run(string(tc.cfg.Name), func(t *testing.T) {
			eng := engine(t, tc.cfg)
			dev := eng.Device()
			m, classes, err := BuildSliceMapByContention(eng, 64)
			if err != nil {
				t.Fatal(err)
			}
			if classes != tc.classes || classes != len(m.Addrs) {
				t.Fatalf("found %d classes over %d label sets, want %d", classes, len(m.Addrs), tc.classes)
			}
			classOf := map[int]int{} // serving slice -> class
			mixed := 0
			for c, addrs := range m.Addrs {
				s := dev.ServingSlice(0, addrs[0])
				if prev, ok := classOf[s]; ok {
					t.Errorf("classes %d and %d share serving slice %d", prev, c, s)
				}
				classOf[s] = c
				for _, a := range addrs[1:] {
					if got := dev.ServingSlice(8, a); got != s {
						t.Errorf("class %d: line %#x is served by slice %d, its anchor by %d", c, a, got, s)
					}
					if dev.HomeSlice(a) != dev.HomeSlice(addrs[0]) {
						mixed++
					}
				}
			}
			if (mixed > 0) != tc.homeMixed {
				t.Errorf("%d of 64 lines share a class with another home slice; want mixed classes: %v", mixed, tc.homeMixed)
			}
		})
	}
	if _, _, err := BuildSliceMapByContention(engine(t, gpu.V100()), 0); err == nil {
		t.Error("zero lines should fail")
	}
}

func TestNewContentionProberValidation(t *testing.T) {
	eng := engine(t, gpu.V100())
	if _, err := NewContentionProber(eng, 0); err == nil {
		t.Error("zero group should fail")
	}
	if _, err := NewContentionProber(eng, 99); err == nil {
		t.Error("oversized group should fail")
	}
}

func TestLatencyMatrixDefaultsToAllSMs(t *testing.T) {
	// On a tiny custom device the full matrix stays cheap.
	cfg, err := gpu.Custom(gpu.CustomSpec{
		Name: "tiny", GPCs: 2, TPCsPerGPC: 2, Partitions: 1,
		L2Slices: 8, MPs: 2, MemBWGBs: 500, L2FabricFactor: 2.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := gpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewBench(nil).LatencyMatrix(dev, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != cfg.SMs() || len(m[0]) != cfg.L2Slices {
		t.Errorf("matrix %dx%d, want %dx%d", len(m), len(m[0]), cfg.SMs(), cfg.L2Slices)
	}
}

func TestSliceMapAddressForErrors(t *testing.T) {
	m := &SliceMap{Addrs: [][]uint64{{0x100}, nil}}
	if _, err := m.AddressFor(0); err != nil {
		t.Error(err)
	}
	if _, err := m.AddressFor(1); err == nil {
		t.Error("empty slice entry should fail")
	}
	if _, err := m.AddressFor(-1); err == nil {
		t.Error("negative index should fail")
	}
	if _, err := m.AddressFor(9); err == nil {
		t.Error("out-of-range index should fail")
	}
}

func TestSMToSMLatencyMatrixValidatesInput(t *testing.T) {
	dev := gpu.MustNew(gpu.H100())
	if _, err := SMToSMLatencyMatrix(dev, 0, 0); err == nil {
		t.Error("iters=0 should fail")
	}
	if _, err := SMToSMLatencyMatrix(dev, 0, -3); err == nil {
		t.Error("negative iters should fail")
	}
}

func TestSMToSMLatencyMatrixRejectsSingleSMCPCs(t *testing.T) {
	// A speculative design with one SM per CPC cannot host the probe,
	// which loads from the peer CPC's second SM; the old code indexed
	// SMsOfCPC(...)[1] and panicked. It must now be a descriptive error.
	cfg := gpu.H100()
	cfg.SMsPerTPC = 1
	cfg.CPCsPerGPC = 9
	cfg.Floorplan.CPCsPerGPC = 9
	dev, err := gpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = SMToSMLatencyMatrix(dev, 0, 4)
	if err == nil {
		t.Fatal("1 SM per CPC should fail, not panic")
	}
	if want := "needs at least 2 per CPC"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not mention %q", err, want)
	}
}

func TestRemoteSharedLoadErrorPropagates(t *testing.T) {
	// A LoadRemoteShared failure inside the warp closure must fail the
	// measurement; the old code ignored it and returned sum/iters, a
	// silently deflated mean. A cross-GPC destination makes the load fail.
	dev := gpu.MustNew(gpu.H100())
	srcSM := dev.SMsOfGPC(0)[0]
	dstSM := dev.SMsOfGPC(1)[0]
	mean, err := remoteSharedMean(dev, srcSM, dstSM, 4)
	if err == nil {
		t.Fatalf("cross-GPC remote load returned mean %.1f, want error", mean)
	}
	if want := "remote-shared load"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not mention %q", err, want)
	}
}

func TestLatencyMatrixWorkerCountInvariant(t *testing.T) {
	// The parallel runner's index-addressed slots make the matrix
	// identical (not just statistically equivalent) for every pool size.
	dev := v100(t)
	sms := []int{0, 7, 40, 79}
	matrix := func(procs int) ([][]float64, error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return NewBench(nil).LatencyMatrix(dev, sms, 3)
	}
	seq, err := matrix(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{2, 3, 16} {
		par, err := matrix(procs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq {
			for j := range seq[i] {
				if seq[i][j] != par[i][j] {
					t.Fatalf("GOMAXPROCS=%d: [%d][%d] = %v, want %v (sequential)", procs, i, j, par[i][j], seq[i][j])
				}
			}
		}
	}
}

func TestPerSMAndPerSliceBandwidth(t *testing.T) {
	eng := engine(t, gpu.V100())
	sms := []int{0, 1, 41}
	perSM, err := PerSMSliceBandwidth(eng, sms, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(perSM) != len(sms) {
		t.Fatalf("per-SM result length %d, want %d", len(perSM), len(sms))
	}
	for i, sm := range sms {
		want, err := SliceBandwidth(eng, []int{sm}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if perSM[i] != want {
			t.Errorf("SM%d slot %d = %v, want sequential %v", sm, i, perSM[i], want)
		}
	}
	slices := []int{0, 3, 5}
	perSlice, err := PerSliceBandwidth(eng, 0, slices)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range slices {
		want, err := SliceBandwidth(eng, []int{0}, s)
		if err != nil {
			t.Fatal(err)
		}
		if perSlice[i] != want {
			t.Errorf("slice %d slot %d = %v, want sequential %v", s, i, perSlice[i], want)
		}
	}
	if _, err := PerSMSliceBandwidth(eng, nil, 0); err == nil {
		t.Error("empty SM set should fail")
	}
	if _, err := PerSliceBandwidth(eng, 0, nil); err == nil {
		t.Error("empty slice set should fail")
	}
}
