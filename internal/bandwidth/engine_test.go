package bandwidth

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gpunoc/internal/gpu"
	"gpunoc/internal/stats"
)

func engineFor(t *testing.T, cfg gpu.Config) *Engine {
	t.Helper()
	dev, err := gpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(dev)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func allSlices(cfg gpu.Config) []int {
	s := make([]int, cfg.L2Slices)
	for i := range s {
		s[i] = i
	}
	return s
}

func TestProfileForAllGenerations(t *testing.T) {
	for _, cfg := range gpu.AllConfigs() {
		p, err := ProfileFor(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
	if _, err := ProfileFor(gpu.Config{Name: "T4"}); err == nil {
		t.Error("unknown generation should error")
	}
}

func TestProfileValidateRejectsBadValues(t *testing.T) {
	good, _ := ProfileFor(gpu.V100())
	muts := []func(*Profile){
		func(p *Profile) { p.MLPLines = 0 },
		func(p *Profile) { p.MLPPerSliceLines = 0 },
		func(p *Profile) { p.SMReadGBs = 0 },
		func(p *Profile) { p.SliceGBs = -1 },
		func(p *Profile) { p.MemEfficiency = 0 },
		func(p *Profile) { p.MemEfficiency = 1.5 },
	}
	for i, mut := range muts {
		p := good
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
}

func TestSolveInputValidation(t *testing.T) {
	e := engineFor(t, gpu.V100())
	cases := []struct {
		name  string
		flows []Flow
	}{
		{"empty", nil},
		{"bad sm", []Flow{{SM: -1, Slices: []int{0}}}},
		{"sm range", []Flow{{SM: 999, Slices: []int{0}}}},
		{"no slices", []Flow{{SM: 0}}},
		{"bad slice", []Flow{{SM: 0, Slices: []int{99}}}},
	}
	for _, c := range cases {
		if _, err := e.Solve(c.flows); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}

// Fig. 9(b): a single V100 SM to a single L2 slice achieves ~34 GB/s
// (latency-limited), with a tight distribution across SM/slice pairs.
func TestV100SingleSMSliceBandwidth(t *testing.T) {
	e := engineFor(t, gpu.V100())
	var xs []float64
	for sm := 0; sm < 84; sm += 6 {
		for s := 0; s < 32; s += 4 {
			r, err := e.Solve([]Flow{{SM: sm, Slices: []int{s}}})
			if err != nil {
				t.Fatal(err)
			}
			xs = append(xs, float64(r.TotalGBs))
		}
	}
	sum := stats.Summarize(xs)
	if sum.Mean < 28 || sum.Mean > 38 {
		t.Errorf("single SM->slice mean %.1f GB/s outside [28, 38] (paper ~34)", sum.Mean)
	}
	if sum.StdDev > 3 {
		t.Errorf("single SM->slice σ %.2f too wide (paper 0.147; bandwidth is near-uniform)", sum.StdDev)
	}
	if sum.StdDev/sum.Mean > 0.1 {
		t.Errorf("relative spread %.2f%% too wide for Observation #8", 100*sum.StdDev/sum.Mean)
	}
}

// Fig. 9(c): all 14 SMs of a V100 GPC to one slice achieve ~85 GB/s.
func TestV100GPCToSliceBandwidth(t *testing.T) {
	e := engineFor(t, gpu.V100())
	dev := e.Device()
	var xs []float64
	for gpc := 0; gpc < 6; gpc++ {
		var flows []Flow
		for _, sm := range dev.SMsOfGPC(gpc) {
			flows = append(flows, Flow{SM: sm, Slices: []int{7}})
		}
		r, err := e.Solve(flows)
		if err != nil {
			t.Fatal(err)
		}
		xs = append(xs, float64(r.TotalGBs))
	}
	sum := stats.Summarize(xs)
	if sum.Mean < 78 || sum.Mean > 90 {
		t.Errorf("GPC->slice mean %.1f GB/s outside [78, 90] (paper ~85)", sum.Mean)
	}
	if sum.StdDev/sum.Mean > 0.05 {
		t.Errorf("GPC->slice relative spread %.2f%% too wide", 100*sum.StdDev/sum.Mean)
	}
}

// Fig. 9(c) corollary: saturating one V100 slice takes a minimum of ~4 SMs.
func TestV100SliceSaturationPoint(t *testing.T) {
	e := engineFor(t, gpu.V100())
	dev := e.Device()
	sms := dev.SMsOfGPC(0)
	bw := func(n int) float64 {
		flows := make([]Flow, n)
		for i := 0; i < n; i++ {
			flows[i] = Flow{SM: sms[i], Slices: []int{3}}
		}
		r, err := e.Solve(flows)
		if err != nil {
			t.Fatal(err)
		}
		return float64(r.TotalGBs)
	}
	sat := bw(8)
	if bw(2) > 0.85*sat {
		t.Errorf("2 SMs reach %.0f of %.0f; saturation should need ~4", bw(2), sat)
	}
	if bw(4) < 0.93*sat {
		t.Errorf("4 SMs reach only %.0f of %.0f; paper says 4 SMs saturate", bw(4), sat)
	}
	// Monotone in SM count.
	prev := 0.0
	for n := 1; n <= 8; n++ {
		cur := bw(n)
		if cur+1e-9 < prev {
			t.Errorf("bandwidth decreased adding SMs: n=%d %.1f < %.1f", n, cur, prev)
		}
		prev = cur
	}
}

// Observation #7 / Fig. 9(a): aggregate L2 fabric bandwidth exceeds
// off-chip memory bandwidth by 2.4x-3.5x, and memory utilization reaches
// 85-90% of peak.
func TestAggregateFabricVsMemory(t *testing.T) {
	want := map[gpu.Generation][2]float64{
		gpu.GenV100: {2.1, 2.6},
		gpu.GenA100: {2.7, 3.2},
		gpu.GenH100: {3.2, 3.6},
	}
	for _, cfg := range gpu.AllConfigs() {
		e := engineFor(t, cfg)
		slices := allSlices(cfg)
		flows := make([]Flow, cfg.SMs())
		for sm := range flows {
			flows[sm] = Flow{SM: sm, Slices: slices}
		}
		r, err := e.Solve(flows)
		if err != nil {
			t.Fatal(err)
		}
		factor := float64(r.TotalGBs / cfg.MemBWGBs)
		w := want[cfg.Name]
		if factor < w[0] || factor > w[1] {
			t.Errorf("%s aggregate fabric %.0f GB/s = %.2fx mem, want [%.1f, %.1f]",
				cfg.Name, r.TotalGBs, factor, w[0], w[1])
		}

		for i := range flows {
			flows[i].DRAM = true
		}
		rm, err := e.Solve(flows)
		if err != nil {
			t.Fatal(err)
		}
		frac := float64(rm.TotalGBs / cfg.MemBWGBs)
		if frac < 0.80 || frac > 0.95 {
			t.Errorf("%s memory utilization %.0f%% of peak, want 80-95%% (paper 85-90%%)", cfg.Name, frac*100)
		}
		if rm.TotalGBs >= r.TotalGBs {
			t.Errorf("%s memory BW %.0f should be below fabric BW %.0f", cfg.Name, rm.TotalGBs, r.TotalGBs)
		}
	}
}

// Fig. 10: hierarchical input speedups.
func TestInputSpeedups(t *testing.T) {
	for _, cfg := range gpu.AllConfigs() {
		e := engineFor(t, cfg)
		dev := e.Device()
		slices := allSlices(cfg)
		solve := func(fl []Flow) float64 {
			r, err := e.Solve(fl)
			if err != nil {
				t.Fatal(err)
			}
			return float64(r.TotalGBs)
		}
		speedup := func(sms []int, write bool) float64 {
			single := solve([]Flow{{SM: sms[0], Slices: slices, Write: write}})
			flows := make([]Flow, len(sms))
			for i, sm := range sms {
				flows[i] = Flow{SM: sm, Slices: slices, Write: write}
			}
			return solve(flows) / single
		}

		// TPC read speedup is ~2 on every generation.
		tpcSMs := dev.SMsOfTPC(0, 0)
		if s := speedup(tpcSMs, false); s < 1.85 || s > 2.05 {
			t.Errorf("%s TPC read speedup %.2f, want ~2", cfg.Name, s)
		}
		// TPC write speedup: ~1.1 on V100, ~2 on A100/H100.
		ws := speedup(tpcSMs, true)
		if cfg.Name == gpu.GenV100 {
			if ws < 1.0 || ws > 1.3 {
				t.Errorf("V100 TPC write speedup %.2f, want ~1.09", ws)
			}
		} else if ws < 1.7 {
			t.Errorf("%s TPC write speedup %.2f, want ~2", cfg.Name, ws)
		}

		// GPC-local (one SM per TPC) vs GPC-global (all SMs): global
		// provides additional speedup (Observation #9).
		var local, global []int
		for tpc := 0; tpc < cfg.TPCsPerGPC; tpc++ {
			local = append(local, dev.SMsOfTPC(0, tpc)[0])
		}
		global = dev.SMsOfGPC(0)
		ls, gs := speedup(local, false), speedup(global, false)
		if gs <= ls {
			t.Errorf("%s GPCg speedup %.2f should exceed GPCl %.2f", cfg.Name, gs, ls)
		}
		if ls >= float64(cfg.TPCsPerGPC) {
			t.Errorf("%s GPCl speedup %.2f should be below the full %d", cfg.Name, ls, cfg.TPCsPerGPC)
		}
	}
}

// Fig. 10 (H100): CPC reads are unconstrained, CPC writes cap near 4.6x.
func TestH100CPCSpeedup(t *testing.T) {
	e := engineFor(t, gpu.H100())
	dev := e.Device()
	cfg := dev.Config()
	slices := allSlices(cfg)
	sms := dev.SMsOfCPC(0, 0)
	run := func(write bool) float64 {
		single, err := e.Solve([]Flow{{SM: sms[0], Slices: slices, Write: write}})
		if err != nil {
			t.Fatal(err)
		}
		flows := make([]Flow, len(sms))
		for i, sm := range sms {
			flows[i] = Flow{SM: sm, Slices: slices, Write: write}
		}
		all, err := e.Solve(flows)
		if err != nil {
			t.Fatal(err)
		}
		return float64(all.TotalGBs / single.TotalGBs)
	}
	if rs := run(false); rs < 5.3 {
		t.Errorf("H100 CPC read speedup %.2f; paper finds no read impact (~6)", rs)
	}
	ws := run(true)
	if ws < 3.8 || ws > 5.2 {
		t.Errorf("H100 CPC write speedup %.2f, want ~4.6", ws)
	}
}

// Fig. 12: A100 near-partition slices reach ~39.5 GB/s from one SM while
// far slices drop toward ~26 GB/s, and the pattern swaps across partitions.
func TestA100NearFarBandwidth(t *testing.T) {
	e := engineFor(t, gpu.A100())
	bw := func(sm, slice int) float64 {
		r, err := e.Solve([]Flow{{SM: sm, Slices: []int{slice}}})
		if err != nil {
			t.Fatal(err)
		}
		return float64(r.TotalGBs)
	}
	smLeft := 0  // GPC0, partition 0
	smRight := 4 // GPC4, partition 1
	nearL, farL := bw(smLeft, 0), bw(smLeft, 9)
	if nearL < 35 || nearL > 45 {
		t.Errorf("A100 near bandwidth %.1f outside [35, 45] (paper 39.5)", nearL)
	}
	if farL >= nearL*0.75 {
		t.Errorf("A100 far bandwidth %.1f not at least 25%% below near %.1f", farL, nearL)
	}
	// Swap for the other partition: SM4 (GPC4, leftmost column of
	// partition 1) mirrors SM0, so its nearest MP is MP5 (slice 5).
	nearR, farR := bw(smRight, 5), bw(smRight, 0)
	if nearR < 34 || farR >= nearR*0.75 {
		t.Errorf("A100 partition-1 SM should see mirrored near/far: near=%.1f far=%.1f", nearR, farR)
	}
}

// Fig. 13: single-slice bandwidth over all SMs is bimodal on A100 (near
// and far peaks) but unimodal on H100 (partition-local caching).
func TestSliceBandwidthModality(t *testing.T) {
	sample := func(cfg gpu.Config, slice int) []float64 {
		e := engineFor(t, cfg)
		var xs []float64
		for sm := 0; sm < cfg.SMs(); sm += 2 {
			r, err := e.Solve([]Flow{{SM: sm, Slices: []int{slice}}})
			if err != nil {
				t.Fatal(err)
			}
			xs = append(xs, float64(r.TotalGBs))
		}
		return xs
	}
	// A100: two well-separated modes (near and far partitions) produce a
	// wide distribution with >= 2 histogram peaks.
	a := sample(gpu.A100(), 0)
	if cv := stats.StdDev(a) / stats.Mean(a); cv < 0.2 {
		t.Errorf("A100 slice-bandwidth CV %.2f too small for a bimodal split", cv)
	}
	if peaks := len(stats.HistogramOf(a, 12).Peaks(0.3)); peaks < 2 {
		t.Errorf("A100 slice-bandwidth distribution has %d peak(s), want bimodal", peaks)
	}
	// H100: partition-local caching keeps every SM near; one tight mode.
	h := sample(gpu.H100(), 0)
	if cv := stats.StdDev(h) / stats.Mean(h); cv > 0.1 {
		t.Errorf("H100 slice-bandwidth CV %.2f; local caching should keep it tight", cv)
	}
}

// Fig. 14: A100 slice bandwidth saturates around 8 SMs regardless of
// near/far, but at low SM counts far trails near (Little's law).
func TestA100SaturationCurve(t *testing.T) {
	e := engineFor(t, gpu.A100())
	dev := e.Device()
	sms := dev.SMsOfGPC(0)
	curve := func(slice int, n int) float64 {
		flows := make([]Flow, n)
		for i := 0; i < n; i++ {
			flows[i] = Flow{SM: sms[i], Slices: []int{slice}}
		}
		r, err := e.Solve(flows)
		if err != nil {
			t.Fatal(err)
		}
		return float64(r.TotalGBs)
	}
	nearSat := curve(0, 14)
	if n8 := curve(0, 8); n8 < 0.95*nearSat {
		t.Errorf("near: 8 SMs reach %.0f of %.0f; paper saturates ~8 SMs", n8, nearSat)
	}
	// Far trails near at 1-2 SMs by >= 25%.
	for n := 1; n <= 2; n++ {
		near, far := curve(0, n), curve(9, n)
		if far >= near*0.75 {
			t.Errorf("far bandwidth %.1f at n=%d not at least 25%% below near %.1f", far, n, near)
		}
	}
	// Far eventually converges to the same saturated value.
	farSat := curve(9, 16)
	if farSat < 0.9*nearSat {
		t.Errorf("far saturated %.0f should approach near saturated %.0f", farSat, nearSat)
	}
}

// Fig. 15: placement sweeps on V100.
func TestV100PlacementEffects(t *testing.T) {
	e := engineFor(t, gpu.V100())
	dev := e.Device()
	cfg := dev.Config()

	// (a) all SMs to N slices, contiguous (same MP) vs distributed
	// (across MPs): minimal difference (ideal L2 input speedup).
	allSMFlows := func(slices []int) float64 {
		flows := make([]Flow, cfg.SMs())
		for sm := range flows {
			flows[sm] = Flow{SM: sm, Slices: slices}
		}
		r, err := e.Solve(flows)
		if err != nil {
			t.Fatal(err)
		}
		return float64(r.TotalGBs)
	}
	contigMP := dev.SlicesOfMP(0)  // 4 slices, one MP
	distribMP := []int{0, 1, 2, 3} // 4 slices, four MPs
	c, d := allSMFlows(contigMP), allSMFlows(distribMP)
	if rel := (d - c) / d; rel > 0.25 || rel < -0.1 {
		t.Errorf("contiguous vs distributed MP differ by %.0f%%; paper finds minimal difference", rel*100)
	}

	// (b) N SMs to one MP: contiguous SMs (few GPCs) degrade versus
	// distributed SMs (all GPCs) - paper ~62% at 28 SMs.
	oneMP := dev.SlicesOfMP(0)
	nsm := 28
	contigSM := append(append([]int{}, dev.SMsOfGPC(0)...), dev.SMsOfGPC(1)...)
	var distribSM []int
	for i := 0; len(distribSM) < nsm; i++ {
		distribSM = append(distribSM, i)
	}
	run := func(sms []int) float64 {
		flows := make([]Flow, len(sms))
		for i, sm := range sms {
			flows[i] = Flow{SM: sm, Slices: oneMP}
		}
		r, err := e.Solve(flows)
		if err != nil {
			t.Fatal(err)
		}
		return float64(r.TotalGBs)
	}
	cb, db := run(contigSM[:nsm]), run(distribSM)
	if loss := 1 - cb/db; loss < 0.35 {
		t.Errorf("contiguous-SM degradation %.0f%%, want >= 35%% (paper ~62%%)", loss*100)
	}

	// (c) 14 contiguous SMs: widening from 1 MP to 4 MPs engages more
	// spatial ports (paper +218%); distributed SMs see a small effect.
	mps := func(n int) []int {
		var s []int
		for mp := 0; mp < n; mp++ {
			s = append(s, dev.SlicesOfMP(mp)...)
		}
		return s
	}
	run14 := func(sms []int, slices []int) float64 {
		flows := make([]Flow, 14)
		for i := 0; i < 14; i++ {
			flows[i] = Flow{SM: sms[i], Slices: slices}
		}
		r, err := e.Solve(flows)
		if err != nil {
			t.Fatal(err)
		}
		return float64(r.TotalGBs)
	}
	contig14 := dev.SMsOfGPC(0)
	gain := run14(contig14, mps(4))/run14(contig14, mps(1)) - 1
	if gain < 1.0 {
		t.Errorf("contiguous-SM gain from 1->4 MPs = +%.0f%%, want >= +100%% (paper +218%%)", gain*100)
	}
	distrib14 := distribSM[:14]
	dgain := run14(distrib14, mps(4))/run14(distrib14, mps(1)) - 1
	if dgain > gain/2 {
		t.Errorf("distributed-SM gain +%.0f%% should be well below contiguous +%.0f%%", dgain*100, gain*100)
	}
}

// Property: per-flow bandwidths are positive and capped by the SM port,
// and no station is utilized beyond solver tolerance of 1.
func TestSolvePropertySanity(t *testing.T) {
	e := engineFor(t, gpu.V100())
	cfg := e.Device().Config()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		flows := make([]Flow, n)
		for i := range flows {
			k := 1 + rng.Intn(4)
			slices := make([]int, k)
			for j := range slices {
				slices[j] = rng.Intn(cfg.L2Slices)
			}
			flows[i] = Flow{SM: rng.Intn(cfg.SMs()), Slices: slices, Write: rng.Intn(2) == 0}
		}
		r, err := e.Solve(flows)
		if err != nil {
			return false
		}
		for _, bw := range r.PerFlowGBs {
			if bw <= 0 || bw > e.Profile().SMReadGBs+1 {
				return false
			}
		}
		m := e.build(flows)
		x, err := solveAMVA(m, amvaMaxIter)
		if err != nil {
			return false
		}
		for _, u := range denseUtilization(m, x) {
			if u < 0 || u > 1.02 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestNewEngineWithProfileValidates(t *testing.T) {
	dev := gpu.MustNew(gpu.V100())
	if _, err := NewEngineWithProfile(dev, Profile{}); err == nil {
		t.Error("empty profile should fail")
	}
}

// Property: raising any single capacity never lowers total bandwidth
// (the queueing model is monotone in capacities).
func TestSolvePropertyCapacityMonotone(t *testing.T) {
	dev, err := gpu.New(gpu.V100())
	if err != nil {
		t.Fatal(err)
	}
	flows := []Flow{
		{SM: 0, Slices: []int{0, 1, 2}},
		{SM: 6, Slices: []int{0}},
		{SM: 1, Slices: []int{5, 9}, Write: true},
	}
	base, err := ProfileFor(dev.Config())
	if err != nil {
		t.Fatal(err)
	}
	solve := func(p Profile) float64 {
		e, err := NewEngineWithProfile(dev, p)
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Solve(flows)
		if err != nil {
			t.Fatal(err)
		}
		return float64(r.TotalGBs)
	}
	baseline := solve(base)
	bumps := []func(*Profile){
		func(p *Profile) { p.SMReadGBs *= 2 },
		func(p *Profile) { p.TPCReadGBs *= 2 },
		func(p *Profile) { p.SlotBusGBs *= 2 },
		func(p *Profile) { p.GPCTrunkGBs *= 2 },
		func(p *Profile) { p.SliceGBs *= 2 },
		func(p *Profile) { p.MLPLines *= 2; p.MLPPerSliceLines *= 2 },
	}
	for i, bump := range bumps {
		p := base
		bump(&p)
		if got := solve(p); got < baseline*0.999 {
			t.Errorf("bump %d lowered total bandwidth: %.2f -> %.2f", i, baseline, got)
		}
	}
}

// Property: adding a competing flow never increases the existing flows'
// aggregate bandwidth.
func TestSolvePropertyContentionMonotone(t *testing.T) {
	e := engineFor(t, gpu.V100())
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(5)
		flows := make([]Flow, n)
		for i := range flows {
			flows[i] = Flow{SM: rng.Intn(84), Slices: []int{rng.Intn(32)}}
		}
		before, err := e.Solve(flows)
		if err != nil {
			t.Fatal(err)
		}
		extra := append(append([]Flow{}, flows...), Flow{SM: rng.Intn(84), Slices: []int{flows[0].Slices[0]}})
		after, err := e.Solve(extra)
		if err != nil {
			t.Fatal(err)
		}
		var sumBefore, sumAfter float64
		for i := 0; i < n; i++ {
			sumBefore += float64(before.PerFlowGBs[i])
			sumAfter += float64(after.PerFlowGBs[i])
		}
		if sumAfter > sumBefore*1.01 {
			t.Errorf("trial %d: adding contention raised existing flows %.2f -> %.2f", trial, sumBefore, sumAfter)
		}
	}
}

// Property: no slice ever carries more than its port capacity.
func TestSolvePropertySliceCapRespected(t *testing.T) {
	e := engineFor(t, gpu.V100())
	dev := e.Device()
	var flows []Flow
	for _, sm := range dev.SMsOfGPC(0) {
		flows = append(flows, Flow{SM: sm, Slices: []int{4}})
	}
	for _, sm := range dev.SMsOfGPC(2) {
		flows = append(flows, Flow{SM: sm, Slices: []int{4}})
	}
	r, err := e.Solve(flows)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalGBs > e.Profile().SliceGBs*1.01 {
		t.Errorf("slice 4 carries %.1f GB/s, cap is %.1f", r.TotalGBs, e.Profile().SliceGBs)
	}
}

// A custom (non-canonical) generation gets a derived profile that keeps
// the paper's provisioning invariants: fabric exceeds memory, memory is
// ~88% achievable, slice bandwidth is near-uniform.
func TestDerivedProfileForCustomGeneration(t *testing.T) {
	cfg, err := gpu.Custom(gpu.CustomSpec{
		Name: "X200", GPCs: 10, TPCsPerGPC: 8, Partitions: 2,
		L2Slices: 100, MPs: 10, MemBWGBs: 5000, L2FabricFactor: 3.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ProfileFor(cfg); err == nil {
		t.Fatal("custom generation should not have a canonical profile")
	}
	dev, err := gpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(dev) // falls back to DeriveProfile
	if err != nil {
		t.Fatal(err)
	}
	slices := allSlices(cfg)
	flows := make([]Flow, cfg.SMs())
	for sm := range flows {
		flows[sm] = Flow{SM: sm, Slices: slices}
	}
	fabric, err := e.Solve(flows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range flows {
		flows[i].DRAM = true
	}
	mem, err := e.Solve(flows)
	if err != nil {
		t.Fatal(err)
	}
	if fabric.TotalGBs < 1.5*mem.TotalGBs {
		t.Errorf("derived fabric %.0f should well exceed memory %.0f", fabric.TotalGBs, mem.TotalGBs)
	}
	if frac := float64(mem.TotalGBs / cfg.MemBWGBs); frac < 0.7 || frac > 0.95 {
		t.Errorf("derived memory utilization %.0f%% outside plausible band", frac*100)
	}
	// Per-slice uniformity still holds on the derived profile.
	a, err := e.Solve([]Flow{{SM: 0, Slices: []int{0}}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Solve([]Flow{{SM: 0, Slices: []int{1}}})
	if err != nil {
		t.Fatal(err)
	}
	if r := float64(a.TotalGBs / b.TotalGBs); r < 0.8 || r > 1.25 {
		t.Errorf("near-slice bandwidths should be comparable: %.1f vs %.1f", a.TotalGBs, b.TotalGBs)
	}
}

func TestDeriveProfileValidation(t *testing.T) {
	if _, err := DeriveProfile(gpu.Config{}); err == nil {
		t.Error("invalid config should fail")
	}
	if p, err := ProfileOrDerive(gpu.V100()); err != nil || p.SliceGBs != 85 {
		t.Errorf("canonical generation should keep its hand calibration: %v %v", p.SliceGBs, err)
	}
}

// solveAMVADense is the dense-matrix Schweitzer AMVA solveAMVA replaced,
// kept as its oracle: queue lengths live in a stations x classes matrix
// whose columns are re-summed every iteration.
func solveAMVADense(m *netModel) []float64 {
	nClasses := len(m.classes)
	nStations := len(m.stations)
	qcf := make([][]float64, nStations)
	for s := range qcf {
		qcf[s] = make([]float64, nClasses)
	}
	for f, dms := range m.classes {
		if len(dms) == 0 {
			continue
		}
		each := m.population[f] / float64(len(dms)+1)
		for _, dm := range dms {
			qcf[dm.station][f] = each
		}
	}
	x := make([]float64, nClasses)
	qTot := make([]float64, nStations)
	const (
		maxIter = 2000
		tol     = 1e-10
		damp    = 0.5
	)
	for iter := 0; iter < maxIter; iter++ {
		for s := range qTot {
			qTot[s] = 0
			for f := 0; f < nClasses; f++ {
				qTot[s] += qcf[s][f]
			}
		}
		maxDelta := 0.0
		for f, dms := range m.classes {
			nf := m.population[f]
			r := m.think[f]
			rs := make([]float64, len(dms))
			for i, dm := range dms {
				seen := qTot[dm.station] - qcf[dm.station][f]/nf
				if seen < 0 {
					seen = 0
				}
				rs[i] = dm.d * (1 + seen)
				r += rs[i]
			}
			xf := nf / r
			x[f] = xf
			for i, dm := range dms {
				next := xf * rs[i]
				old := qcf[dm.station][f]
				upd := old*(1-damp) + next*damp
				if d := math.Abs(upd - old); d > maxDelta {
					maxDelta = d
				}
				qcf[dm.station][f] = upd
			}
		}
		if maxDelta < tol {
			break
		}
	}
	return x
}

// denseUtilization maps each station's name to its utilization, the sum
// of every class's throughput times its service demand there.
func denseUtilization(m *netModel, x []float64) map[string]float64 {
	util := make(map[string]float64, len(m.stations))
	for si := range m.stations {
		var u float64
		for f := range m.classes {
			for _, dm := range m.classes[f] {
				if dm.station == si {
					u += x[f] * dm.d
				}
			}
		}
		if u > util[m.stations[si]] {
			util[m.stations[si]] = u
		}
	}
	return util
}

// oracleFlowSets returns, per canonical GPU, the flow sets the figures
// solve (the aggregate fabric and memory sweeps, single-slice and
// per-GPC slice bandwidth, fig14's SM sweep) plus seeded random sets
// with mixed directions, DRAM flows, shared SMs and repeated slices.
func oracleFlowSets(e *Engine) map[string][]Flow {
	dev := e.Device()
	cfg := dev.Config()
	all := allSlices(cfg)
	sets := map[string][]Flow{}
	var fabric, memory []Flow
	for sm := 0; sm < cfg.SMs(); sm++ {
		fabric = append(fabric, Flow{SM: sm, Slices: all})
		memory = append(memory, Flow{SM: sm, Slices: all, DRAM: true})
	}
	sets["fabric"], sets["memory"] = fabric, memory
	for _, sm := range []int{0, cfg.SMs() / 2, cfg.SMs() - 1} {
		for _, s := range []int{0, cfg.L2Slices / 3, cfg.L2Slices - 1} {
			sets[fmt.Sprintf("slice sm%d->%d", sm, s)] = []Flow{{SM: sm, Slices: []int{s}}}
		}
	}
	for g := 0; g < cfg.GPCs; g++ {
		var flows []Flow
		for _, sm := range dev.SMsOfGPC(g) {
			flows = append(flows, Flow{SM: sm, Slices: []int{5}})
		}
		sets[fmt.Sprintf("gpc%d->5", g)] = flows
	}
	gpc0 := dev.SMsOfGPC(0)
	for n := 1; n <= 14 && n <= len(gpc0); n++ {
		for _, s := range []int{0, cfg.MPs - 1} {
			var flows []Flow
			for _, sm := range gpc0[:n] {
				flows = append(flows, Flow{SM: sm, Slices: []int{s}})
			}
			sets[fmt.Sprintf("fig14 n%d->%d", n, s)] = flows
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		flows := make([]Flow, 1+rng.Intn(24))
		for j := range flows {
			slices := make([]int, 1+rng.Intn(12))
			for k := range slices {
				slices[k] = rng.Intn(cfg.L2Slices)
			}
			flows[j] = Flow{SM: rng.Intn(cfg.SMs()), Slices: slices, Write: rng.Intn(2) == 0, DRAM: rng.Intn(3) == 0}
		}
		sets[fmt.Sprintf("random%d", i)] = flows
	}
	return sets
}

// TestSparseAMVAMatchesDense pins the sparse solver to the dense oracle
// bit for bit on every flow set of oracleFlowSets.
func TestSparseAMVAMatchesDense(t *testing.T) {
	for _, cfg := range gpu.AllConfigs() {
		e := engineFor(t, cfg)
		for name, flows := range oracleFlowSets(e) {
			m := e.build(flows)
			got, err := solveAMVA(m, amvaMaxIter)
			if err != nil {
				t.Fatalf("%s %s: %v", cfg.Name, name, err)
			}
			want := solveAMVADense(m)
			for f := range want {
				if math.Float64bits(got[f]) != math.Float64bits(want[f]) {
					t.Fatalf("%s %s: class %d throughput %v, dense %v", cfg.Name, name, f, got[f], want[f])
				}
			}
		}
	}
}

// TestBuildVisitsEachStationOncePerClass checks the property the sparse
// queue totals rest on: no class of a built network has two demands at
// one station.
func TestBuildVisitsEachStationOncePerClass(t *testing.T) {
	for _, cfg := range gpu.AllConfigs() {
		e := engineFor(t, cfg)
		for name, flows := range oracleFlowSets(e) {
			m := e.build(flows)
			for f, dms := range m.classes {
				seen := map[int]bool{}
				for _, dm := range dms {
					if seen[dm.station] {
						t.Fatalf("%s %s: class %d visits %s twice", cfg.Name, name, f, m.stations[dm.station])
					}
					seen[dm.station] = true
				}
			}
		}
	}
}

// TestAMVANonConvergenceIsError forces the iteration cap below what a
// real solve needs and checks that solveAMVA reports it instead of
// returning the unconverged throughputs.
func TestAMVANonConvergenceIsError(t *testing.T) {
	e := engineFor(t, gpu.V100())
	m := e.build(oracleFlowSets(e)["fabric"])
	if x, err := solveAMVA(m, 1); err == nil {
		t.Fatalf("a 1-iteration cap converged to %v; want an error", x)
	}
	if _, err := solveAMVA(m, amvaMaxIter); err != nil {
		t.Fatal(err)
	}
}
