package noc

import (
	"testing"

	"gpunoc/internal/stats"
)

// Fig. 23: round-robin arbitration on a 6x6 mesh with edge MCs gives
// position-dependent throughput (the paper measures up to 2.4x), while
// age-based arbitration restores global fairness.
func TestFairnessRoundRobinVsAgeBased(t *testing.T) {
	rr, err := RunFairness(DefaultFairnessConfig(RoundRobin, 42))
	if err != nil {
		t.Fatal(err)
	}
	age, err := RunFairness(DefaultFairnessConfig(AgeBased, 42))
	if err != nil {
		t.Fatal(err)
	}
	if rr.MaxMinRatio < 2.0 {
		t.Errorf("round-robin max/min ratio %.2f, want >= 2 (paper: up to 2.4x)", rr.MaxMinRatio)
	}
	if rr.MaxMinRatio > 6.0 {
		t.Errorf("round-robin ratio %.2f implausibly unfair", rr.MaxMinRatio)
	}
	if age.MaxMinRatio > 1.8 {
		t.Errorf("age-based ratio %.2f, want near-fair", age.MaxMinRatio)
	}
	if age.MaxMinRatio >= rr.MaxMinRatio*0.7 {
		t.Errorf("age-based (%.2f) should be much fairer than round-robin (%.2f)",
			age.MaxMinRatio, rr.MaxMinRatio)
	}
	if len(rr.Throughput) != 30 || len(rr.ComputeNodes) != 30 {
		t.Errorf("default 6x6 topology should leave 30 compute nodes beside its 6 MCs")
	}
}

func TestFairnessTotalThroughputComparable(t *testing.T) {
	// Fairness should not come at a large aggregate-throughput cost.
	rr, err := RunFairness(DefaultFairnessConfig(RoundRobin, 7))
	if err != nil {
		t.Fatal(err)
	}
	age, err := RunFairness(DefaultFairnessConfig(AgeBased, 7))
	if err != nil {
		t.Fatal(err)
	}
	sum := func(xs []float64) float64 { return stats.Sum(xs) }
	if r := sum(age.Throughput) / sum(rr.Throughput); r < 0.85 || r > 1.15 {
		t.Errorf("aggregate throughput ratio age/rr = %.2f, want ~1", r)
	}
}

func TestFairnessValidation(t *testing.T) {
	cfg := DefaultFairnessConfig(RoundRobin, 1)
	cfg.PacketFlits = 0
	if _, err := RunFairness(cfg); err == nil {
		t.Error("zero packet size should fail")
	}
	cfg = DefaultFairnessConfig(RoundRobin, 1)
	cfg.Cycles = 0
	if _, err := RunFairness(cfg); err == nil {
		t.Error("zero cycles should fail")
	}
	cfg = DefaultFairnessConfig(RoundRobin, 1)
	cfg.InjectRate = 0
	if _, err := RunFairness(cfg); err == nil {
		t.Error("zero rate should fail")
	}
	cfg = DefaultFairnessConfig(RoundRobin, 1)
	cfg.MCs = []int{99}
	if _, err := RunFairness(cfg); err == nil {
		t.Error("bad MC node should fail")
	}
	cfg = DefaultFairnessConfig(RoundRobin, 1)
	cfg.Mesh.Width, cfg.Mesh.Height = 1, 1
	cfg.MCs = []int{0}
	if _, err := RunFairness(cfg); err == nil {
		t.Error("no compute nodes should fail")
	}
}

// Fig. 21: with cache-line-sized replies over narrow reply-network links,
// average memory utilization collapses to ~10-25% and fluctuates, while a
// reply interface matched to the request size sustains far higher
// utilization.
func TestGPUSimReplyBottleneck(t *testing.T) {
	narrow, err := RunGPUSim(DefaultGPUSimConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if narrow.MemUtilization < 0.08 || narrow.MemUtilization > 0.35 {
		t.Errorf("bottlenecked memory utilization %.2f, want ~0.1-0.3 (paper ~0.2)", narrow.MemUtilization)
	}
	if len(narrow.UtilSeries) == 0 {
		t.Fatal("no utilization series")
	}
	lo, hi := narrow.UtilSeries[0], narrow.UtilSeries[0]
	for _, u := range narrow.UtilSeries {
		if u < lo {
			lo = u
		}
		if u > hi {
			hi = u
		}
	}
	if hi/lo < 1.2 {
		t.Errorf("utilization window spread %.2f..%.2f too flat; Fig. 21 shows fluctuation", lo, hi)
	}

	wide := DefaultGPUSimConfig(1)
	wide.ReplyFlits = 1
	w, err := RunGPUSim(wide)
	if err != nil {
		t.Fatal(err)
	}
	if w.MemUtilization < 2*narrow.MemUtilization {
		t.Errorf("matched reply interface utilization %.2f should far exceed bottlenecked %.2f",
			w.MemUtilization, narrow.MemUtilization)
	}
	if narrow.RequestsServed == 0 {
		t.Error("no requests served")
	}
}

func TestGPUSimValidation(t *testing.T) {
	bad := DefaultGPUSimConfig(1)
	bad.ReplyFlits = 0
	if _, err := RunGPUSim(bad); err == nil {
		t.Error("zero reply flits should fail")
	}
	bad = DefaultGPUSimConfig(1)
	bad.UtilWindow = 0
	if _, err := RunGPUSim(bad); err == nil {
		t.Error("zero window should fail")
	}
	bad = DefaultGPUSimConfig(1)
	bad.MCs = []int{-3}
	if _, err := RunGPUSim(bad); err == nil {
		t.Error("bad MC should fail")
	}
}

// Fig. 22: the network-wall analysis.
func TestNetworkWallAnalysis(t *testing.T) {
	points := PriorWorkPoints()
	if len(points) < 8 {
		t.Fatalf("expected a survey of prior work, got %d points", len(points))
	}
	reports, walled, err := AnalyzeNetworkWall(points)
	if err != nil {
		t.Fatal(err)
	}
	if walled == 0 || walled == len(points) {
		t.Errorf("walled = %d of %d; the survey should show configurations on both sides", walled, len(points))
	}
	for _, r := range reports {
		if r.NoCMem <= 0 {
			t.Errorf("%s: non-positive interface bandwidth", r.Point.Name)
		}
		if r.Walled != (r.NoCMem < r.Point.MemBWGBs) {
			t.Errorf("%s: inconsistent classification", r.Point.Name)
		}
	}
}

func TestSimPointMath(t *testing.T) {
	p := SimPoint{Name: "x", NoCClockGHz: 1, ChannelBytes: 32, MPs: 8, MemBWGBs: 200}
	if got := p.NoCMemBWGBs(); got != 256 {
		t.Errorf("NoCMemBW = %v, want 256", got)
	}
	if p.NetworkWalled() {
		t.Error("256 > 200 should not be walled")
	}
	p.MemBWGBs = 300
	if !p.NetworkWalled() {
		t.Error("256 < 300 should be walled")
	}
	if err := (SimPoint{Name: "bad"}).Validate(); err == nil {
		t.Error("zero point should fail validation")
	}
	if _, _, err := AnalyzeNetworkWall([]SimPoint{{Name: "bad"}}); err == nil {
		t.Error("analysis should propagate validation errors")
	}
}

// The classic load-latency curve: latency rises with offered load and
// blows up past saturation; accepted throughput tracks offered load below
// saturation and flattens above it.
func TestLoadLatencyCurve(t *testing.T) {
	points, err := RunLoadLatency(DefaultLoadLatencyConfig(RoundRobin, 11))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 7 {
		t.Fatalf("points = %d", len(points))
	}
	// Latency is (weakly) increasing in offered load.
	for i := 1; i < len(points); i++ {
		if points[i].AvgLatency+2 < points[i-1].AvgLatency {
			t.Errorf("latency dropped with load: %.1f -> %.1f at rate %.2f",
				points[i-1].AvgLatency, points[i].AvgLatency, points[i].OfferedRate)
		}
	}
	// Below saturation, accepted tracks offered.
	low := points[0]
	if diff := low.AcceptedRate - low.OfferedRate; diff > 0.01 || diff < -0.01 {
		t.Errorf("at light load accepted %.3f should track offered %.3f", low.AcceptedRate, low.OfferedRate)
	}
	// Past saturation, accepted flattens well below offered.
	high := points[len(points)-1]
	if high.AcceptedRate > 0.8*high.OfferedRate {
		t.Errorf("at rate %.2f accepted %.3f should be saturated", high.OfferedRate, high.AcceptedRate)
	}
	// Saturation latency far exceeds zero-load latency.
	if high.AvgLatency < 3*low.AvgLatency {
		t.Errorf("saturated latency %.1f should dwarf light-load %.1f", high.AvgLatency, low.AvgLatency)
	}
	if sat := SaturationRate(points); sat < 0.15 || sat > 0.25 {
		t.Errorf("saturation rate %.3f outside the expected band for 6 MCs / 30 cores", sat)
	}
}

func TestLoadLatencyValidation(t *testing.T) {
	cfg := DefaultLoadLatencyConfig(RoundRobin, 1)
	cfg.Rates = nil
	if _, err := RunLoadLatency(cfg); err == nil {
		t.Error("empty rates should fail")
	}
	cfg = DefaultLoadLatencyConfig(RoundRobin, 1)
	cfg.Rates = []float64{0}
	if _, err := RunLoadLatency(cfg); err == nil {
		t.Error("zero rate should fail")
	}
	cfg = DefaultLoadLatencyConfig(RoundRobin, 1)
	cfg.PacketFlits = 0
	if _, err := RunLoadLatency(cfg); err == nil {
		t.Error("zero packet size should fail")
	}
}
