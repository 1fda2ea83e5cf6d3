package simcheck

import (
	"testing"

	"gpunoc/internal/noc"
)

func gpuCfg() noc.GPUSimConfig {
	return noc.GPUSimConfig{
		Mesh:             noc.MeshConfig{Width: 4, Height: 4, BufferFlits: 4, Arbiter: noc.RoundRobin},
		ReplyFlits:       2,
		MCServiceCycles:  2,
		MCQueue:          4,
		WindowPerCompute: 4,
		Cycles:           1000,
		Warmup:           100,
		UtilWindow:       100,
		Seed:             7,
	}
}

// The real simulator must clear its own audit: deterministic across
// runs and inside the physical envelope.
func TestCheckGPUSimClean(t *testing.T) {
	if v, err := CheckGPUSim(gpuCfg()); err != nil || len(v) != 0 {
		t.Fatalf("audit of a healthy run: error %v, violations %v", err, v)
	}
}

// determinism: each result field diverging between identical runs must
// be caught.
func TestGPUSimPairDivergenceDetected(t *testing.T) {
	base := func() *noc.GPUSimResult {
		return &noc.GPUSimResult{
			MemUtilization:            0.5,
			ReplyInterfaceUtilization: 0.4,
			RequestsServed:            100,
			UtilSeries:                []float64{0.5, 0.5},
		}
	}
	mutations := map[string]func(r *noc.GPUSimResult){
		"RequestsServed":            func(r *noc.GPUSimResult) { r.RequestsServed++ },
		"MemUtilization":            func(r *noc.GPUSimResult) { r.MemUtilization += 0.01 },
		"ReplyInterfaceUtilization": func(r *noc.GPUSimResult) { r.ReplyInterfaceUtilization += 0.01 },
		"UtilSeries value":          func(r *noc.GPUSimResult) { r.UtilSeries[1] += 0.01 },
		"UtilSeries length":         func(r *noc.GPUSimResult) { r.UtilSeries = r.UtilSeries[:1] },
	}
	for field, mutate := range mutations {
		var log violationLog
		b := base()
		mutate(b)
		checkGPUSimPair(&log, base(), b)
		if !hasInvariant(log.violations, "determinism") {
			t.Errorf("divergence in %s went undetected", field)
		}
	}
	var log violationLog
	checkGPUSimPair(&log, base(), base())
	if len(log.violations) != 0 {
		t.Errorf("identical results flagged: %v", log.violations)
	}
}

// bounds: every envelope check must fire on a fabricated out-of-range
// result.
func TestGPUSimBoundsViolationsDetected(t *testing.T) {
	cfg := gpuCfg()
	ok := &noc.GPUSimResult{
		MemUtilization:            0.5,
		ReplyInterfaceUtilization: 0.4,
		RequestsServed:            100,
		UtilSeries:                make([]float64, cfg.Cycles/cfg.UtilWindow),
	}
	for i := range ok.UtilSeries {
		ok.UtilSeries[i] = 0.5
	}
	var cleanLog violationLog
	checkGPUSimBounds(&cleanLog, cfg, ok)
	if len(cleanLog.violations) != 0 {
		t.Fatalf("in-envelope result flagged: %v", cleanLog.violations)
	}

	cases := map[string]func(r *noc.GPUSimResult){
		"util over 1":        func(r *noc.GPUSimResult) { r.MemUtilization = 1.2 },
		"util negative":      func(r *noc.GPUSimResult) { r.MemUtilization = -0.1 },
		"reply over cap":     func(r *noc.GPUSimResult) { r.ReplyInterfaceUtilization = 1.5 },
		"served negative":    func(r *noc.GPUSimResult) { r.RequestsServed = -1 },
		"served over peak":   func(r *noc.GPUSimResult) { r.RequestsServed = 1 << 40 },
		"series wrong len":   func(r *noc.GPUSimResult) { r.UtilSeries = r.UtilSeries[:3] },
		"series entry range": func(r *noc.GPUSimResult) { r.UtilSeries[0] = 1.7 },
		"series mean drift": func(r *noc.GPUSimResult) {
			for i := range r.UtilSeries {
				r.UtilSeries[i] = 0.9 // mean no longer decomposes MemUtilization
			}
		},
	}
	for name, mutate := range cases {
		var log violationLog
		r := &noc.GPUSimResult{
			MemUtilization:            ok.MemUtilization,
			ReplyInterfaceUtilization: ok.ReplyInterfaceUtilization,
			RequestsServed:            ok.RequestsServed,
			UtilSeries:                append([]float64(nil), ok.UtilSeries...),
		}
		mutate(r)
		checkGPUSimBounds(&log, cfg, r)
		if !hasInvariant(log.violations, "bounds") {
			t.Errorf("%s went undetected", name)
		}
	}
}

func TestGPUSimMCCountRule(t *testing.T) {
	cfg := gpuCfg()
	if got := gpuSimMCCount(cfg); got != cfg.Mesh.Width {
		t.Fatalf("default MC placement counted %d, want bottom row %d", got, cfg.Mesh.Width)
	}
	cfg.MCs = []int{1, 2, 3}
	if got := gpuSimMCCount(cfg); got != 3 {
		t.Fatalf("explicit MCs counted %d, want 3", got)
	}
}
