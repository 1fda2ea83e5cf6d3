package gpunoc_test

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"gpunoc"
	"gpunoc/internal/core"
	"gpunoc/internal/gpu"
	"gpunoc/internal/obs"
)

// TestNoCSimulationDeterminism runs the flit-level mesh sweep and the
// GPU request/reply simulation twice with identical seeds and demands
// identical results: the simulator must not leak map iteration order or
// global randomness into its outputs (the invariant noclint's
// determinism and orderedoutput analyzers guard statically).
func TestNoCSimulationDeterminism(t *testing.T) {
	llCfg := gpunoc.LoadLatencyConfig{
		Mesh:        gpunoc.MeshConfig{Width: 4, Height: 4, BufferFlits: 4, Arbiter: gpunoc.RoundRobin},
		PacketFlits: 2, Rates: []float64{0.05, 0.15, 0.3}, Cycles: 2000, Warmup: 200, Seed: 7,
	}
	first, err := gpunoc.RunLoadLatency(llCfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := gpunoc.RunLoadLatency(llCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("load-latency sweep differs between identical runs:\n%v\n%v", first, second)
	}

	gsCfg := gpunoc.GPUSimConfig{
		Mesh:             gpunoc.MeshConfig{Width: 4, Height: 4, BufferFlits: 4, Arbiter: gpunoc.RoundRobin},
		ReplyFlits:       2,
		WindowPerCompute: 4,
		MCServiceCycles:  4,
		MCQueue:          8,
		Cycles:           2000,
		Warmup:           200,
		UtilWindow:       200,
		Seed:             7,
	}
	g1, err := gpunoc.RunGPUSim(gsCfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := gpunoc.RunGPUSim(gsCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g1, g2) {
		t.Errorf("GPU sim differs between identical runs:\n%+v\n%+v", g1, g2)
	}
}

// TestReportDeterminism renders the full experiment report twice with a
// pinned timestamp and demands byte-identical output. Any map-ordered
// section or unseeded sampling anywhere in the experiment registry
// would show up here as a diff.
func TestReportDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every experiment twice")
	}
	fixed := time.Date(2024, 11, 2, 12, 0, 0, 0, time.UTC)
	render := func() []byte {
		var buf bytes.Buffer
		if err := core.WriteReportOptions(&buf, []gpu.Config{gpu.V100()}, core.ReportOptions{Quick: true, Now: fixed}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := render()
	second := render()
	if !bytes.Equal(first, second) {
		a, b := string(first), string(second)
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				lo := i - 80
				if lo < 0 {
					lo = 0
				}
				t.Fatalf("report differs at byte %d:\n...%q\nvs\n...%q", i, a[lo:i+40], b[lo:i+40])
			}
		}
		t.Fatalf("report lengths differ: %d vs %d", len(first), len(second))
	}
}

// TestReportObservedExtendsPlain proves metric collection is invisible
// until asked for: a report rendered with a registry attached must be
// the plain report byte-for-byte plus the metrics-summary footer, and
// two observed renders must agree byte-for-byte (instrument values are
// deterministic at fixed seeds). This is the report-level half of the
// nocchar stdout byte-identity smoke in ci.sh.
func TestReportObservedExtendsPlain(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every experiment several times")
	}
	fixed := time.Date(2024, 11, 2, 12, 0, 0, 0, time.UTC)
	render := func(reg *obs.Registry) []byte {
		var buf bytes.Buffer
		opts := core.ReportOptions{Quick: true, Now: fixed, Obs: reg}
		if err := core.WriteReportOptions(&buf, []gpu.Config{gpu.V100()}, opts); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	plain := render(nil)
	observed := render(obs.New())
	if !bytes.HasPrefix(observed, plain) {
		t.Error("observed report does not extend the plain report byte-for-byte")
	}
	footer := observed[len(plain):]
	if !bytes.Contains(footer, []byte("## Metrics summary")) {
		t.Error("observed report lacks the metrics-summary footer")
	}
	if !bytes.Contains(footer, []byte("fig21/V100/narrow/mc/served")) {
		t.Error("metrics footer lacks the fig21 MC served counter")
	}
	if again := render(obs.New()); !bytes.Equal(observed, again) {
		t.Error("observed report differs between identically-seeded renders")
	}
}

// TestReportParallelMatchesSequential renders the report at GOMAXPROCS=1
// and again with wide pools and demands byte-identical
// output: the parallel runner's index-addressed result slots must make
// goroutine scheduling invisible in every artifact.
func TestReportParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every experiment several times")
	}
	fixed := time.Date(2024, 11, 2, 12, 0, 0, 0, time.UTC)
	render := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var buf bytes.Buffer
		opts := core.ReportOptions{Quick: true, Now: fixed}
		if err := core.WriteReportOptions(&buf, []gpu.Config{gpu.V100()}, opts); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	sequential := render(1)
	for _, procs := range []int{2, 8} {
		par := render(procs)
		if !bytes.Equal(sequential, par) {
			t.Fatalf("report with GOMAXPROCS=%d differs from sequential: %d vs %d bytes",
				procs, len(par), len(sequential))
		}
	}
}
