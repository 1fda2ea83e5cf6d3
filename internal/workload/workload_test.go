package workload

import (
	"testing"

	"gpunoc/internal/gpu"
	"gpunoc/internal/stats"
)

func TestNewBFSValidation(t *testing.T) {
	if _, err := NewBFS(1, 4, 0); err == nil {
		t.Error("n=1 should fail")
	}
	if _, err := NewBFS(100, 0, 0); err == nil {
		t.Error("zero degree should fail")
	}
}

func TestBFSFrontierDynamics(t *testing.T) {
	b, err := NewBFS(4000, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if b.Steps() < 3 {
		t.Fatalf("BFS finished in %d steps; graph too small to be interesting", b.Steps())
	}
	// Traffic volume should vary strongly over steps (frontier growth).
	var volumes []float64
	for s := 0; s < b.Steps(); s++ {
		volumes = append(volumes, float64(len(b.Step(s))))
	}
	if stats.Max(volumes) < 10*volumes[0] {
		t.Errorf("BFS frontier never exploded: %v", volumes)
	}
	if b.Step(-1) != nil || b.Step(b.Steps()) != nil {
		t.Error("out-of-range steps should be nil")
	}
	if b.Name() != "bfs" {
		t.Error("name")
	}
}

func TestGaussianShrinkingWindow(t *testing.T) {
	g, err := NewGaussian(256, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Steps() != 255 {
		t.Fatalf("steps = %d, want 255", g.Steps())
	}
	prev := len(g.Step(0))
	for s := 1; s < g.Steps(); s++ {
		cur := len(g.Step(s))
		if cur > prev {
			t.Fatalf("step %d accesses %d > previous %d; window must shrink", s, cur, prev)
		}
		prev = cur
	}
	if g.Step(999) != nil {
		t.Error("out-of-range step should be nil")
	}
	if _, err := NewGaussian(1, 1); err == nil {
		t.Error("n=1 should fail")
	}
	if _, err := NewGaussian(8, 0); err == nil {
		t.Error("zero stride should fail")
	}
}

// Observation #12 / Fig. 16: whatever the workload's temporal shape, the
// address hash keeps per-slice traffic balanced within every substantial
// timestep.
func TestTrafficStaysBalanced(t *testing.T) {
	dev := gpu.MustNew(gpu.V100())
	bfs, err := NewBFS(20000, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	gauss, err := NewGaussian(512, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []Generator{bfs, gauss} {
		matrix, err := TrafficMatrix(dev, g)
		if err != nil {
			t.Fatal(err)
		}
		if len(matrix) != g.Steps() {
			t.Fatalf("%s: matrix rows %d != steps %d", g.Name(), len(matrix), g.Steps())
		}
		balance := AnalyzeBalance(matrix, 1000)
		checked := 0
		for s, b := range balance {
			if b.Total < 1000 {
				continue
			}
			checked++
			if b.CV > 0.35 {
				t.Errorf("%s step %d: slice-traffic CV %.2f; hash should balance (Observation #12)", g.Name(), s, b.CV)
			}
		}
		if checked == 0 {
			t.Errorf("%s: no substantial steps to check", g.Name())
		}
	}
}

func TestTrafficVolumeVariesButBalanceHolds(t *testing.T) {
	// The paper's point: volume changes over time (frontier explosions,
	// shrinking windows) yet the per-slice distribution stays consistent.
	dev := gpu.MustNew(gpu.V100())
	g, err := NewGaussian(256, 1)
	if err != nil {
		t.Fatal(err)
	}
	matrix, err := TrafficMatrix(dev, g)
	if err != nil {
		t.Fatal(err)
	}
	balance := AnalyzeBalance(matrix, 0)
	first, last := balance[0].Total, balance[len(balance)-2].Total
	if last >= first/4 {
		t.Errorf("gaussian volume should decay strongly: first %.0f last %.0f", first, last)
	}
}

// noSteps is a Generator with no timesteps.
type noSteps struct{}

func (noSteps) Name() string      { return "empty" }
func (noSteps) Steps() int        { return 0 }
func (noSteps) Step(int) []uint64 { return nil }

func TestTrafficMatrixValidation(t *testing.T) {
	dev := gpu.MustNew(gpu.V100())
	if _, err := TrafficMatrix(dev, noSteps{}); err == nil {
		t.Error("empty generator should fail")
	}
}

func TestAnalyzeBalanceSkipsTinySteps(t *testing.T) {
	matrix := [][]float64{{1, 0, 0, 0}, {100, 100, 100, 100}}
	b := AnalyzeBalance(matrix, 10)
	if b[0].CV != 0 {
		t.Error("tiny step should not get a CV")
	}
	if b[1].CV != 0 {
		t.Error("perfectly balanced step should have CV 0")
	}
	if b[0].Total != 1 || b[1].Total != 400 {
		t.Error("totals wrong")
	}
}
