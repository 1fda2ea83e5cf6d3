package sidechannel

import (
	"math/rand"
	"testing"

	"gpunoc/internal/gpu"
	"gpunoc/internal/kernel"
	"gpunoc/internal/rsa"
	"gpunoc/internal/stats"
)

func rsaTimer(t *testing.T, dev *gpu.Device, sched kernel.Scheduler) *rsa.GPUTimer {
	t.Helper()
	m, err := kernel.NewMachine(dev, sched, kernel.Options{GridSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return rsa.NewGPUTimer(m)
}

func TestRandomExponent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e, err := RandomExponent(64, 17, rng)
	if err != nil {
		t.Fatal(err)
	}
	if e.BitLen() != 64 {
		t.Errorf("bit length %d, want 64", e.BitLen())
	}
	if got := rsa.OnesCount(e); got != 17 {
		t.Errorf("ones = %d, want 17", got)
	}
	if _, err := RandomExponent(4, 9, rng); err == nil {
		t.Error("impossible ones count should fail")
	}
	if _, err := RandomExponent(1, 1, rng); err == nil {
		t.Error("tiny exponent should fail")
	}
}

func TestCollectRSATimingsValidation(t *testing.T) {
	timer := rsaTimer(t, gpu.MustNew(gpu.A100()), kernel.ListScheduler{SMs: []int{0, 8}})
	if _, err := CollectRSATimings(timer, 64, []int{8}, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero repeats should fail")
	}
}

func TestFitRSAModelValidation(t *testing.T) {
	if _, err := FitRSAModel(nil); err == nil {
		t.Error("empty timings should fail")
	}
	if (RSAFit{}).InferOnes(100) != 0 {
		t.Error("degenerate fit should infer 0")
	}
}

// Fig. 19(a): with static scheduling the time-vs-ones relationship is a
// clean line and the attacker infers the ones count almost exactly;
// executing on different SMs shifts the line; Fig. 19(b): random
// scheduling makes the relationship noisy and inference inaccurate.
func TestRSAAttackSchedulingModes(t *testing.T) {
	dev := gpu.MustNew(gpu.A100())
	ones := []int{8, 16, 24, 32, 40, 48, 56}
	rng := rand.New(rand.NewSource(3))

	static := rsaTimer(t, dev, kernel.ListScheduler{SMs: []int{0, 8}})
	calib, err := CollectRSATimings(static, 64, ones, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	test, err := CollectRSATimings(static, 64, ones, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	fit, mae, err := EvaluateRSAAttack(calib, test)
	if err != nil {
		t.Fatal(err)
	}
	if fit.R < 0.995 {
		t.Errorf("static fit R = %.4f, want near-perfect linearity", fit.R)
	}
	if fit.Slope <= 0 {
		t.Errorf("slope %.1f should be positive (more ones, more time)", fit.Slope)
	}
	if mae > 1.0 {
		t.Errorf("static inference error %.2f bits, want < 1", mae)
	}

	// Same-partition different SMs: the line shifts but stays tight.
	shifted := rsaTimer(t, dev, kernel.ListScheduler{SMs: []int{16, 24}})
	testShift, err := CollectRSATimings(shifted, 64, ones, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	_, maeShift, err := EvaluateRSAAttack(calib, testShift)
	if err != nil {
		t.Fatal(err)
	}
	if maeShift <= mae {
		t.Errorf("different-SM inference error %.2f should exceed same-SM %.2f", maeShift, mae)
	}

	// Cross-partition SMs: far operand loads blow up the error.
	cross := rsaTimer(t, dev, kernel.ListScheduler{SMs: []int{0, 4}})
	testCross, err := CollectRSATimings(cross, 64, ones, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	_, maeCross, err := EvaluateRSAAttack(calib, testCross)
	if err != nil {
		t.Fatal(err)
	}
	if maeCross < 10 {
		t.Errorf("cross-partition inference error %.2f bits, want large (paper: far placement shifts timing heavily)", maeCross)
	}

	// Random scheduling: noisy relationship, poor inference even when
	// calibrating under the same policy.
	schedRng := rand.New(rand.NewSource(7))
	random := rsaTimer(t, dev, kernel.RandomScheduler{Rand: schedRng.Uint64})
	calibR, err := CollectRSATimings(random, 64, ones, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	testR, err := CollectRSATimings(random, 64, ones, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	fitR, maeR, err := EvaluateRSAAttack(calibR, testR)
	if err != nil {
		t.Fatal(err)
	}
	if fitR.R > 0.98 {
		t.Errorf("random-scheduling fit R = %.4f; the relationship should be noisy", fitR.R)
	}
	if maeR < 3*mae+1 {
		t.Errorf("random-scheduling inference error %.2f should far exceed static %.2f", maeR, mae)
	}
}

func TestEvaluateRSAAttackValidation(t *testing.T) {
	timer := rsaTimer(t, gpu.MustNew(gpu.A100()), kernel.ListScheduler{SMs: []int{0, 8}})
	rng := rand.New(rand.NewSource(2))
	calib, err := CollectRSATimings(timer, 32, []int{4, 16, 28}, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := EvaluateRSAAttack(calib, nil); err == nil {
		t.Error("empty test set should fail")
	}
	if _, _, err := EvaluateRSAAttack(nil, calib); err == nil {
		t.Error("empty calibration should fail")
	}
}

// Fig. 17(b): the square kernel's execution time across second-SM
// placements spans up to ~1.7x, with cross-partition placements slowest.
func TestSquareKernelSweep(t *testing.T) {
	dev := gpu.MustNew(gpu.A100())
	// Fixed SM 0 (partition 0); candidates alternate partitions.
	candidates := []int{8, 16, 24, 1, 2, 3, 4, 5, 6, 7}
	times, err := SquareKernelSweep(dev, 0, candidates)
	if err != nil {
		t.Fatal(err)
	}
	ratio := stats.Max(times) / stats.Min(times)
	if ratio < 1.3 || ratio > 2.2 {
		t.Errorf("square-kernel placement spread %.2fx outside [1.3, 2.2] (paper: up to 1.7x)", ratio)
	}
	// Same-partition placements differ only modestly (paper: ~12%).
	samePart := times[:3] // SMs 8, 16, 24 share partition 0 with SM 0
	if spread := stats.Max(samePart)/stats.Min(samePart) - 1; spread > 0.25 {
		t.Errorf("same-partition spread %.0f%%, want modest", spread*100)
	}
	if _, err := SquareKernelSweep(dev, 0, nil); err == nil {
		t.Error("empty candidates should fail")
	}
}
