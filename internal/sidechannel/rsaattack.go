package sidechannel

import (
	"fmt"
	"math/big"
	"math/rand"

	"gpunoc/internal/gpu"
	"gpunoc/internal/kernel"
	"gpunoc/internal/rsa"
	"gpunoc/internal/stats"
)

// RSATiming is one observation of the square-and-multiply loop: the
// (secret) exponent's ones count and the measured kernel cycles. The attack's ground truth keeps the ones count for
// evaluation; a real attacker only sees Cycles.
type RSATiming struct {
	Ones   int
	Cycles float64
}

// RandomExponent builds a bits-long exponent with exactly ones 1-bits
// (the top bit is always set, counting toward ones).
func RandomExponent(bits, ones int, rng *rand.Rand) (*big.Int, error) {
	if bits < 2 || ones < 1 || ones > bits {
		return nil, fmt.Errorf("sidechannel: exponent with %d ones in %d bits impossible", ones, bits)
	}
	e := new(big.Int)
	e.SetBit(e, bits-1, 1)
	remaining := ones - 1
	positions := rng.Perm(bits - 1)
	for _, p := range positions[:remaining] {
		e.SetBit(e, p, 1)
	}
	return e, nil
}

// CollectRSATimings times the modular exponentiation for exponents of the
// given ones counts (repeats each), using the timer's machine/scheduler.
func CollectRSATimings(t *rsa.GPUTimer, bits int, onesCounts []int, repeats int, rng *rand.Rand) ([]RSATiming, error) {
	if repeats <= 0 {
		return nil, fmt.Errorf("sidechannel: repeats must be positive")
	}
	mod := big.NewInt(1_000_003)
	base := big.NewInt(48271)
	var out []RSATiming
	for _, ones := range onesCounts {
		for r := 0; r < repeats; r++ {
			exp, err := RandomExponent(bits, ones, rng)
			if err != nil {
				return nil, err
			}
			_, cycles, err := t.ModExp(base, exp, mod)
			if err != nil {
				return nil, err
			}
			out = append(out, RSATiming{Ones: rsa.OnesCount(exp), Cycles: cycles})
		}
	}
	return out, nil
}

// RSAFit is the attacker's linear timing model T = Slope*ones + Intercept.
type RSAFit struct {
	Slope, Intercept float64
	// R is the Pearson correlation of the fit; near 1 under static
	// scheduling (Fig. 19a), degraded under the random defence (Fig. 19b).
	R float64
}

// FitRSAModel calibrates the linear relationship from timings.
func FitRSAModel(timings []RSATiming) (RSAFit, error) {
	if len(timings) < 2 {
		return RSAFit{}, fmt.Errorf("sidechannel: need at least 2 timings")
	}
	xs := make([]float64, len(timings))
	ys := make([]float64, len(timings))
	for i, t := range timings {
		xs[i] = float64(t.Ones)
		ys[i] = t.Cycles
	}
	slope, intercept, r, err := stats.LinearFit(xs, ys)
	if err != nil {
		return RSAFit{}, err
	}
	return RSAFit{Slope: slope, Intercept: intercept, R: r}, nil
}

// InferOnes inverts the model for a measured time.
func (f RSAFit) InferOnes(cycles float64) float64 {
	if f.Slope == 0 {
		return 0
	}
	return (cycles - f.Intercept) / f.Slope
}

// SquareKernelSweep reproduces Fig. 17(b): it times the two-SM square
// kernel (a fixed modular exponentiation) with one SM pinned and the
// second varied over candidates, grid synchronization on. Execution time
// swings with the second SM's placement - modestly within a partition,
// by up to ~1.7x across partitions.
func SquareKernelSweep(dev *gpu.Device, fixedSM int, candidates []int) ([]float64, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("sidechannel: no candidate SMs")
	}
	exp, _ := new(big.Int).SetString("f0f0f0f0f0f0f0f0", 16)
	mod := big.NewInt(1_000_033)
	out := make([]float64, len(candidates))
	for i, other := range candidates {
		m, err := kernel.NewMachine(dev, kernel.ListScheduler{SMs: []int{fixedSM, other}}, kernel.Options{GridSync: true})
		if err != nil {
			return nil, err
		}
		timer := rsa.NewGPUTimer(m)
		_, cycles, err := timer.ModExp(big.NewInt(7), exp, mod)
		if err != nil {
			return nil, err
		}
		out[i] = cycles
	}
	return out, nil
}

// EvaluateRSAAttack calibrates on the first portion of the timings and
// reports the mean absolute error (in bits) of the ones-count inference
// on the remainder - small under static scheduling, large under random
// scheduling where the calibration no longer matches the execution SMs.
func EvaluateRSAAttack(calib, test []RSATiming) (RSAFit, float64, error) {
	fit, err := FitRSAModel(calib)
	if err != nil {
		return RSAFit{}, 0, err
	}
	if len(test) == 0 {
		return fit, 0, fmt.Errorf("sidechannel: no test timings")
	}
	var errSum float64
	for _, t := range test {
		est := fit.InferOnes(t.Cycles)
		diff := est - float64(t.Ones)
		if diff < 0 {
			diff = -diff
		}
		errSum += diff
	}
	return fit, errSum / float64(len(test)), nil
}
