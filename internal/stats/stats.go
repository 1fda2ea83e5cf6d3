// Package stats provides the small statistical toolkit used throughout the
// GPU NoC characterization: descriptive statistics, Pearson correlation and
// correlation matrices (the paper's Section III-B placement analysis),
// histograms (Fig. 2, 9, 13), argsort-style rankings (Fig. 3), and simple
// linear regression (the side-channel linear-relationship fits of Sec. V).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrLengthMismatch is returned when paired-sample statistics receive
// slices of different lengths.
var ErrLengthMismatch = errors.New("stats: sample slices have different lengths")

// ErrEmpty is returned when a statistic is requested over no samples.
var ErrEmpty = errors.New("stats: no samples")

// ErrZeroVariance is returned by Pearson (and everything built on it)
// when either series is constant. The coefficient divides by both
// standard deviations, so r is mathematically undefined there — which is
// not the same thing as r = 0, "no linear relationship". Callers decide
// what an undefined coefficient means for them: the Fig. 6 heatmap
// renders such cells as NaN, the AES guess scorer treats a constant
// predictor as signal-free, the co-location clustering treats the pair
// as uncorrelated. Test with errors.Is.
var ErrZeroVariance = errors.New("stats: zero variance, Pearson correlation undefined")

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (dividing by n, not n-1),
// matching how the paper reports σ over exhaustively enumerated SM/slice
// pairs rather than sampled ones.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mu := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - mu
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Min returns the minimum of xs. An empty slice has no minimum: it
// returns NaN, which poisons any arithmetic built on it rather than
// silently posing as a plausible measurement the way the old 0 did.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. Like Min, it returns NaN for an empty
// slice: no samples means no extremum, not a zero-valued one.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Pearson returns the Pearson linear-correlation coefficient r between the
// paired samples xs and ys, per Eq. (1) of the paper. r is in [-1, 1]:
// 1 means perfect positive linear correlation, -1 perfect negative, 0 none.
//
// It returns an error if the slices differ in length or hold fewer than two
// samples, and ErrZeroVariance if either sample is constant: the
// coefficient is undefined there, and silently reporting 0 would be
// indistinguishable from a true "no linear relationship" measurement.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrLengthMismatch
	}
	if len(xs) < 2 {
		return 0, fmt.Errorf("stats: Pearson needs at least 2 samples, got %d: %w", len(xs), ErrEmpty)
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, ErrZeroVariance
	}
	return sxy / (math.Sqrt(sxx) * math.Sqrt(syy)), nil
}

// MustPearson is Pearson but panics on malformed input — including
// zero-variance input, which now surfaces as ErrZeroVariance rather than
// a silent 0. It is intended for internal sweeps where lengths are
// correct and variation is guaranteed by construction.
func MustPearson(xs, ys []float64) float64 {
	r, err := Pearson(xs, ys)
	if err != nil {
		panic(err)
	}
	return r
}

// CorrelationMatrix computes the pairwise Pearson correlation matrix of the
// rows of samples: out[i][j] = Pearson(samples[i], samples[j]). All rows
// must have equal, nonzero length. This is the computation behind the
// paper's Fig. 6 heatmaps. A pair involving a constant row has an
// undefined coefficient; its cell is NaN (diagonals stay 1 by the r(x,x)
// convention), so renderers can distinguish "undefined" from a measured
// zero correlation.
func CorrelationMatrix(samples [][]float64) ([][]float64, error) {
	n := len(samples)
	if n == 0 {
		return nil, ErrEmpty
	}
	width := len(samples[0])
	for i, row := range samples {
		if len(row) != width {
			return nil, fmt.Errorf("stats: row %d has length %d, want %d: %w", i, len(row), width, ErrLengthMismatch)
		}
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		out[i][i] = 1
		for j := i + 1; j < n; j++ {
			r, err := Pearson(samples[i], samples[j])
			if errors.Is(err, ErrZeroVariance) {
				r = math.NaN()
			} else if err != nil {
				return nil, err
			}
			out[i][j] = r
			out[j][i] = r
		}
	}
	return out, nil
}

// Argsort returns the permutation of indices that sorts xs ascending.
// Ties preserve index order (stable). The paper uses this to show that the
// latency-sorted L2 slice order is identical across SMs (Fig. 3).
func Argsort(xs []float64) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	return idx
}

// LinearFit fits y = slope*x + intercept by ordinary least squares and also
// returns the Pearson r of the fit. The GPU timing side-channels in Sec. V
// rely on such linear relationships (timing vs. unique cache lines, timing
// vs. count of RSA one-bits). A constant y yields the exact horizontal
// fit (slope 0) but an undefined r, so it returns ErrZeroVariance — a
// side-channel fit against a flat timing series measured nothing.
func LinearFit(xs, ys []float64) (slope, intercept, r float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, 0, ErrLengthMismatch
	}
	if len(xs) < 2 {
		return 0, 0, 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx float64
	for i := range xs {
		dx := xs[i] - mx
		sxy += dx * (ys[i] - my)
		sxx += dx * dx
	}
	if sxx == 0 {
		return 0, 0, 0, errors.New("stats: degenerate fit, zero variance in x")
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	r, err = Pearson(xs, ys)
	return slope, intercept, r, err
}

// Describe bundles the descriptive statistics the paper reports for latency
// distributions (e.g. Fig. 1, Fig. 2 captions).
type Describe struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize computes a Describe over xs. Over no samples every statistic
// is undefined: the result has N = 0 and NaN in every field, so a summary
// of a mistakenly-empty measurement renders as NaN instead of a
// plausible-looking row of zeros.
func Summarize(xs []float64) Describe {
	if len(xs) == 0 {
		nan := math.NaN()
		return Describe{N: 0, Mean: nan, StdDev: nan, Min: nan, Max: nan}
	}
	return Describe{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    Min(xs),
		Max:    Max(xs),
	}
}

// String renders the summary in the paper's "μ = … cycles, σ = …" style.
func (d Describe) String() string {
	return fmt.Sprintf("n=%d μ=%.1f σ=%.1f min=%.1f max=%.1f", d.N, d.Mean, d.StdDev, d.Min, d.Max)
}
