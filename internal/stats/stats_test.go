package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanBasic(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Variance(nil); got != 0 {
		t.Errorf("Variance(nil) = %v, want 0", got)
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 || Sum(xs) != 11 {
		t.Errorf("Min/Max/Sum = %v/%v/%v", Min(xs), Max(xs), Sum(xs))
	}
	if Sum(nil) != 0 {
		t.Error("empty-slice Sum should be 0")
	}
	// Empty-slice Min/Max are NaN; see TestEmptySampleContract.
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{10, 20, 30, 40, 50}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, 1, 1e-12) {
		t.Errorf("r = %v, want 1", r)
	}
}

func TestPearsonPerfectAnticorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{8, 6, 4, 2}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, -1, 1e-12) {
		t.Errorf("r = %v, want -1", r)
	}
}

func TestPearsonZeroVariance(t *testing.T) {
	// Constant input makes the coefficient undefined; the sentinel must
	// be distinguishable from a measured zero correlation (which stays
	// err == nil), whichever side is flat.
	cases := [][2][]float64{
		{{1, 1, 1}, {1, 2, 3}},
		{{1, 2, 3}, {7, 7, 7}},
		{{4, 4, 4}, {4, 4, 4}},
	}
	for _, c := range cases {
		r, err := Pearson(c[0], c[1])
		if !errors.Is(err, ErrZeroVariance) {
			t.Errorf("Pearson(%v, %v) err = %v, want ErrZeroVariance", c[0], c[1], err)
		}
		if r != 0 {
			t.Errorf("Pearson(%v, %v) r = %v, want 0 alongside the sentinel", c[0], c[1], r)
		}
	}
	// A genuinely uncorrelated pair with variance keeps the nil error.
	if _, err := Pearson([]float64{1, 2, 1, 2}, []float64{5, 5, 6, 6}); err != nil {
		t.Errorf("varying input returned %v, want nil", err)
	}
}

func TestMustPearsonPanicsOnZeroVariance(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustPearson on a constant series should panic, not return a silent 0")
		}
	}()
	MustPearson([]float64{3, 3, 3}, []float64{1, 2, 3})
}

func TestCorrelationMatrixConstantRow(t *testing.T) {
	m, err := CorrelationMatrix([][]float64{
		{1, 2, 3},
		{5, 5, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m[0][0] != 1 || m[1][1] != 1 {
		t.Errorf("diagonal = %v, %v, want 1 by convention", m[0][0], m[1][1])
	}
	if !math.IsNaN(m[0][1]) || !math.IsNaN(m[1][0]) {
		t.Errorf("constant-row cells = %v, %v, want NaN (undefined, not zero)", m[0][1], m[1][0])
	}
}

func TestLinearFitConstantY(t *testing.T) {
	if _, _, _, err := LinearFit([]float64{1, 2, 3}, []float64{4, 4, 4}); !errors.Is(err, ErrZeroVariance) {
		t.Errorf("LinearFit with constant y err = %v, want ErrZeroVariance", err)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("want length-mismatch error")
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Error("want too-few-samples error")
	}
}

// Property: Pearson is symmetric and invariant under positive affine
// transforms of either argument.
func TestPearsonPropertyAffineInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
			ys[i] = rng.NormFloat64()*5 + xs[i]*0.3
		}
		r1 := MustPearson(xs, ys)
		r2 := MustPearson(ys, xs)
		if !almostEqual(r1, r2, 1e-9) {
			return false
		}
		// Positive affine transform of xs.
		zs := make([]float64, n)
		for i := range xs {
			zs[i] = 3.7*xs[i] + 11
		}
		r3 := MustPearson(zs, ys)
		if !almostEqual(r1, r3, 1e-9) {
			return false
		}
		// Negative scale flips the sign.
		for i := range zs {
			zs[i] = -2 * xs[i]
		}
		r4 := MustPearson(zs, ys)
		return almostEqual(r1, -r4, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Pearson is always within [-1, 1].
func TestPearsonPropertyBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(64)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		r := MustPearson(xs, ys)
		return r >= -1-1e-12 && r <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCorrelationMatrix(t *testing.T) {
	samples := [][]float64{
		{1, 2, 3, 4},
		{2, 4, 6, 8},
		{4, 3, 2, 1},
	}
	m, err := CorrelationMatrix(samples)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(m[0][1], 1, 1e-12) {
		t.Errorf("m[0][1] = %v, want 1", m[0][1])
	}
	if !almostEqual(m[0][2], -1, 1e-12) {
		t.Errorf("m[0][2] = %v, want -1", m[0][2])
	}
	for i := range m {
		if m[i][i] != 1 {
			t.Errorf("diagonal m[%d][%d] = %v, want 1", i, i, m[i][i])
		}
		for j := range m {
			if m[i][j] != m[j][i] {
				t.Errorf("matrix not symmetric at %d,%d", i, j)
			}
		}
	}
}

func TestCorrelationMatrixErrors(t *testing.T) {
	if _, err := CorrelationMatrix(nil); err == nil {
		t.Error("want error for empty input")
	}
	if _, err := CorrelationMatrix([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("want error for ragged input")
	}
}

func TestArgsort(t *testing.T) {
	xs := []float64{3.0, 1.0, 2.0}
	got := Argsort(xs)
	want := []int{1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Argsort = %v, want %v", got, want)
		}
	}
}

func TestArgsortStableOnTies(t *testing.T) {
	xs := []float64{2, 1, 2, 1}
	got := Argsort(xs)
	want := []int{1, 3, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Argsort = %v, want %v", got, want)
		}
	}
}

// Property: Argsort output is a permutation that sorts the input.
func TestArgsortPropertySorts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(20)) // plenty of ties
		}
		idx := Argsort(xs)
		if len(idx) != n {
			return false
		}
		seen := make([]bool, n)
		for _, i := range idx {
			if i < 0 || i >= n || seen[i] {
				return false
			}
			seen[i] = true
		}
		for k := 1; k < n; k++ {
			if xs[idx[k-1]] > xs[idx[k]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinearFit(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{5, 7, 9, 11} // y = 2x + 5
	slope, intercept, r, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(slope, 2, 1e-12) || !almostEqual(intercept, 5, 1e-12) || !almostEqual(r, 1, 1e-12) {
		t.Errorf("fit = (%v, %v, %v), want (2, 5, 1)", slope, intercept, r)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, _, _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("want length-mismatch error")
	}
	if _, _, _, err := LinearFit([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("want degenerate-fit error")
	}
}

func TestSummarize(t *testing.T) {
	d := Summarize([]float64{1, 2, 3, 4})
	if d.N != 4 || d.Mean != 2.5 || d.Min != 1 || d.Max != 4 {
		t.Errorf("Summarize = %+v", d)
	}
	if d.String() == "" {
		t.Error("String should be nonempty")
	}
}

func TestEmptySampleContract(t *testing.T) {
	// No samples means no extremum or summary, not a zero-valued one:
	// Min/Max/Summarize return NaN so an accidentally-empty measurement
	// poisons downstream arithmetic instead of masquerading as data.
	if !math.IsNaN(Min(nil)) {
		t.Errorf("Min(nil) = %v, want NaN", Min(nil))
	}
	if !math.IsNaN(Max(nil)) {
		t.Errorf("Max(nil) = %v, want NaN", Max(nil))
	}
	d := Summarize(nil)
	if d.N != 0 {
		t.Errorf("Summarize(nil).N = %d, want 0", d.N)
	}
	if !math.IsNaN(d.Mean) || !math.IsNaN(d.StdDev) || !math.IsNaN(d.Min) || !math.IsNaN(d.Max) {
		t.Errorf("Summarize(nil) = %+v, want NaN fields", d)
	}
	// Mean/Variance keep their documented 0-for-empty behavior.
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Errorf("Mean(nil)=%v Variance(nil)=%v, want 0, 0", Mean(nil), Variance(nil))
	}
}
