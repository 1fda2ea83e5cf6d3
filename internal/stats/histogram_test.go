package stats

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasicBinning(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Add(0.5)
	h.Add(9.5)
	h.Add(5.0)
	if h.Total() != 3 {
		t.Fatalf("Total = %d, want 3", h.Total())
	}
	if h.Counts[0] != 1 || h.Counts[9] != 1 || h.Counts[5] != 1 {
		t.Errorf("Counts = %v", h.Counts)
	}
}

func TestHistogramClampsOutOfRange(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.Add(-100)
	h.Add(100)
	if h.Counts[0] != 1 || h.Counts[4] != 1 {
		t.Errorf("Counts = %v, want clamped into edge bins", h.Counts)
	}
}

func TestHistogramPanicsOnBadConfig(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 10, 0) },
		func() { NewHistogram(10, 10, 4) },
		func() { NewHistogram(11, 10, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic for invalid histogram config")
				}
			}()
			f()
		}()
	}
}

func TestHistogramOfConstantSamples(t *testing.T) {
	h := HistogramOf([]float64{5, 5, 5}, 4)
	if h.Total() != 3 {
		t.Fatalf("Total = %d, want 3", h.Total())
	}
}

func TestHistogramPeaksBimodal(t *testing.T) {
	h := NewHistogram(0, 100, 20)
	for i := 0; i < 50; i++ {
		h.Add(25)
		h.Add(75)
	}
	for i := 0; i < 3; i++ {
		h.Add(50) // small middle bump below threshold
	}
	peaks := h.Peaks(0.5)
	if len(peaks) != 2 {
		t.Fatalf("Peaks = %v, want 2 peaks", peaks)
	}
	if !(peaks[0] < 50 && peaks[1] > 50) {
		t.Errorf("peak positions = %v", peaks)
	}
}

func TestHistogramPeaksUnimodal(t *testing.T) {
	h := NewHistogram(0, 100, 20)
	for i := 0; i < 100; i++ {
		h.Add(50)
	}
	h.Add(10)
	peaks := h.Peaks(0.5)
	if len(peaks) != 1 {
		t.Fatalf("Peaks = %v, want 1 peak", peaks)
	}
}

func TestHistogramPeaksEmpty(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	if p := h.Peaks(0.5); p != nil {
		t.Errorf("Peaks on empty histogram = %v, want nil", p)
	}
}

func TestHistogramPeaksPlateau(t *testing.T) {
	h := NewHistogram(0, 4, 4)
	h.Counts = []int{0, 5, 5, 0}
	h.total = 10
	peaks := h.Peaks(0.5)
	if len(peaks) != 1 {
		t.Fatalf("plateau should be one peak, got %v", peaks)
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram(0, 10, 2)
	h.Add(1)
	h.Add(6)
	h.Add(7)
	out := h.Render(10)
	if !strings.Contains(out, "#") {
		t.Errorf("Render output missing bars:\n%s", out)
	}
	if got := strings.Count(out, "\n"); got != 2 {
		t.Errorf("Render lines = %d, want 2", got)
	}
	if h.Render(0) == "" {
		t.Error("Render with width 0 should use a default width")
	}
}

// Property: total count always equals number of Adds, no sample is lost to
// binning regardless of range.
func TestHistogramPropertyConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHistogram(-1, 1, 1+rng.Intn(30))
		n := rng.Intn(200)
		for i := 0; i < n; i++ {
			h.Add(rng.NormFloat64() * 3)
		}
		sum := 0
		for _, c := range h.Counts {
			sum += c
		}
		return sum == n && h.Total() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramOfEmpty(t *testing.T) {
	h := HistogramOf(nil, 4)
	if h.Lo != 0 || h.Hi != 1 {
		t.Errorf("empty histogram spans [%g, %g], want [0, 1]", h.Lo, h.Hi)
	}
	if h.Total() != 0 {
		t.Errorf("empty histogram total %d, want 0", h.Total())
	}
	if len(h.Counts) != 4 {
		t.Errorf("empty histogram has %d bins, want 4", len(h.Counts))
	}
	for i, c := range h.Counts {
		if c != 0 {
			t.Errorf("bin %d count %d, want 0", i, c)
		}
	}
	if h.Render(10) == "" {
		t.Error("empty histogram should still render")
	}
}
