package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-width-bin histogram over a closed interval
// [Lo, Hi]. It backs the latency histograms of Fig. 2 and the bandwidth
// distributions of Fig. 9(b,c) and Fig. 13.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram builds a histogram with bins equal-width bins spanning
// [lo, hi]. It panics if bins <= 0 or hi <= lo, which are programming
// errors in experiment setup.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic(fmt.Sprintf("stats: NewHistogram bins=%d", bins))
	}
	if hi <= lo {
		panic(fmt.Sprintf("stats: NewHistogram hi=%g <= lo=%g", hi, lo))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// HistogramOf builds a histogram spanning the sample range of xs with the
// given number of bins and adds every sample. A degenerate (constant)
// sample set yields a single fully-populated center bin range. An empty
// sample set yields a valid, all-zero histogram over [0, 1] (Min/Max of
// nothing are NaN, which would otherwise poison the bin bounds).
func HistogramOf(xs []float64, bins int) *Histogram {
	if len(xs) == 0 {
		return NewHistogram(0, 1, bins)
	}
	lo, hi := Min(xs), Max(xs)
	if lo == hi {
		lo, hi = lo-0.5, hi+0.5
	}
	h := NewHistogram(lo, hi, bins)
	for _, x := range xs {
		h.Add(x)
	}
	return h
}

// Add records one sample. Samples outside [Lo, Hi] are clamped into the
// first or last bin so that totals always reconcile.
func (h *Histogram) Add(x float64) {
	bins := len(h.Counts)
	i := int(float64(bins) * (x - h.Lo) / (h.Hi - h.Lo))
	if i < 0 {
		i = 0
	}
	if i >= bins {
		i = bins - 1
	}
	h.Counts[i]++
	h.total++
}

// Total returns the number of recorded samples.
func (h *Histogram) Total() int { return h.total }

// BinCenter returns the center value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(i)+0.5)
}

// Peaks returns the centers of local maxima whose count is at least
// minFrac of the global maximum bin count, in ascending bin order.
// Adjacent equal-count bins are treated as a single plateau peak.
// It is how tests assert "bimodal" (A100) vs "unimodal" (H100).
func (h *Histogram) Peaks(minFrac float64) []float64 {
	maxCount := 0
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	if maxCount == 0 {
		return nil
	}
	threshold := int(math.Ceil(minFrac * float64(maxCount)))
	var peaks []float64
	n := len(h.Counts)
	for i := 0; i < n; {
		j := i
		for j+1 < n && h.Counts[j+1] == h.Counts[i] {
			j++
		}
		c := h.Counts[i]
		leftLower := i == 0 || h.Counts[i-1] < c
		rightLower := j == n-1 || h.Counts[j+1] < c
		if c >= threshold && c > 0 && leftLower && rightLower {
			peaks = append(peaks, (h.BinCenter(i)+h.BinCenter(j))/2)
		}
		i = j + 1
	}
	return peaks
}

// Render draws a simple vertical-bar text rendering of the histogram,
// suitable for CLI output, with the given maximum bar width in characters.
func (h *Histogram) Render(width int) string {
	if width <= 0 {
		width = 40
	}
	maxCount := 0
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		bar := 0
		if maxCount > 0 {
			bar = c * width / maxCount
		}
		fmt.Fprintf(&b, "%10.2f | %-*s %d\n", h.BinCenter(i), width, strings.Repeat("#", bar), c)
	}
	return b.String()
}
