package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1}, 2},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestRejectOutliersIQR(t *testing.T) {
	// A single wild rep — the classic cold-cache first run — must be
	// dropped; the tight cluster survives.
	xs := []float64{100, 102, 98, 101, 99, 5000}
	kept := rejectOutliersIQR(xs)
	for _, v := range kept {
		if v == 5000 {
			t.Fatalf("outlier 5000 survived IQR rejection: %v", kept)
		}
	}
	if len(kept) != 5 {
		t.Errorf("kept %d values, want 5: %v", len(kept), kept)
	}
	// Median after rejection is the cluster's, not dragged by the spike.
	if m := median(kept); m < 98 || m > 102 {
		t.Errorf("median after rejection = %v, want within the cluster", m)
	}
	// Fewer than 4 samples: no fence, input unchanged.
	small := []float64{1, 1000, 2}
	if got := rejectOutliersIQR(small); !reflect.DeepEqual(got, small) {
		t.Errorf("small-sample rejection modified input: %v", got)
	}
	// All-identical values (IQR = 0) keep everything.
	same := []float64{5, 5, 5, 5}
	if got := rejectOutliersIQR(same); len(got) != 4 {
		t.Errorf("identical values were rejected: %v", got)
	}
}

// parseGolden parses testdata/bench.txt: a recorded go test -bench run
// with -2 suffixes, sub-benchmarks, b.ReportMetric columns before B/op,
// three -count repeats, a blank line, -v name-only lines, --- BENCH log
// lines and a --- FAIL benchmark.
func parseGolden(t *testing.T) map[string]measurement {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "bench.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := parseBenchOutput(f)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestParseBenchOutput(t *testing.T) {
	want := map[string]measurement{
		"BenchmarkExperiments/V100/fig1": {Name: "BenchmarkExperiments/V100/fig1", N: 1080,
			NsPerOp: 999000, BytesPerOp: 435818, AllocsPerOp: 2795},
		"BenchmarkMeshStep": {Name: "BenchmarkMeshStep", N: 12000,
			NsPerOp: 10295, Metrics: map[string]float64{"pkts_per_cycle": 5.359}},
		"BenchmarkGPUSimQuick": {Name: "BenchmarkGPUSimQuick", N: 6,
			NsPerOp: 24008940, BytesPerOp: 140426, AllocsPerOp: 669,
			Metrics: map[string]float64{"mem_util": 0.1794}},
		"BenchmarkResultstoreWarm": {Name: "BenchmarkResultstoreWarm", N: 2700000, NsPerOp: 48.04},
	}
	if got := parseGolden(t); !reflect.DeepEqual(got, want) {
		t.Errorf("parse =\n%+v\nwant\n%+v", got, want)
	}
}

func TestParseBenchOutputRejectsMalformedLines(t *testing.T) {
	for name, in := range map[string]string{
		"no -benchmem":    "BenchmarkA-2 \t 100 \t 12.5 ns/op\n",
		"bad count":       "BenchmarkA-2 \t lots \t 12.5 ns/op \t 0 B/op \t 0 allocs/op\n",
		"bad value":       "BenchmarkA-2 \t 100 \t fast ns/op \t 0 B/op \t 0 allocs/op\n",
		"unpaired column": "BenchmarkA-2 \t 100 \t 12.5 ns/op \t 0 B/op \t 0 allocs/op \t 7\n",
	} {
		if _, err := parseBenchOutput(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parsed %q without error", name, in)
		}
	}
}

// gate returns a baseline gating the golden's benchmarks at their
// parsed values, under the given budget.
func gate(got map[string]measurement, b budget, names ...string) *baseline {
	base := &baseline{Schema: schema}
	for _, n := range names {
		base.Benchmarks = append(base.Benchmarks, entry{measurement: got[n], Budget: b})
	}
	return base
}

func TestCheckPassesWithinBudget(t *testing.T) {
	got := parseGolden(t)
	base := gate(got, budget{MaxNsRatio: 2.5}, "BenchmarkMeshStep", "BenchmarkExperiments/V100/fig1")
	base.Benchmarks[0].NsPerOp /= 2 // 2x slower than accepted: inside 2.5x
	if ps := check(base, got); len(ps) != 0 {
		t.Errorf("within-budget run failed: %v", ps)
	}
}

func TestCheckFailsOnNsRegression(t *testing.T) {
	got := parseGolden(t)
	base := gate(got, budget{MaxNsRatio: 2.5}, "BenchmarkMeshStep")
	base.Benchmarks[0].NsPerOp /= 3
	ps := check(base, got)
	if len(ps) != 1 || !strings.Contains(ps[0], "BenchmarkMeshStep: ns/op regressed") {
		t.Errorf("3x slowdown against a 2.5x budget should fail: %v", ps)
	}
}

func TestCheckFailsOnAllocRegression(t *testing.T) {
	got := parseGolden(t)
	base := gate(got, budget{MaxNsRatio: 2.5, MaxAllocsDelta: 64}, "BenchmarkGPUSimQuick", "BenchmarkExperiments/V100/fig1")
	base.Benchmarks[0].AllocsPerOp -= 64 // exactly at the budget: passes
	base.Benchmarks[1].AllocsPerOp -= 65
	ps := check(base, got)
	if len(ps) != 1 || !strings.Contains(ps[0], "BenchmarkExperiments/V100/fig1: allocs/op regressed") {
		t.Errorf("want one allocs/op regression on fig1: %v", ps)
	}
}

func TestCheckFailsOnMissingEntries(t *testing.T) {
	got := parseGolden(t)
	base := gate(got, budget{MaxNsRatio: 2.5}, "BenchmarkMeshStep")
	// BenchmarkBroken failed, so the output has no result line for it;
	// BenchmarkRenamedAway is not in the output at all.
	for _, n := range []string{"BenchmarkBroken", "BenchmarkRenamedAway"} {
		base.Benchmarks = append(base.Benchmarks, entry{
			measurement: measurement{Name: n, NsPerOp: 100},
			Budget:      budget{MaxNsRatio: 2.5},
		})
	}
	ps := check(base, got)
	if len(ps) != 2 || !strings.HasPrefix(ps[0], "BenchmarkBroken: gated benchmark missing") ||
		!strings.HasPrefix(ps[1], "BenchmarkRenamedAway: gated benchmark missing") {
		t.Errorf("want two missing-entry problems: %v", ps)
	}
}

func TestCheckIgnoresUngatedBenchmarks(t *testing.T) {
	got := parseGolden(t)
	base := gate(got, budget{MaxNsRatio: 2.5}, "BenchmarkResultstoreWarm")
	// The other three measured benchmarks are not in the baseline.
	if ps := check(base, got); len(ps) != 0 {
		t.Errorf("ungated benchmarks reported: %v", ps)
	}
}

func TestNewBaselinePreservesBudgets(t *testing.T) {
	got := parseGolden(t)
	prev := &baseline{Schema: schema, Benchmarks: []entry{{
		measurement: measurement{Name: "BenchmarkMeshStep", N: 1, NsPerOp: 1},
		Budget:      budget{MaxNsRatio: 2.9, MaxAllocsDelta: 7},
	}}}
	next, err := newBaseline(prev, got)
	if err != nil {
		t.Fatal(err)
	}
	want := []entry{{measurement: got["BenchmarkMeshStep"], Budget: budget{MaxNsRatio: 2.9, MaxAllocsDelta: 7}}}
	if !reflect.DeepEqual(next.Benchmarks, want) {
		t.Errorf("re-recorded baseline = %+v, want %+v (measurement refreshed, budget kept, ungated not added)", next.Benchmarks, want)
	}
	prev.Benchmarks[0].Name = "BenchmarkBroken"
	if _, err := newBaseline(prev, got); err == nil {
		t.Error("re-recording accepted an output missing a gated benchmark")
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.json")
	b := &baseline{Schema: schema, Benchmarks: []entry{
		{measurement: measurement{Name: "z", NsPerOp: 10, AllocsPerOp: 1}, Budget: budget{MaxNsRatio: 2, MaxAllocsDelta: 3}},
		{measurement: measurement{Name: "a", NsPerOp: 20, Metrics: map[string]float64{"fom": 2}}, Budget: budget{MaxNsRatio: 2.5}},
	}}
	if err := b.write(path); err != nil {
		t.Fatal(err)
	}
	got, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, b) || got.Benchmarks[0].Name != "a" {
		t.Errorf("round trip = %+v, want %+v sorted by name", got, b)
	}
	// A future-schema file must be refused, not misread.
	b.Schema = schema + 1
	if err := b.write(path); err != nil {
		t.Fatal(err)
	}
	if _, err := loadBaseline(path); err == nil {
		t.Error("schema mismatch accepted")
	}
}

// TestCommittedBaselineSortedUniqueAndBudgeted guards bench.baseline.json
// itself: CI's seeded-regression smoke multiplies one entry's ns/op by 3,
// so every ns budget must sit below 3 for the gate to prove it bites.
func TestCommittedBaselineSortedUniqueAndBudgeted(t *testing.T) {
	base, err := loadBaseline(filepath.Join("..", "..", "bench.baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Benchmarks) == 0 {
		t.Fatal("empty baseline gates nothing")
	}
	for i, e := range base.Benchmarks {
		if i > 0 && base.Benchmarks[i-1].Name >= e.Name {
			t.Errorf("entries not sorted and unique at %q after %q", e.Name, base.Benchmarks[i-1].Name)
		}
		if r := e.Budget.MaxNsRatio; r <= 0 || r >= 3 {
			t.Errorf("%s max_ns_ratio = %v, want in (0, 3)", e.Name, r)
		}
		if d := e.Budget.MaxAllocsDelta; d < 0 {
			t.Errorf("%s max_allocs_delta = %d, want >= 0", e.Name, d)
		}
	}
}
