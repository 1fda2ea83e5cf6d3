package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// populate drives a registry through a representative mix of
// instruments so determinism tests can compare two identical runs.
func populate(r *Registry) {
	sim := r.Scope("fig21").Scope("req")
	c := sim.Counter("flits")
	for i := 0; i < 10; i++ {
		c.Inc()
	}
	sim.Counter("stall/credit").Add(3)
	sim.Gauge("queue/final").Set(7)
	h := sim.Histogram("occupancy", DepthBounds())
	for i := int64(0); i < 40; i++ {
		h.Observe(i % 9)
	}
	tr := sim.Tracer()
	for cyc := int64(0); cyc < 5; cyc++ {
		tr.Instant("noc", "eject", cyc, cyc%2, cyc*3)
	}
	tr.Span("noc", "packet", 2, 9, 1, 42)
	other := r.Scope("fig23")
	other.Counter("iterations").Add(100)
	other.Tracer().Instant("mc", "busy", 11, 0, 1)
}

func TestMetricsAndTraceDeterministic(t *testing.T) {
	render := func() (string, string) {
		r := New()
		populate(r)
		var m, tr bytes.Buffer
		if err := r.WriteMetrics(&m); err != nil {
			t.Fatalf("WriteMetrics: %v", err)
		}
		if err := r.WriteTrace(&tr); err != nil {
			t.Fatalf("WriteTrace: %v", err)
		}
		return m.String(), tr.String()
	}
	m1, t1 := render()
	m2, t2 := render()
	if m1 != m2 {
		t.Errorf("metrics output differs between identical runs:\n%s\n---\n%s", m1, m2)
	}
	if t1 != t2 {
		t.Errorf("trace output differs between identical runs:\n%s\n---\n%s", t1, t2)
	}
}

func TestMetricsJSONShape(t *testing.T) {
	r := New()
	populate(r)
	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	var doc struct {
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
		Hists    map[string]struct {
			Bounds  []int64 `json:"bounds"`
			Buckets []int64 `json:"buckets"`
			Count   int64   `json:"count"`
			Sum     int64   `json:"sum"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("metrics output is not valid JSON: %v\n%s", err, buf.String())
	}
	if got := doc.Counters["fig21/req/flits"]; got != 10 {
		t.Errorf("fig21/req/flits = %d, want 10", got)
	}
	if got := doc.Gauges["fig21/req/queue/final"]; got != 7 {
		t.Errorf("fig21/req/queue/final = %d, want 7", got)
	}
	h, ok := doc.Hists["fig21/req/occupancy"]
	if !ok {
		t.Fatalf("histogram fig21/req/occupancy missing; have %v", doc.Hists)
	}
	if h.Count != 40 {
		t.Errorf("histogram count = %d, want 40", h.Count)
	}
	if len(h.Buckets) != len(h.Bounds)+1 {
		t.Errorf("buckets = %d entries, want bounds+1 = %d", len(h.Buckets), len(h.Bounds)+1)
	}
	var total int64
	for _, b := range h.Buckets {
		total += b
	}
	if total != h.Count {
		t.Errorf("bucket sum %d != count %d", total, h.Count)
	}
}

func TestTraceJSONShape(t *testing.T) {
	r := New()
	populate(r)
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	var sawMeta, sawInstant, sawSpan bool
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "M":
			sawMeta = true
		case "i":
			sawInstant = true
		case "X":
			sawSpan = true
			if e["dur"] == nil {
				t.Error("complete event missing dur")
			}
		}
	}
	if !sawMeta || !sawInstant || !sawSpan {
		t.Errorf("missing event kinds: meta=%v instant=%v span=%v", sawMeta, sawInstant, sawSpan)
	}
}

func TestNilRegistryIsSafeAndSilent(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Error("nil registry reports enabled")
	}
	s := r.Scope("x")
	if s != nil {
		t.Error("Scope of nil registry should stay nil")
	}
	s.Counter("c").Inc()
	s.Gauge("g").Set(1)
	s.Histogram("h", DepthBounds()).Observe(3)
	s.Tracer().Instant("a", "b", 0, 0, 0)
	s.Tracer().Span("a", "b", 0, 1, 0, 0)
	if s.Counter("c").Value() != 0 || s.Gauge("g").Value() != 0 {
		t.Error("nil instruments should read zero")
	}
	if s.Histogram("h", nil).Count() != 0 || s.Tracer().Events() != 0 {
		t.Error("nil histogram/tracer should read empty")
	}
	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatalf("WriteMetrics on nil registry: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Errorf("nil-registry metrics not valid JSON:\n%s", buf.String())
	}
	buf.Reset()
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace on nil registry: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Errorf("nil-registry trace not valid JSON:\n%s", buf.String())
	}
	if rows := r.SummaryRows(); rows != nil {
		t.Errorf("nil registry SummaryRows = %v, want nil", rows)
	}
}

func TestDisabledInstrumentsDoNotAllocate(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", DepthBounds())
	tr := r.Tracer()
	allocs := testing.AllocsPerRun(1000, func() {
		s := r.Scope("x")
		s.Counter("c2").Inc()
		c.Add(2)
		g.Set(3)
		h.Observe(4)
		tr.Instant("a", "b", 1, 2, 3)
		tr.Span("a", "b", 1, 2, 3, 4)
	})
	if allocs != 0 {
		t.Errorf("disabled obs path allocates %.1f per op, want 0", allocs)
	}
}

// TestObserveBucketEquivalence pins Observe's binary search to the
// linear-scan reference it replaced: for every value at, around, and far
// past each bound, both must land the observation in the same bucket.
func TestObserveBucketEquivalence(t *testing.T) {
	layouts := [][]int64{
		DepthBounds(),
		{0},
		{5, 10},
		LatencyBoundsMS(),
		nil, // overflow-only histogram
	}
	linear := func(bounds []int64, v int64) int {
		i := 0
		for i < len(bounds) && v > bounds[i] {
			i++
		}
		return i
	}
	for li, bounds := range layouts {
		r := New()
		h := r.Histogram("h", bounds)
		var values []int64
		for _, b := range bounds {
			values = append(values, b-1, b, b+1)
		}
		values = append(values, -1000, -1, 0, 1, 1<<40)
		for _, v := range values {
			before := h.BucketCounts()
			h.Observe(v)
			after := h.BucketCounts()
			got := -1
			for i := range after {
				if after[i] != before[i] {
					got = i
					break
				}
			}
			if want := linear(bounds, v); got != want {
				t.Errorf("layout %d: Observe(%d) hit bucket %d, want %d", li, v, got, want)
			}
		}
	}
}

func TestObserveDoesNotAllocate(t *testing.T) {
	// The enabled Observe path runs per cycle inside Mesh.Step and
	// Xbar.Step; the binary search must not push its bookkeeping onto the
	// heap (the old linear scan was alloc-free too — this pins the
	// replacement).
	r := New()
	h := r.Histogram("h", DepthBounds())
	v := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(v)
		v = (v + 137) % 2048
	})
	if allocs != 0 {
		t.Errorf("enabled Observe allocates %.1f per op, want 0", allocs)
	}
}

func TestInstrumentsAreNamedSingletons(t *testing.T) {
	r := New()
	if r.Counter("a") != r.Counter("a") {
		t.Error("same counter name returned distinct instruments")
	}
	if r.Scope("s").Counter("a") == r.Counter("a") {
		t.Error("scoped counter collided with root counter of same leaf name")
	}
	if r.Scope("s").Counter("a") != r.Scope("s").Counter("a") {
		t.Error("same scoped name returned distinct instruments")
	}
	if r.Histogram("h", DepthBounds()) != r.Histogram("h", nil) {
		t.Error("same histogram name returned distinct instruments")
	}
	if r.Scope("s").Tracer() != r.Scope("s").Tracer() {
		t.Error("same scope returned distinct tracers")
	}
	if r.Tracer() == r.Scope("s").Tracer() {
		t.Error("root and scoped tracer should differ")
	}
}

func TestTracerCapCountsDrops(t *testing.T) {
	tr := &Tracer{}
	const extra = 7
	for i := 0; i < maxTraceEvents+extra; i++ {
		tr.Instant("c", "n", int64(i), 0, 0)
	}
	if tr.Events() != maxTraceEvents {
		t.Errorf("buffered %d events, want cap %d", tr.Events(), maxTraceEvents)
	}
	if tr.Dropped() != extra {
		t.Errorf("dropped = %d, want %d", tr.Dropped(), extra)
	}
}

func TestSummaryRowsSortedAndComplete(t *testing.T) {
	r := New()
	populate(r)
	rows := r.SummaryRows()
	if len(rows) == 0 {
		t.Fatal("no summary rows")
	}
	var names []string
	for _, row := range rows {
		names = append(names, row.Name)
		if row.Value == "" {
			t.Errorf("row %q has empty value", row.Name)
		}
	}
	joined := strings.Join(names, "\n")
	if !strings.Contains(joined, "fig21/req/flits") ||
		!strings.Contains(joined, "fig21/req/occupancy") ||
		!strings.Contains(joined, "fig21/req/queue/final") {
		t.Errorf("summary missing expected instruments:\n%s", joined)
	}
}
