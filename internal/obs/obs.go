// Package obs is the simulators' deterministic observability layer: a
// registry of named counters, gauges, and fixed-bucket histograms plus a
// cycle-stamped event tracer. The paper's whole methodology is observing
// opaque hardware through counters and timers (clock(), smid, nvprof
// per-slice counters); this package gives the reproduced simulators the
// counter surface the real hardware never had.
//
// The layer holds a strict two-part contract:
//
//  1. Disabled collectors cost zero allocations in Step hot loops. A nil
//     *Registry is the disabled collector: every derived instrument is a
//     nil pointer whose methods no-op, so simulators can call
//     counter.Add(1) unconditionally without branching on an enable flag
//     and without a single allocation (guarded by the alloc regression
//     tests and benchmarks next to each simulator).
//
//  2. All emission is byte-deterministic. Counters and histogram buckets
//     are atomic (so sweeps sharded across internal/parallel workers
//     merge commutatively), trace events buffer per Scope in simulation
//     order, and both writers iterate sorted keys - two identically
//     seeded runs emit byte-identical metrics and trace files for every
//     worker-pool size (noclint's determinism analyzer enforces the
//     sorted-key idiom on this package statically).
//
// Instruments are cheap named singletons: Counter/Gauge/Histogram return
// the existing instrument when the name is already registered. Scopes
// prefix instrument names ("fig21/req/...") and give each concurrent
// experiment its own trace buffer; a Tracer must only be used from one
// goroutine at a time (each cycle-driven simulator is single-threaded,
// which is exactly that).
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically growing event count. Increments are atomic,
// so instruments shared across internal/parallel workers sum
// deterministically. A nil *Counter (from a nil Registry) no-ops.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; 0 on a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins instantaneous value. Unlike counters,
// concurrent writers do not merge deterministically, so a gauge must
// only be set from one goroutine (one simulator loop). A nil *Gauge
// no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set records the current value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the last value set; 0 on a nil gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution of integer observations
// (queue depths, occupancies, latencies in cycles). Bucket i counts
// observations v <= Bounds[i]; one implicit overflow bucket counts the
// rest. Buckets are atomic so sharded observers merge commutatively.
// A nil *Histogram no-ops.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1; last is overflow
	sum     atomic.Int64
}

// Observe records one value. Two deliberate economies keep this cheap —
// it runs once per cycle inside Mesh.Step, Xbar.Step, and the MC
// queue-depth path. The bucket scan is a hand-rolled binary search
// (first i with v <= bounds[i], overflow otherwise) instead of the old
// linear walk, inlined rather than calling sort.Search so no closure
// touches the hot path. And there is no separate observation counter:
// the count is by construction the sum of the bucket counts, so Count
// derives it at emission time instead of Observe paying a third atomic
// add on every observation. The zero-allocation contract is guarded by
// TestObserveDoesNotAllocate and nocbench's BenchmarkHistObserve gate.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v > h.bounds[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.buckets[lo].Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations — the sum of the bucket
// counts; 0 on a nil histogram. Like every read-side method it is meant
// for emission after the observed simulation has quiesced; a read
// racing in-flight Observes may see a partially applied observation.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of observations; 0 on a nil histogram.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Bounds returns the bucket upper bounds (shared; do not mutate).
func (h *Histogram) Bounds() []int64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// BucketCounts returns a snapshot of the bucket counts, the last entry
// being the overflow bucket.
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// DepthBounds is the default bucket layout for queue-depth and
// occupancy histograms: exponential from 0 to 1024.
func DepthBounds() []int64 {
	return []int64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
}

// LatencyBoundsMS is the default bucket layout for wall-time histograms
// in milliseconds: sub-millisecond cache hits land in the low buckets,
// full-fidelity simulations in the top ones.
func LatencyBoundsMS() []int64 {
	return []int64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000}
}

// registryRoot holds the shared instrument tables behind every Scope
// view. The mutex guards only instrument registration (construction
// time, never the Step hot path); increments afterwards are atomic.
type registryRoot struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	tracers  map[string]*Tracer
}

// Registry names and owns instruments. The zero of the type is not
// used; a nil *Registry is the disabled collector (all methods no-op
// and return nil instruments). Values returned by Scope share the root
// instrument tables under prefixed names.
type Registry struct {
	root   *registryRoot
	prefix string
}

// New builds an enabled, empty registry.
func New() *Registry {
	return &Registry{root: &registryRoot{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		tracers:  map[string]*Tracer{},
	}}
}

// Enabled reports whether the registry collects anything.
func (r *Registry) Enabled() bool { return r != nil }

// Scope derives a view whose instrument names (and trace buffer) are
// prefixed with name + "/". Scoping a nil registry stays nil, so
// callers can thread scopes unconditionally.
func (r *Registry) Scope(name string) *Registry {
	if r == nil {
		return nil
	}
	return &Registry{root: r.root, prefix: r.prefix + name + "/"}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	full := r.prefix + name
	r.root.mu.Lock()
	defer r.root.mu.Unlock()
	c, ok := r.root.counters[full]
	if !ok {
		c = &Counter{}
		r.root.counters[full] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	full := r.prefix + name
	r.root.mu.Lock()
	defer r.root.mu.Unlock()
	g, ok := r.root.gauges[full]
	if !ok {
		g = &Gauge{}
		r.root.gauges[full] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (bounds must be ascending; later calls
// reuse the first registration's bounds).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	full := r.prefix + name
	r.root.mu.Lock()
	defer r.root.mu.Unlock()
	h, ok := r.root.hists[full]
	if !ok {
		b := make([]int64, len(bounds))
		copy(b, bounds)
		h = &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
		r.root.hists[full] = h
	}
	return h
}

// Tracer returns this scope's event tracer, creating it on first use.
// One tracer must only be fed from a single goroutine; concurrent
// scopes get independent buffers, which the trace writer concatenates
// in sorted scope order so the file is byte-identical for every
// worker-pool size.
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	r.root.mu.Lock()
	defer r.root.mu.Unlock()
	t, ok := r.root.tracers[r.prefix]
	if !ok {
		t = &Tracer{scope: r.prefix}
		r.root.tracers[r.prefix] = t
	}
	return t
}

// snapshot returns the sorted names of one instrument table.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Chrome trace-event phases used by the tracer.
const (
	phaseInstant  = 'i'
	phaseCounter  = 'C'
	phaseComplete = 'X'
)

// event is one buffered trace record. Names and categories are expected
// to be static strings; per-event variability goes into ts/tid/arg so
// emission never formats in the hot loop.
type event struct {
	ph        byte
	cat, name string
	ts        int64 // cycle stamp (trace "ts", in microsecond units)
	dur       int64 // complete events only
	tid       int64
	arg       int64
}

// maxTraceEvents bounds one scope's buffer; past it events are counted
// as dropped instead of buffered, deterministically (per-scope append
// order is the simulation order).
const maxTraceEvents = 1 << 20

// Tracer buffers cycle-stamped events for one scope. A nil *Tracer
// no-ops. Not safe for concurrent use; give each goroutine its own
// scope.
type Tracer struct {
	scope   string
	events  []event
	dropped int64
}

// emit appends one event, honouring the buffer cap.
func (t *Tracer) emit(e event) {
	if t == nil {
		return
	}
	if len(t.events) >= maxTraceEvents {
		t.dropped++
		return
	}
	//lint:ignore hotpathalloc enabled tracing buffers events by design (capped at maxTraceEvents); a nil Tracer - the unobserved default - returns above without touching the buffer
	t.events = append(t.events, e)
}

// Instant records a point event at a cycle on a track (tid), with one
// free integer argument (rendered as args.v).
func (t *Tracer) Instant(cat, name string, cycle, tid, arg int64) {
	t.emit(event{ph: phaseInstant, cat: cat, name: name, ts: cycle, tid: tid, arg: arg})
}

// Count records a counter-series sample at a cycle.
func (t *Tracer) Count(cat, name string, cycle, value int64) {
	t.emit(event{ph: phaseCounter, cat: cat, name: name, ts: cycle, arg: value})
}

// Span records a complete event covering [start, start+dur) on a track
// (tid), with one free integer argument - e.g. a packet's life from
// injection to delivery.
func (t *Tracer) Span(cat, name string, start, dur, tid, arg int64) {
	t.emit(event{ph: phaseComplete, cat: cat, name: name, ts: start, dur: dur, tid: tid, arg: arg})
}

// Events returns the number of buffered events; 0 on a nil tracer.
func (t *Tracer) Events() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Dropped returns the number of events past the buffer cap.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped
}
