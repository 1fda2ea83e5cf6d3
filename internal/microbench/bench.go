package microbench

import "gpunoc/internal/obs"

// Bench threads observability through a measurement campaign: every
// latency probe and measurement routed through one Bench increments its
// counters. Counters are atomic, so the parallel row sharding of
// LatencyMatrix/GPCToMPLatency counts correctly from every worker. The
// zero Bench (nil counters) is the disabled collector - each counter
// call is a nil-safe no-op; NewBench(nil) builds it.
type Bench struct {
	// measurements counts Algorithm-1 (and remote-shared) measurement
	// calls, one per (sm, slice) pair probed.
	measurements *obs.Counter
	// probes counts timed load iterations issued across measurements.
	probes *obs.Counter
}

// NewBench builds a bench recording into a registry scope. NewBench(nil)
// returns a disabled bench, so callers can thread an optional registry
// straight through.
func NewBench(reg *obs.Registry) *Bench {
	return &Bench{
		measurements: reg.Counter("measurements"),
		probes:       reg.Counter("probes"),
	}
}
