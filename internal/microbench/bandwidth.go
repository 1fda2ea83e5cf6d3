package microbench

import (
	"fmt"

	"gpunoc/internal/bandwidth"
	"gpunoc/internal/gpu"
	"gpunoc/internal/parallel"
)

// SliceBandwidth runs Algorithm 2 for one destination slice: every SM in
// sms streams L1-bypassing reads whose addresses all map to slice s
// (the M[s] index set), and the achieved fabric bandwidth is returned in
// GB/s.
func SliceBandwidth(eng *bandwidth.Engine, sms []int, slice int) (float64, error) {
	if len(sms) == 0 {
		return 0, fmt.Errorf("microbench: no source SMs")
	}
	flows := make([]bandwidth.Flow, len(sms))
	for i, sm := range sms {
		flows[i] = bandwidth.Flow{SM: sm, Slices: []int{slice}}
	}
	res, err := eng.Solve(flows)
	if err != nil {
		return 0, err
	}
	return float64(res.TotalGBs), nil
}

// PerSMSliceBandwidth measures SliceBandwidth for each SM alone against
// one destination slice, sharding the per-SM solves across the parallel
// pool. Result slot i is sms[i]'s bandwidth; each solve builds its own
// queueing model over the read-only engine, so the sweep is race-free
// and identical for every pool size.
func PerSMSliceBandwidth(eng *bandwidth.Engine, sms []int, slice int) ([]float64, error) {
	if len(sms) == 0 {
		return nil, fmt.Errorf("microbench: no source SMs")
	}
	return parallel.Map(len(sms), func(i int) (float64, error) {
		return SliceBandwidth(eng, []int{sms[i]}, slice)
	})
}

// PerSliceBandwidth measures SliceBandwidth from one SM to each slice of
// the given set, sharding the per-slice solves across the parallel pool.
// Result slot i is slices[i]'s bandwidth.
func PerSliceBandwidth(eng *bandwidth.Engine, sm int, slices []int) ([]float64, error) {
	if len(slices) == 0 {
		return nil, fmt.Errorf("microbench: no destination slices")
	}
	return parallel.Map(len(slices), func(i int) (float64, error) {
		return SliceBandwidth(eng, []int{sm}, slices[i])
	})
}

// SetBandwidth streams reads (or writes) from sms across an arbitrary
// slice set and returns the total achieved GB/s.
func SetBandwidth(eng *bandwidth.Engine, sms []int, slices []int, write bool) (float64, error) {
	if len(sms) == 0 {
		return 0, fmt.Errorf("microbench: no source SMs")
	}
	flows := make([]bandwidth.Flow, len(sms))
	for i, sm := range sms {
		flows[i] = bandwidth.Flow{SM: sm, Slices: slices, Write: write}
	}
	res, err := eng.Solve(flows)
	if err != nil {
		return 0, err
	}
	return float64(res.TotalGBs), nil
}

// AggregateFabricBandwidth measures the total L2 fabric bandwidth: all SMs
// streaming to all slices with every access hitting in L2 (Fig. 9a).
func AggregateFabricBandwidth(eng *bandwidth.Engine) (float64, error) {
	cfg := eng.Device().Config()
	return SetBandwidth(eng, allSMs(cfg), allSlices(cfg), false)
}

// MemoryBandwidth measures achievable off-chip bandwidth: all SMs
// streaming a working set that misses in L2 (Fig. 9a).
func MemoryBandwidth(eng *bandwidth.Engine) (float64, error) {
	cfg := eng.Device().Config()
	flows := make([]bandwidth.Flow, cfg.SMs())
	slices := allSlices(cfg)
	for sm := range flows {
		flows[sm] = bandwidth.Flow{SM: sm, Slices: slices, DRAM: true}
	}
	res, err := eng.Solve(flows)
	if err != nil {
		return 0, err
	}
	return float64(res.TotalGBs), nil
}

// Speedup measures the paper's input-speedup metric: the bandwidth of the
// SM group relative to its first SM alone, with traffic spread over all
// slices (Fig. 10).
func Speedup(eng *bandwidth.Engine, sms []int, write bool) (float64, error) {
	if len(sms) == 0 {
		return 0, fmt.Errorf("microbench: no SMs for speedup")
	}
	slices := allSlices(eng.Device().Config())
	single, err := SetBandwidth(eng, sms[:1], slices, write)
	if err != nil {
		return 0, err
	}
	group, err := SetBandwidth(eng, sms, slices, write)
	if err != nil {
		return 0, err
	}
	return group / single, nil
}

func allSMs(cfg gpu.Config) []int {
	sms := make([]int, cfg.SMs())
	for i := range sms {
		sms[i] = i
	}
	return sms
}

func allSlices(cfg gpu.Config) []int {
	s := make([]int, cfg.L2Slices)
	for i := range s {
		s[i] = i
	}
	return s
}
