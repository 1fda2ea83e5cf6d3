// Package microbench implements the paper's measurement methodology
// (Sec. II-C): Algorithm 1, the single-thread L2 latency probe, and
// Algorithm 2, the multi-threaded L2-fabric bandwidth stream, plus the two
// address-to-slice mapping techniques (profiler counters on V100, the
// contention probe on A100/H100 where per-slice counters are gone).
package microbench

import (
	"fmt"

	"gpunoc/internal/gpu"
	"gpunoc/internal/kernel"
	"gpunoc/internal/parallel"
	"gpunoc/internal/stats"
)

// LatencyResult summarizes one latency measurement.
type LatencyResult struct {
	Samples []float64
	Summary stats.Describe
}

// addressSearchLimit bounds the scan for an address mapping to a slice.
const addressSearchLimit = 1 << 16

// MeasureL2Latency runs Algorithm 1: a single thread pinned on SM sm
// issues L1-bypassing loads to an address resident in L2 slice slice,
// timing each round trip with the warp clock. The L2 is warmed before
// timing so every access hits.
func (b *Bench) MeasureL2Latency(dev *gpu.Device, sm, slice, iters int) (LatencyResult, error) {
	return b.measureLatency(dev, sm, slice, iters, false)
}

// MeasureL2MissLatency is Algorithm 1 with a working set that always
// misses in L2, so each timed access pays the home memory partition's
// fill latency on top of the NoC round trip (the Fig. 8 bottom row).
func (b *Bench) MeasureL2MissLatency(dev *gpu.Device, sm, slice, iters int) (LatencyResult, error) {
	return b.measureLatency(dev, sm, slice, iters, true)
}

func (b *Bench) measureLatency(dev *gpu.Device, sm, slice, iters int, miss bool) (LatencyResult, error) {
	cfg := dev.Config()
	if sm < 0 || sm >= cfg.SMs() {
		return LatencyResult{}, fmt.Errorf("microbench: SM %d out of range", sm)
	}
	if slice < 0 || slice >= cfg.L2Slices {
		return LatencyResult{}, fmt.Errorf("microbench: slice %d out of range", slice)
	}
	if iters <= 0 {
		return LatencyResult{}, fmt.Errorf("microbench: iters must be positive, got %d", iters)
	}
	addr, ok := dev.AddressForSlice(slice, 0, addressSearchLimit)
	if !ok {
		return LatencyResult{}, fmt.Errorf("microbench: no address maps to slice %d", slice)
	}
	m, err := kernel.NewMachine(dev, kernel.PinnedScheduler{SM: sm}, kernel.Options{})
	if err != nil {
		return LatencyResult{}, err
	}
	b.measurements.Inc()
	b.probes.Add(int64(iters))
	samples := make([]float64, 0, iters)
	// Algorithm 1 uses one thread of one warp: no coalescing, no
	// contention from other lanes.
	_, err = m.Launch(1, 1, func(w *kernel.Warp) {
		addrs := []uint64{addr}
		w.LoadCG(addrs) // warm up: bring the line into L2
		for i := 0; i < iters; i++ {
			t0 := w.Clock()
			if miss {
				w.LoadCGMiss(addrs)
			} else {
				w.LoadCG(addrs)
			}
			samples = append(samples, w.Clock()-t0)
		}
	})
	if err != nil {
		return LatencyResult{}, err
	}
	return LatencyResult{Samples: samples, Summary: stats.Summarize(samples)}, nil
}

// LatencyProfile returns the mean L2 hit latency from SM sm to every L2
// slice, the per-SM "profile" whose pairwise Pearson correlation drives
// the placement analysis of Sec. III-B.
func (b *Bench) LatencyProfile(dev *gpu.Device, sm, iters int) ([]float64, error) {
	cfg := dev.Config()
	out := make([]float64, cfg.L2Slices)
	for s := 0; s < cfg.L2Slices; s++ {
		r, err := b.MeasureL2Latency(dev, sm, s, iters)
		if err != nil {
			return nil, err
		}
		out[s] = r.Summary.Mean
	}
	return out, nil
}

// LatencyMatrix measures the full [SM][slice] mean-latency matrix,
// sharding one task per SM row across the parallel pool. sms selects the
// rows; nil means every SM. Rows land in index-addressed slots, so the
// matrix is identical for every pool size, and the bench's atomic
// counters aggregate correctly across row workers. Each row's
// measurements build their own kernel.Machine, and the shared
// *gpu.Device is immutable after construction, so rows race on nothing.
func (b *Bench) LatencyMatrix(dev *gpu.Device, sms []int, iters int) ([][]float64, error) {
	if sms == nil {
		cfg := dev.Config()
		sms = make([]int, cfg.SMs())
		for i := range sms {
			sms[i] = i
		}
	}
	return parallel.Map(len(sms), func(i int) ([]float64, error) {
		return b.LatencyProfile(dev, sms[i], iters)
	})
}

// CorrelationHeatmap computes the SM-by-SM Pearson correlation matrix of
// latency profiles (Fig. 6), with profile rows measured in parallel.
// sms selects the SMs; nil means all.
func (b *Bench) CorrelationHeatmap(dev *gpu.Device, sms []int, iters int) ([][]float64, error) {
	profiles, err := b.LatencyMatrix(dev, sms, iters)
	if err != nil {
		return nil, err
	}
	return stats.CorrelationMatrix(profiles)
}

// SMToSMLatencyMatrix measures the H100 distributed-shared-memory latency
// between CPC pairs of one GPC (Fig. 7b): entry [i][j] is the mean latency
// of a remote-shared-memory load from a CPC-i SM to a CPC-j SM.
func SMToSMLatencyMatrix(dev *gpu.Device, gpc, iters int) ([][]float64, error) {
	cfg := dev.Config()
	if cfg.CPCsPerGPC == 0 {
		return nil, fmt.Errorf("microbench: %s has no SM-to-SM network", cfg.Name)
	}
	if gpc < 0 || gpc >= cfg.GPCs {
		return nil, fmt.Errorf("microbench: GPC %d out of range", gpc)
	}
	if iters <= 0 {
		return nil, fmt.Errorf("microbench: iters must be positive, got %d", iters)
	}
	n := cfg.CPCsPerGPC
	// The probe loads from a CPC's second SM into the first SM of the
	// peer CPC, so every CPC must expose at least two SMs; a gpu.Custom
	// design with a single SM per CPC cannot host the measurement.
	for cpc := 0; cpc < n; cpc++ {
		if got := len(dev.SMsOfCPC(gpc, cpc)); got < 2 {
			return nil, fmt.Errorf("microbench: GPC %d CPC %d has %d SM(s); the SM-to-SM probe needs at least 2 per CPC", gpc, cpc, got)
		}
	}
	out := make([][]float64, n)
	for src := 0; src < n; src++ {
		out[src] = make([]float64, n)
		srcSM := dev.SMsOfCPC(gpc, src)[0]
		for dst := 0; dst < n; dst++ {
			dstSM := dev.SMsOfCPC(gpc, dst)[1]
			mean, err := remoteSharedMean(dev, srcSM, dstSM, iters)
			if err != nil {
				return nil, err
			}
			out[src][dst] = mean
		}
	}
	return out, nil
}

// remoteSharedMean times iters remote-shared-memory loads from srcSM to
// dstSM and returns their mean latency. A failed remote load fails the
// whole measurement, not silently deflates the mean: the error is carried
// out of the warp closure, and the mean divides by the iterations that
// actually completed rather than by iters.
func remoteSharedMean(dev *gpu.Device, srcSM, dstSM, iters int) (float64, error) {
	m, err := kernel.NewMachine(dev, kernel.PinnedScheduler{SM: srcSM}, kernel.Options{})
	if err != nil {
		return 0, err
	}
	var sum float64
	var done int
	var loadErr error
	_, err = m.Launch(1, 1, func(w *kernel.Warp) {
		for i := 0; i < iters; i++ {
			lat, err := w.LoadRemoteShared(dstSM)
			if err != nil {
				loadErr = err
				return
			}
			sum += lat
			done++
		}
	})
	if err != nil {
		return 0, err
	}
	if loadErr != nil {
		return 0, fmt.Errorf("microbench: remote-shared load SM%d->SM%d after %d/%d iterations: %w",
			srcSM, dstSM, done, iters, loadErr)
	}
	return sum / float64(done), nil
}

// GPCToMPLatency returns the average L2 hit latency from the SMs of each
// GPC to the slices of one MP (the Fig. 8 top row), indexed by GPC, with
// one parallel task per GPC row.
func (b *Bench) GPCToMPLatency(dev *gpu.Device, mp, iters int) ([]float64, error) {
	cfg := dev.Config()
	if mp < 0 || mp >= cfg.MPs {
		return nil, fmt.Errorf("microbench: MP %d out of range", mp)
	}
	return parallel.Map(cfg.GPCs, func(g int) (float64, error) {
		var xs []float64
		for _, sm := range dev.SMsOfGPC(g) {
			for _, s := range dev.SlicesOfMP(mp) {
				r, err := b.MeasureL2Latency(dev, sm, s, iters)
				if err != nil {
					return 0, err
				}
				xs = append(xs, r.Summary.Mean)
			}
		}
		return stats.Mean(xs), nil
	})
}

// GPCToMPMissPenalty returns the average L2 miss penalty (miss latency
// minus hit latency) from each GPC's SMs for lines homed in one MP (the
// Fig. 8 bottom row), with one parallel task per GPC row.
func (b *Bench) GPCToMPMissPenalty(dev *gpu.Device, mp, iters int) ([]float64, error) {
	cfg := dev.Config()
	if mp < 0 || mp >= cfg.MPs {
		return nil, fmt.Errorf("microbench: MP %d out of range", mp)
	}
	return parallel.Map(cfg.GPCs, func(g int) (float64, error) {
		var xs []float64
		for _, sm := range dev.SMsOfGPC(g) {
			for _, s := range dev.SlicesOfMP(mp) {
				hit, err := b.MeasureL2Latency(dev, sm, s, iters)
				if err != nil {
					return 0, err
				}
				miss, err := b.MeasureL2MissLatency(dev, sm, s, iters)
				if err != nil {
					return 0, err
				}
				xs = append(xs, miss.Summary.Mean-hit.Summary.Mean)
			}
		}
		return stats.Mean(xs), nil
	})
}
