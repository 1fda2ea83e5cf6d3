package sidechannel

import (
	"errors"
	"fmt"

	"gpunoc/internal/gpu"
	"gpunoc/internal/kernel"
	"gpunoc/internal/microbench"
	"gpunoc/internal/stats"
)

// ClusterSMsByLatency reverse-engineers SM placement from timing alone
// (Implication #1): it measures each SM's L2-latency profile with
// Algorithm 1 and greedily groups SMs whose profiles correlate above the
// threshold. On the modelled GPUs the resulting clusters recover the
// physical column/CPC groups - the co-location information an attacker
// needs now that placement-revealing performance counters are gone.
func ClusterSMsByLatency(dev *gpu.Device, sms []int, iters int, threshold float64) ([][]int, error) {
	if len(sms) == 0 {
		return nil, fmt.Errorf("sidechannel: no SMs to cluster")
	}
	if threshold <= 0 || threshold >= 1 {
		return nil, fmt.Errorf("sidechannel: threshold %v outside (0, 1)", threshold)
	}
	b := microbench.NewBench(nil)
	profiles := make([][]float64, len(sms))
	for i, sm := range sms {
		p, err := b.LatencyProfile(dev, sm, iters)
		if err != nil {
			return nil, err
		}
		profiles[i] = p
	}
	var clusters [][]int     // SM ids
	var representative []int // index into profiles for each cluster
	for i, sm := range sms {
		placed := false
		for c := range clusters {
			r, err := stats.Pearson(profiles[representative[c]], profiles[i])
			if errors.Is(err, stats.ErrZeroVariance) {
				// A flat profile correlates with nothing; the SM cannot
				// be co-located with this cluster by timing evidence.
				continue
			}
			if err != nil {
				return nil, err
			}
			if r >= threshold {
				clusters[c] = append(clusters[c], sm)
				placed = true
				break
			}
		}
		if !placed {
			clusters = append(clusters, []int{sm})
			representative = append(representative, i)
		}
	}
	return clusters, nil
}

// TimingVsUniqueLines measures warp latency as a function of the number of
// unique memory sectors the warp access touches, on a given SM - the
// Fig. 17(a) sweep. The returned slice is indexed by unique-sector count
// (1-based: out[0] is 1 sector).
func TimingVsUniqueLines(dev *gpu.Device, sm int, maxSectors, repeats int) ([]float64, error) {
	if maxSectors <= 0 || maxSectors > kernel.WarpSize {
		return nil, fmt.Errorf("sidechannel: maxSectors %d out of range", maxSectors)
	}
	if repeats <= 0 {
		return nil, fmt.Errorf("sidechannel: repeats must be positive")
	}
	m, err := kernel.NewMachine(dev, kernel.PinnedScheduler{SM: sm}, kernel.Options{})
	if err != nil {
		return nil, err
	}
	out := make([]float64, maxSectors)
	sector := uint64(kernel.SectorBytes)
	for n := 1; n <= maxSectors; n++ {
		var total float64
		_, err := m.Launch(1, kernel.WarpSize, func(w *kernel.Warp) {
			addrs := make([]uint64, kernel.WarpSize)
			for rep := 0; rep < repeats; rep++ {
				// Rotate which sectors are touched each repeat so the
				// reported point is the average over slice placements,
				// as the paper's Fig. 17(a) averages its timings.
				base := uint64(rep*maxSectors) * sector
				for lane := range addrs {
					addrs[lane] = base + uint64(lane%n)*sector
				}
				t0 := w.Clock()
				w.LoadCG(addrs)
				total += w.Clock() - t0
			}
		})
		if err != nil {
			return nil, err
		}
		out[n-1] = total / float64(repeats)
	}
	return out, nil
}
