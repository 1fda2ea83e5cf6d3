package microbench

import (
	"fmt"

	"gpunoc/internal/gpu"
	"gpunoc/internal/kernel"
)

// WorkingSetPoint is one point of a working-set latency sweep.
type WorkingSetPoint struct {
	SizeBytes  int
	MeanCycles float64
	L2HitRate  float64
}

// WorkingSetSweep runs the classic pointer-chase capacity sweep with the
// L2 genuinely modelled: for each working-set size, one warm pass streams
// the set through the (reset) slice caches and a timed pass measures mean
// access latency. Sets that fit in the aggregate L2 hit after warm-up
// (the regime all of the paper's latency measurements operate in); sets
// beyond capacity thrash under LRU and pay the DRAM fill, so latency
// steps up at the L2 size - the boundary the paper's methodology
// carefully stays inside.
func WorkingSetSweep(dev *gpu.Device, sm int, sizesBytes []int) ([]WorkingSetPoint, error) {
	if len(sizesBytes) == 0 {
		return nil, fmt.Errorf("microbench: no working-set sizes")
	}
	cfg := dev.Config()
	if sm < 0 || sm >= cfg.SMs() {
		return nil, fmt.Errorf("microbench: SM %d out of range", sm)
	}
	m, err := kernel.NewMachine(dev, kernel.PinnedScheduler{SM: sm}, kernel.Options{ModelL2: true})
	if err != nil {
		return nil, err
	}
	stride := uint64(cfg.CacheLineBytes)
	out := make([]WorkingSetPoint, 0, len(sizesBytes))
	for _, size := range sizesBytes {
		if size <= 0 {
			return nil, fmt.Errorf("microbench: non-positive working-set size %d", size)
		}
		m.ResetL2()
		lines := uint64(size) / stride
		if lines == 0 {
			lines = 1
		}
		var total float64
		var count int
		_, err := m.Launch(1, 1, func(w *kernel.Warp) {
			// Warm pass.
			for a := uint64(0); a < lines; a++ {
				w.LoadCG([]uint64{a * stride})
			}
			// Timed pass.
			for a := uint64(0); a < lines; a++ {
				t0 := w.Clock()
				w.LoadCG([]uint64{a * stride})
				total += w.Clock() - t0
				count++
			}
		})
		if err != nil {
			return nil, err
		}
		out = append(out, WorkingSetPoint{
			SizeBytes:  size,
			MeanCycles: total / float64(count),
			L2HitRate:  m.L2HitRate(),
		})
	}
	return out, nil
}
