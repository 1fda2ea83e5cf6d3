package microbench

import (
	"fmt"

	"gpunoc/internal/bandwidth"
	"gpunoc/internal/gpu"
	"gpunoc/internal/profiler"
)

// SliceMap is the paper's M[s] structure: for each L2 slice, the
// line-aligned addresses of the data array D[] that map to it.
type SliceMap struct {
	// Addrs[s] holds addresses mapping to slice label s.
	Addrs [][]uint64
}

// AddressFor returns one address mapping to slice s.
func (m *SliceMap) AddressFor(s int) (uint64, error) {
	if s < 0 || s >= len(m.Addrs) || len(m.Addrs[s]) == 0 {
		return 0, fmt.Errorf("microbench: no address known for slice %d", s)
	}
	return m.Addrs[s][0], nil
}

// BuildSliceMapProfiler constructs M[] the way the paper does on V100:
// touch each line of D[] from one SM while watching the profiler's
// non-aggregated per-slice counters; whichever counter moves names the
// line's slice. Fails with profiler.ErrAggregatedOnly on GPUs whose
// tooling hides per-slice counters.
func BuildSliceMapProfiler(dev *gpu.Device, p *profiler.Profiler, lines int) (*SliceMap, error) {
	if lines <= 0 {
		return nil, fmt.Errorf("microbench: lines must be positive")
	}
	cfg := dev.Config()
	m := &SliceMap{Addrs: make([][]uint64, cfg.L2Slices)}
	lineBytes := uint64(cfg.CacheLineBytes)
	for i := 0; i < lines; i++ {
		addr := uint64(i) * lineBytes
		p.Reset()
		p.RecordAccess(0, addr)
		s, err := p.HottestSlice()
		if err != nil {
			return nil, err
		}
		m.Addrs[s] = append(m.Addrs[s], addr)
	}
	return m, nil
}

// ContentionProber decides whether two addresses share an L2 slice by
// measuring bandwidth interference, the manual method of the paper's
// footnote 1 for A100/H100: one kernel hammers a fixed address while a
// second kernel's address is varied; a bandwidth drop means both map to
// the same slice.
type ContentionProber struct {
	eng *bandwidth.Engine
	// smsA and smsB are the SM groups running the two kernels; each group
	// must be large enough to saturate a slice on its own so that sharing
	// is visible.
	smsA, smsB []int
	// solo caches group A's uncontended bandwidth per home slice. It is
	// near-uniform across slices (Observation #8), which is what makes the
	// probe reliable, but caching per slice avoids relying on it.
	solo map[int]float64
}

// NewContentionProber builds a prober using the first 2*groupSize SMs.
func NewContentionProber(eng *bandwidth.Engine, groupSize int) (*ContentionProber, error) {
	cfg := eng.Device().Config()
	if groupSize <= 0 || 2*groupSize > cfg.SMs() {
		return nil, fmt.Errorf("microbench: bad prober group size %d", groupSize)
	}
	a := make([]int, groupSize)
	b := make([]int, groupSize)
	for i := 0; i < groupSize; i++ {
		a[i] = i
		b[i] = groupSize + i
	}
	return &ContentionProber{eng: eng, smsA: a, smsB: b, solo: map[int]float64{}}, nil
}

// SameSlice probes whether addrA and addrB map to the same slice: it
// compares group A's bandwidth on addrA while group B hammers addrB
// against group A's solo bandwidth. Contention (a drop beyond 25%) means
// a shared slice. The flows address each line's home slice; the engine
// resolves which slice serves each SM, as the hardware does.
func (cp *ContentionProber) SameSlice(addrA, addrB uint64) (bool, error) {
	dev := cp.eng.Device()
	sliceA := dev.HomeSlice(addrA)
	sliceB := dev.HomeSlice(addrB)
	soloA, ok := cp.solo[sliceA]
	if !ok {
		var err error
		soloA, err = SliceBandwidth(cp.eng, cp.smsA, sliceA)
		if err != nil {
			return false, err
		}
		cp.solo[sliceA] = soloA
	}
	flows := make([]bandwidth.Flow, 0, len(cp.smsA)+len(cp.smsB))
	for _, sm := range cp.smsA {
		flows = append(flows, bandwidth.Flow{SM: sm, Slices: []int{sliceA}})
	}
	for _, sm := range cp.smsB {
		flows = append(flows, bandwidth.Flow{SM: sm, Slices: []int{sliceB}})
	}
	res, err := cp.eng.Solve(flows)
	if err != nil {
		return false, err
	}
	var bwA float64
	for i := range cp.smsA {
		bwA += float64(res.PerFlowGBs[i])
	}
	return bwA < 0.75*soloA, nil
}

// BuildSliceMapByContention groups the first `lines` line addresses into
// slice-sharing classes with the contention probe, maintaining one anchor
// address per discovered class. The returned SliceMap uses discovery-order
// labels; as the paper notes, the numerical slice ID "is not significant
// but is only needed to ensure different ... SM or L2 slices are
// accessed". It also returns the number of distinct classes found.
func BuildSliceMapByContention(eng *bandwidth.Engine, lines int) (*SliceMap, int, error) {
	if lines <= 0 {
		return nil, 0, fmt.Errorf("microbench: lines must be positive")
	}
	cp, err := NewContentionProber(eng, 8)
	if err != nil {
		return nil, 0, err
	}
	cfg := eng.Device().Config()
	lineBytes := uint64(cfg.CacheLineBytes)
	var anchors []uint64
	m := &SliceMap{}
	for i := 0; i < lines; i++ {
		addr := uint64(i) * lineBytes
		class := -1
		for c, anchor := range anchors {
			same, err := cp.SameSlice(anchor, addr)
			if err != nil {
				return nil, 0, err
			}
			if same {
				class = c
				break
			}
		}
		if class < 0 {
			class = len(anchors)
			anchors = append(anchors, addr)
			m.Addrs = append(m.Addrs, nil)
		}
		m.Addrs[class] = append(m.Addrs[class], addr)
	}
	return m, len(anchors), nil
}
