package kernel

import (
	"fmt"

	"gpunoc/internal/cache"
	"gpunoc/internal/gpu"
)

// Options tune the runtime's fixed costs.
type Options struct {
	// IssueGapCycles is the LSU serialization cost between the memory
	// transactions of one coalesced warp access. Together with the NoC
	// round trip it yields the linear latency-vs-unique-lines relationship
	// of Fig. 17(a).
	IssueGapCycles float64

	// SectorBytes is the memory-transaction granularity of a warp access
	// (the 32-byte L2 sector of modern NVIDIA GPUs). Coalescing counts
	// unique sectors, which is the quantity GPU timing side channels
	// infer; 0 defaults to 32.
	SectorBytes int

	// LaunchOverheadCycles is charged once per block.
	LaunchOverheadCycles float64

	// GridSync makes Launch model a grid-wide final synchronization
	// through a shared L2 location: the kernel is not done until the
	// slowest SM's flag round trip completes. With SMs co-located on one
	// partition this is cheap; spanning partitions it is not - the
	// mechanism behind the paper's 1.7x RSA square-kernel spread
	// (Fig. 17b).
	GridSync bool

	// SyncSlice is the L2 slice holding the synchronization flag.
	SyncSlice int

	// ModelL2 attaches a set-associative sectored cache to every L2 slice
	// so hits and misses are determined by actual residency instead of
	// the caller's assertion: Algorithm 1's warm-up pass genuinely
	// populates the cache, and working sets larger than the L2 genuinely
	// miss. Off by default; the calibrated experiments assume the paper's
	// "working set fits within the L2" regime.
	ModelL2 bool
}

// DefaultOptions returns the runtime defaults.
func DefaultOptions() Options {
	return Options{IssueGapCycles: 4, SectorBytes: 32, LaunchOverheadCycles: 20}
}

// Machine executes kernels on a device under a block scheduler.
type Machine struct {
	dev   *gpu.Device
	sched Scheduler
	opts  Options
	// launchCount salts per-launch measurement noise so repeated launches
	// observe fresh jitter, like re-running a real kernel.
	launchCount uint64
	// l2 holds one cache per slice when Options.ModelL2 is set.
	l2 []*cache.Cache
}

// NewMachine builds a Machine. A nil scheduler defaults to the static
// production policy.
func NewMachine(dev *gpu.Device, sched Scheduler, opts Options) (*Machine, error) {
	if dev == nil {
		return nil, fmt.Errorf("kernel: nil device")
	}
	if sched == nil {
		sched = StaticScheduler{}
	}
	if opts.IssueGapCycles < 0 || opts.LaunchOverheadCycles < 0 {
		return nil, fmt.Errorf("kernel: negative cost options")
	}
	if opts.SectorBytes == 0 {
		opts.SectorBytes = 32
	}
	if opts.SectorBytes < 0 || opts.SectorBytes&(opts.SectorBytes-1) != 0 {
		return nil, fmt.Errorf("kernel: sector size %d not a power of two", opts.SectorBytes)
	}
	if opts.SyncSlice < 0 || opts.SyncSlice >= dev.Config().L2Slices {
		return nil, fmt.Errorf("kernel: sync slice %d out of range", opts.SyncSlice)
	}
	m := &Machine{dev: dev, sched: sched, opts: opts}
	if opts.ModelL2 {
		cfg := dev.Config()
		perSlice := cfg.L2SizeMiB * 1024 * 1024 / cfg.L2Slices
		m.l2 = make([]*cache.Cache, cfg.L2Slices)
		for s := range m.l2 {
			c, err := cache.New(cache.DefaultSliceConfig(perSlice))
			if err != nil {
				return nil, fmt.Errorf("kernel: slice cache: %w", err)
			}
			m.l2[s] = c
		}
	}
	return m, nil
}

// L2HitRate returns the aggregate hit rate across slice caches, or 0 when
// the machine runs without the L2 model.
func (m *Machine) L2HitRate() float64 {
	if m.l2 == nil {
		return 0
	}
	var hits, total uint64
	for _, c := range m.l2 {
		hits += c.Hits
		total += c.Hits + c.Misses
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// ResetL2 clears the slice caches (a fresh context), if modelled.
func (m *Machine) ResetL2() {
	for _, c := range m.l2 {
		c.Reset()
	}
}

// Device returns the machine's device.
func (m *Machine) Device() *gpu.Device { return m.dev }

// Scheduler returns the machine's block scheduler.
func (m *Machine) Scheduler() Scheduler { return m.sched }

// SetScheduler swaps the block scheduler (e.g. static -> random for the
// defence evaluation).
func (m *Machine) SetScheduler(s Scheduler) { m.sched = s }

// WarpSize is the number of lanes per warp, as on all modelled GPUs.
const WarpSize = 32

// Kernel is a warp-level kernel body: it is invoked once per warp and uses
// the Warp's lane helpers to express per-thread behaviour.
type Kernel func(w *Warp)

// Warp is the execution context handed to a Kernel: one warp of up to 32
// threads running on a specific SM, with a cycle clock advanced by the
// instructions it executes.
type Warp struct {
	m *Machine

	sm       int
	blockIdx int
	blockDim int
	gridDim  int
	warpIdx  int // warp index within the block
	lanes    int

	now  float64
	iter uint64
}

// SMID returns the executing SM's id, like the PTX %smid register the
// paper uses to discover kernel placement.
func (w *Warp) SMID() int { return w.sm }

// BlockIdx returns the block's grid index (blockIdx.x).
func (w *Warp) BlockIdx() int { return w.blockIdx }

// BlockDim returns the threads per block (blockDim.x).
func (w *Warp) BlockDim() int { return w.blockDim }

// GridDim returns the number of blocks (gridDim.x).
func (w *Warp) GridDim() int { return w.gridDim }

// Lanes returns the number of active lanes in this warp.
func (w *Warp) Lanes() int { return w.lanes }

// ThreadIdx returns the block-local thread index of a lane.
func (w *Warp) ThreadIdx(lane int) int { return w.warpIdx*WarpSize + lane }

// GlobalThreadIdx returns blockIdx.x*blockDim.x + threadIdx.x for a lane.
func (w *Warp) GlobalThreadIdx(lane int) int {
	return w.blockIdx*w.blockDim + w.ThreadIdx(lane)
}

// Clock returns the warp's current cycle count, the analogue of CUDA's
// clock() used by Algorithm 1 to time loads.
func (w *Warp) Clock() float64 { return w.now }

// Compute advances the warp clock by a fixed number of ALU cycles.
func (w *Warp) Compute(cycles float64) {
	if cycles > 0 {
		w.now += cycles
	}
}

// LoadCG performs an L1-bypassing (ld.global.cg) warp load of the per-lane
// addresses. The access is coalesced into unique cache lines; the warp
// stalls for the transactions' serialization plus the NoC round trip of
// the final line, then returns the number of unique lines touched.
func (w *Warp) LoadCG(addrs []uint64) int {
	if len(addrs) == 0 {
		return 0
	}
	dev := w.m.dev
	var buf [2 * WarpSize]uint64
	sectors := coalesce(buf[:0], addrs, w.m.opts.SectorBytes)
	n := len(sectors)
	last := sectors[n-1]
	slice := dev.ServingSlice(w.sm, last)
	w.iter++
	lat := dev.L2HitLatency(w.sm, slice, w.iter^w.m.launchCount<<32)
	if w.m.l2 != nil {
		// With the L2 modelled, residency decides hit or miss per
		// transaction; the warp waits for the slowest, so any miss adds
		// one DRAM trip (misses overlap in the memory system).
		missed := false
		for _, sector := range sectors {
			s := dev.ServingSlice(w.sm, sector)
			if !w.m.l2[s].Access(sector) {
				missed = true
			}
		}
		if missed {
			lat += dev.L2MissPenalty(w.sm, dev.HomeMP(last), w.iter)
		}
	}
	w.now += float64(lat) + w.m.opts.IssueGapCycles*float64(n-1)
	return n
}

// StoreCG performs an L1-bypassing warp store of the per-lane addresses.
// Stores post to the L2 and complete at the write-acknowledge round trip
// of the final transaction; like LoadCG it returns the number of unique
// sectors written. With the L2 modelled, stores allocate (write-allocate
// policy) but never pay a DRAM fill.
func (w *Warp) StoreCG(addrs []uint64) int {
	if len(addrs) == 0 {
		return 0
	}
	dev := w.m.dev
	var buf [2 * WarpSize]uint64
	sectors := coalesce(buf[:0], addrs, w.m.opts.SectorBytes)
	n := len(sectors)
	last := sectors[n-1]
	slice := dev.ServingSlice(w.sm, last)
	w.iter++
	lat := dev.L2HitLatency(w.sm, slice, w.iter^w.m.launchCount<<32)
	if w.m.l2 != nil {
		for _, sector := range sectors {
			s := dev.ServingSlice(w.sm, sector)
			w.m.l2[s].Access(sector)
		}
	}
	w.now += float64(lat) + w.m.opts.IssueGapCycles*float64(n-1)
	return n
}

// LoadCGMiss is LoadCG for addresses that miss in L2 and are filled from
// the home memory partition (used for the miss-penalty study of Fig. 8).
func (w *Warp) LoadCGMiss(addrs []uint64) int {
	if len(addrs) == 0 {
		return 0
	}
	dev := w.m.dev
	var buf [2 * WarpSize]uint64
	sectors := coalesce(buf[:0], addrs, w.m.opts.SectorBytes)
	n := len(sectors)
	last := sectors[n-1]
	slice := dev.ServingSlice(w.sm, last)
	w.iter++
	lat := dev.L2HitLatency(w.sm, slice, w.iter^w.m.launchCount<<32)
	lat += dev.L2MissPenalty(w.sm, dev.HomeMP(last), w.iter)
	w.now += float64(lat) + w.m.opts.IssueGapCycles*float64(n-1)
	return n
}

// LoadRemoteShared loads from the shared memory of another SM over the
// SM-to-SM (distributed shared memory) network; H100 only, and both SMs
// must share a GPC (Fig. 7).
func (w *Warp) LoadRemoteShared(dstSM int) (float64, error) {
	w.iter++
	lat, err := w.m.dev.SMToSMLatency(w.sm, dstSM, w.iter)
	if err != nil {
		return 0, err
	}
	w.now += float64(lat)
	return float64(lat), nil
}

// Result reports one kernel launch.
type Result struct {
	// Cycles is the kernel wall time: the completion cycle of the slowest
	// block plus any grid synchronization.
	Cycles float64
	// BlockCycles is each block's own execution time.
	BlockCycles []float64
	// BlockSM is the SM each block ran on.
	BlockSM []int
}

// Launch runs a 1-D kernel of gridDim blocks with blockDim threads each.
// Blocks assigned to the same SM serialize; blocks on distinct SMs run
// concurrently. Block-to-SM placement comes from the machine's scheduler.
func (m *Machine) Launch(gridDim, blockDim int, k Kernel) (Result, error) {
	if gridDim <= 0 || blockDim <= 0 {
		return Result{}, fmt.Errorf("kernel: launch with grid %d, block %d", gridDim, blockDim)
	}
	if blockDim > 1024 {
		return Result{}, fmt.Errorf("kernel: block dimension %d exceeds 1024", blockDim)
	}
	m.launchCount++
	numSMs := m.dev.Config().SMs()
	placement := m.sched.Assign(gridDim, numSMs)
	if len(placement) != gridDim {
		return Result{}, fmt.Errorf("kernel: scheduler %s returned %d placements for %d blocks",
			m.sched.Name(), len(placement), gridDim)
	}

	res := Result{
		BlockCycles: make([]float64, gridDim),
		BlockSM:     placement,
	}
	smBusyUntil := make([]float64, numSMs)
	warpsPerBlock := (blockDim + WarpSize - 1) / WarpSize
	for b := 0; b < gridDim; b++ {
		sm := placement[b]
		if sm < 0 || sm >= numSMs {
			return Result{}, fmt.Errorf("kernel: scheduler %s placed block %d on SM %d (of %d)",
				m.sched.Name(), b, sm, numSMs)
		}
		start := smBusyUntil[sm] + m.opts.LaunchOverheadCycles
		blockEnd := start
		for wi := 0; wi < warpsPerBlock; wi++ {
			lanes := blockDim - wi*WarpSize
			if lanes > WarpSize {
				lanes = WarpSize
			}
			w := &Warp{
				m: m, sm: sm,
				blockIdx: b, blockDim: blockDim, gridDim: gridDim,
				warpIdx: wi, lanes: lanes,
				now:  start,
				iter: uint64(b)<<16 | uint64(wi),
			}
			k(w)
			if w.now > blockEnd {
				blockEnd = w.now
			}
		}
		res.BlockCycles[b] = blockEnd - start
		smBusyUntil[sm] = blockEnd
		if blockEnd > res.Cycles {
			res.Cycles = blockEnd
		}
	}

	if m.opts.GridSync {
		res.Cycles += m.gridSyncCost(placement)
	}
	return res, nil
}

// gridSyncCost models the final grid-wide barrier: every participating SM
// round-trips a flag in a shared L2 location, so the barrier costs the
// slowest SM's round trip twice (arrive + release). When the SMs span GPU
// partitions, the flag is far for some of them.
func (m *Machine) gridSyncCost(placement []int) float64 {
	worst := 0.0
	for _, sm := range placement {
		// A repeated SM repeats its latency, which cannot move the max.
		if lat := float64(m.dev.L2HitLatencyMean(sm, m.opts.SyncSlice)); lat > worst {
			worst = lat
		}
	}
	return 2 * worst
}
