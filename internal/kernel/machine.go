package kernel

import (
	"fmt"

	"gpunoc/internal/cache"
	"gpunoc/internal/gpu"
)

// The runtime's fixed costs.
const (
	// IssueGapCycles is the LSU serialization cost between the memory
	// transactions of one coalesced warp access. Together with the NoC
	// round trip it yields the linear latency-vs-unique-lines relationship
	// of Fig. 17(a).
	IssueGapCycles = 4

	// SectorBytes is the memory-transaction granularity of a warp access
	// (the 32-byte L2 sector of modern NVIDIA GPUs). Coalescing counts
	// unique sectors, which is the quantity GPU timing side channels
	// infer.
	SectorBytes = 32

	// launchOverheadCycles is charged once per block.
	launchOverheadCycles = 20

	// syncSlice is the L2 slice holding the grid synchronization flag.
	syncSlice = 0
)

// Options select the runtime's optional models. The zero value is the
// default: no grid synchronization and no L2 residency model.
type Options struct {
	// GridSync makes Launch model a grid-wide final synchronization
	// through a shared L2 location: the kernel is not done until the
	// slowest SM's flag round trip completes. With SMs co-located on one
	// partition this is cheap; spanning partitions it is not - the
	// mechanism behind the paper's 1.7x RSA square-kernel spread
	// (Fig. 17b).
	GridSync bool

	// ModelL2 attaches a set-associative sectored cache to every L2 slice
	// so hits and misses are determined by actual residency instead of
	// the caller's assertion: Algorithm 1's warm-up pass genuinely
	// populates the cache, and working sets larger than the L2 genuinely
	// miss. Off by default; the calibrated experiments assume the paper's
	// "working set fits within the L2" regime.
	ModelL2 bool
}

// Machine executes kernels on a device under a block scheduler. It is not
// safe for concurrent use, and a kernel must not launch on its own
// machine: launches share the machine's L2 model and per-SM clocks.
type Machine struct {
	dev   *gpu.Device
	sched Scheduler
	opts  Options
	// launchCount salts per-launch measurement noise so repeated launches
	// observe fresh jitter, like re-running a real kernel.
	launchCount uint64
	// l2 holds one cache per slice when Options.ModelL2 is set.
	l2 []*cache.Cache
	// smBusyUntil is Launch's per-SM completion time, kept across
	// launches so a launch does not allocate it, and cleared by each.
	smBusyUntil []float64
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
	if w.m.l2 != nil && len(addrs) > 1 {
		var buf [2 * WarpSize]uint64
		sectors := coalesce(buf[:0], addrs, SectorBytes)
		n := len(sectors)
		return w.load(n, sectors[n-1], sectors[:n-1])
	}
	// Without the L2 model only the count and the last sector matter,
	// and with it a one-lane access has no other sector to visit.
	n, last := countLines(addrs, SectorBytes)
	return w.load(n, last, nil)
}

// load charges a load of n unique sectors whose final transaction is
// last; others lists the other n-1 sectors, which only the L2 model
// visits.
func (w *Warp) load(n int, last uint64, others []uint64) int {
	dev := w.m.dev
	// The last sector's home slice is hashed once: it fixes the serving
	// slice, the miss penalty's memory partition and its cache access.
	home := dev.HomeSlice(last)
	slice := dev.ServingSliceID(w.sm, home)
	w.iter++
	lat := dev.L2HitLatency(w.sm, slice, w.iter^w.m.launchCount<<32)
	if w.m.l2 != nil {
		// With the L2 modelled, residency decides hit or miss per
		// transaction; the warp waits for the slowest, so any miss adds
		// one DRAM trip (misses overlap in the memory system).
		missed := false
		for _, sector := range others {
			s := dev.ServingSlice(w.sm, sector)
			if !w.m.l2[s].Access(sector) {
				missed = true
			}
		}
		if !w.m.l2[slice].Access(last) {
			missed = true
		}
		if missed {
			lat += dev.L2MissPenalty(w.sm, dev.MPOfSlice(home), w.iter)
		}
	}
	w.now += float64(lat) + IssueGapCycles*float64(n-1)
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
	if w.m.l2 != nil && len(addrs) > 1 {
		var buf [2 * WarpSize]uint64
		sectors := coalesce(buf[:0], addrs, SectorBytes)
		n := len(sectors)
		return w.store(n, sectors[n-1], sectors[:n-1])
	}
	n, last := countLines(addrs, SectorBytes)
	return w.store(n, last, nil)
}

// store is load's write-acknowledge counterpart.
func (w *Warp) store(n int, last uint64, others []uint64) int {
	dev := w.m.dev
	slice := dev.ServingSlice(w.sm, last)
	w.iter++
	lat := dev.L2HitLatency(w.sm, slice, w.iter^w.m.launchCount<<32)
	if w.m.l2 != nil {
		for _, sector := range others {
			w.m.l2[dev.ServingSlice(w.sm, sector)].Access(sector)
		}
		w.m.l2[slice].Access(last)
	}
	w.now += float64(lat) + IssueGapCycles*float64(n-1)
	return n
}

// LoadCGMiss is LoadCG for addresses that miss in L2 and are filled from
// the home memory partition (used for the miss-penalty study of Fig. 8).
// It never consults the L2 model, so only the count and the last sector
// matter.
func (w *Warp) LoadCGMiss(addrs []uint64) int {
	if len(addrs) == 0 {
		return 0
	}
	dev := w.m.dev
	n, last := countLines(addrs, SectorBytes)
	slice := dev.ServingSlice(w.sm, last)
	w.iter++
	lat := dev.L2HitLatency(w.sm, slice, w.iter^w.m.launchCount<<32)
	lat += dev.L2MissPenalty(w.sm, dev.HomeMP(last), w.iter)
	w.now += float64(lat) + IssueGapCycles*float64(n-1)
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

	var res Result
	if len(m.smBusyUntil) != numSMs {
		m.smBusyUntil = make([]float64, numSMs)
	}
	smBusyUntil := m.smBusyUntil
	clear(smBusyUntil)
	warpsPerBlock := (blockDim + WarpSize - 1) / WarpSize
	for b := 0; b < gridDim; b++ {
		sm := placement[b]
		if sm < 0 || sm >= numSMs {
			return Result{}, fmt.Errorf("kernel: scheduler %s placed block %d on SM %d (of %d)",
				m.sched.Name(), b, sm, numSMs)
		}
		start := smBusyUntil[sm] + launchOverheadCycles
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
		if lat := float64(m.dev.L2HitLatencyMean(sm, syncSlice)); lat > worst {
			worst = lat
		}
	}
	return 2 * worst
}
