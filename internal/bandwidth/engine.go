package bandwidth

import (
	"fmt"
	"math"
	"sort"

	"gpunoc/internal/gpu"
	"gpunoc/internal/units"
)

// Flow is one traffic class in the closed queueing network: a single SM
// streaming cache-line requests to a set of L2 slices, mirroring one
// thread block of the paper's Algorithm 2.
type Flow struct {
	// SM is the source streaming multiprocessor.
	SM int
	// Slices is the destination L2 slice set; accesses spread uniformly
	// over it. Must be nonempty.
	Slices []int
	// Write marks a write-streaming flow (request-side bandwidth binds).
	Write bool
	// DRAM marks a flow whose accesses miss in L2 and are serviced by the
	// home memory channel (for off-chip bandwidth measurements).
	DRAM bool
}

// Result reports the solved steady state.
type Result struct {
	// PerFlowGBs is the achieved bandwidth of each flow, in input order.
	PerFlowGBs []units.GBps
	// TotalGBs is the sum over flows.
	TotalGBs units.GBps
}

// Engine solves bandwidth allocations for one device and profile.
type Engine struct {
	dev  *gpu.Device
	prof Profile
}

// NewEngine builds an engine for the device using its generation's
// canonical profile, or a derived one for custom generations.
func NewEngine(dev *gpu.Device) (*Engine, error) {
	prof, err := ProfileOrDerive(dev.Config())
	if err != nil {
		return nil, err
	}
	return NewEngineWithProfile(dev, prof)
}

// NewEngineWithProfile builds an engine with an explicit profile (used by
// the ablation benchmarks to perturb single capacities).
func NewEngineWithProfile(dev *gpu.Device, prof Profile) (*Engine, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	return &Engine{dev: dev, prof: prof}, nil
}

// Device returns the engine's device.
func (e *Engine) Device() *gpu.Device { return e.dev }

// Profile returns the engine's capacity profile.
func (e *Engine) Profile() Profile { return e.prof }

// demand is one flow's visit to a station: seconds of service per
// completed line of the flow (visit ratio folded in).
type demand struct {
	station int
	d       float64
}

// netModel is the assembled closed queueing network.
type netModel struct {
	// stations names each queueing resource, in creation order.
	stations []string
	// classes[f] holds flow f's demands; population[f] its customers;
	// think[f] its think time in seconds.
	classes    [][]demand
	population []float64
	think      []float64
}

// Solve computes the steady-state bandwidth of the given flows. It returns
// an error for empty or malformed flow sets.
func (e *Engine) Solve(flows []Flow) (Result, error) {
	if len(flows) == 0 {
		return Result{}, fmt.Errorf("bandwidth: no flows")
	}
	cfg := e.dev.Config()
	for i, f := range flows {
		if f.SM < 0 || f.SM >= cfg.SMs() {
			return Result{}, fmt.Errorf("bandwidth: flow %d: SM %d out of range", i, f.SM)
		}
		if len(f.Slices) == 0 {
			return Result{}, fmt.Errorf("bandwidth: flow %d: empty slice set", i)
		}
		for _, s := range f.Slices {
			if s < 0 || s >= cfg.L2Slices {
				return Result{}, fmt.Errorf("bandwidth: flow %d: slice %d out of range", i, s)
			}
		}
	}
	m := e.build(flows)
	x, err := solveAMVA(m, amvaMaxIter)
	if err != nil {
		return Result{}, err
	}

	lineBytes := float64(cfg.CacheLineBytes)
	res := Result{PerFlowGBs: make([]units.GBps, len(flows))}
	for f := range flows {
		gbs := units.GBps(x[f] * lineBytes / 1e9)
		res.PerFlowGBs[f] = gbs
		res.TotalGBs += gbs
	}
	return res, nil
}

// build assembles the queueing network for the flow set.
func (e *Engine) build(flows []Flow) *netModel {
	cfg := e.dev.Config()
	prof := e.prof
	clockHz := float64(cfg.CoreClockMHz) * 1e6
	lineBytes := float64(cfg.CacheLineBytes)

	m := &netModel{}
	index := map[string]int{}
	stationOf := func(name string) int {
		if i, ok := index[name]; ok {
			return i
		}
		i := len(m.stations)
		index[name] = i
		m.stations = append(m.stations, name)
		return i
	}

	for _, f := range flows {
		gpc := e.dev.GPCOf(f.SM)
		tpc := e.dev.TPCOf(f.SM)
		cpc := e.dev.CPCOf(f.SM)
		slot := e.dev.LocalIndex(f.SM) % cfg.SMsPerTPC
		srcPart := e.dev.PartitionOfSM(f.SM)

		smCap, tpcCap, slotCap := prof.SMReadGBs, prof.TPCReadGBs, prof.SlotBusGBs
		cpcCap := prof.CPCReadGBs
		pop := prof.MLPLines
		dir := "r"
		if f.Write {
			smCap, tpcCap, slotCap = prof.SMWriteGBs, prof.TPCWriteGBs, prof.SlotBusWriteGBs
			cpcCap = prof.CPCWriteGBs
			pop = prof.MLPWriteLines
			dir = "w"
		}
		// Per-target MSHR slots bound how deep a narrow stream can run.
		if cap := prof.MLPPerSliceLines * len(f.Slices); cap < pop {
			pop = cap
		}

		var dms []demand
		add := func(name string, capGBs units.GBps, visit float64) {
			if capGBs <= 0 || visit <= 0 {
				return
			}
			dms = append(dms, demand{station: stationOf(name), d: visit * lineBytes / (float64(capGBs) * 1e9)})
		}

		// Source-side hierarchy, visited by every line.
		add(fmt.Sprintf("sm%d/%s", f.SM, dir), smCap, 1)
		add(fmt.Sprintf("tpc%d.%d/%s", gpc, tpc, dir), tpcCap, 1)
		if cpc >= 0 && cpcCap > 0 {
			add(fmt.Sprintf("cpc%d.%d/%s", gpc, cpc, dir), cpcCap, 1)
		}
		add(fmt.Sprintf("slot%d.%d/%s", gpc, slot, dir), slotCap, 1)
		add(fmt.Sprintf("gpctrunk%d", gpc), prof.GPCTrunkGBs, 1)

		// Destination-side, split by visit ratio across the slice set.
		// Partition-local caching (H100) redirects each slice to its local
		// serving slice, exactly as the latency model does.
		perSlice := 1 / float64(len(f.Slices))
		var think units.Cycles // averaged over destinations
		crossFrac := 0.0
		mpVisits := map[int]float64{}
		sliceVisits := map[int]float64{}
		for _, s := range f.Slices {
			serving := e.dev.ServingSliceID(f.SM, s)
			sliceVisits[serving] += perSlice
			mpVisits[e.dev.MPOfSlice(serving)] += perSlice
			if e.dev.PartitionOfSlice(serving) != srcPart {
				crossFrac += perSlice
			}
			think += e.dev.L2HitLatencyMean(f.SM, s)
			if f.DRAM {
				think += e.dev.L2MissPenaltyMean(f.SM, e.dev.MPOfSlice(serving))
			}
		}
		think = think.Scale(perSlice)

		if crossFrac > 0 && prof.PartitionLinkGBs > 0 {
			add(fmt.Sprintf("xpart%d", srcPart), prof.PartitionLinkGBs, crossFrac)
		}
		// Station creation order must not depend on map iteration order:
		// it fixes the float-summation order inside the MVA solver, and
		// with it the low-order bits of every reported bandwidth.
		for _, mp := range sortedIntKeys(mpVisits) {
			v := mpVisits[mp]
			add(fmt.Sprintf("gpcmp%d.%d", gpc, mp), prof.GPCMPPortGBs, v)
			add(fmt.Sprintf("mpport%d", mp), prof.MPPortGBs, v)
			if f.DRAM {
				add(fmt.Sprintf("mem%d", mp), prof.MemChannelGBs, v)
			}
		}
		for _, s := range sortedIntKeys(sliceVisits) {
			add(fmt.Sprintf("slice%d", s), prof.SliceGBs, sliceVisits[s])
		}

		m.classes = append(m.classes, dms)
		m.population = append(m.population, float64(pop))
		m.think = append(m.think, float64(think)/clockHz)
	}
	return m
}

// sortedIntKeys returns m's keys in ascending order.
func sortedIntKeys(m map[int]float64) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// amvaMaxIter caps solveAMVA's fixed-point iterations. The slowest solve
// any registered experiment makes converges in about 1640.
const amvaMaxIter = 2000

// solveAMVA runs multi-class Schweitzer approximate Mean Value Analysis to
// a fixed point and returns per-class throughput in lines per second. It
// returns an error when the queue lengths still move by tol or more after
// maxIter iterations.
//
// Queue lengths are kept per demand: q[f][i] is class f's mean customers
// at its i-th demand's station. Each iteration rebuilds the station
// totals by walking the classes in ascending order. Because build never
// gives a class the same station twice, every total receives the same
// terms, in the same order, as a column sum over a stations x classes
// matrix whose other entries are exact zeros, so the result does not
// depend on the storage.
func solveAMVA(m *netModel, maxIter int) ([]float64, error) {
	nClasses := len(m.classes)
	longest, total := 0, 0
	for _, dms := range m.classes {
		total += len(dms)
		if len(dms) > longest {
			longest = len(dms)
		}
	}
	backing := make([]float64, total)
	q := make([][]float64, nClasses)
	// Initialize customers spread evenly over each class's stations.
	for f, dms := range m.classes {
		q[f], backing = backing[:len(dms):len(dms)], backing[len(dms):]
		each := m.population[f] / float64(len(dms)+1)
		for i := range dms {
			q[f][i] = each
		}
	}
	x := make([]float64, nClasses)
	qTot := make([]float64, len(m.stations))
	rs := make([]float64, longest)
	const (
		tol  = 1e-10
		damp = 0.5
	)
	for iter := 0; iter < maxIter; iter++ {
		clear(qTot)
		for f, dms := range m.classes {
			for i, dm := range dms {
				qTot[dm.station] += q[f][i]
			}
		}
		maxDelta := 0.0
		for f, dms := range m.classes {
			nf := m.population[f]
			r := m.think[f]
			qf := q[f]
			for i, dm := range dms {
				// Schweitzer approximation: remove this class's fair share
				// of its own queue when estimating queue seen on arrival.
				seen := qTot[dm.station] - qf[i]/nf
				if seen < 0 {
					seen = 0
				}
				rs[i] = dm.d * (1 + seen)
				r += rs[i]
			}
			xf := nf / r
			x[f] = xf
			for i := range dms {
				next := xf * rs[i]
				old := qf[i]
				upd := old*(1-damp) + next*damp
				if d := math.Abs(upd - old); d > maxDelta {
					maxDelta = d
				}
				qf[i] = upd
			}
		}
		if maxDelta < tol {
			return x, nil
		}
	}
	return nil, fmt.Errorf("bandwidth: AMVA did not converge in %d iterations", maxIter)
}
