package noc

import (
	"fmt"
	"math/rand"

	"gpunoc/internal/obs"
)

// GPUSimConfig sets up the Fig. 20/21 study: the many-to-few-to-many GPU
// traffic pattern over a request mesh and a reply mesh, with memory
// controllers bridging them. Read requests are small (one flit) while
// replies carry a cache line (several flits), so the reply network's
// NoC-MEM interface is the system's narrowest stage when the two meshes
// have equal channel width - the bottleneck prior work identified and the
// paper revisits.
type GPUSimConfig struct {
	Mesh MeshConfig
	// MCs lists memory-controller nodes; empty means the bottom row.
	MCs []int
	// RequestFlits is the read-request packet size; zero means the
	// historical single-flit request.
	RequestFlits int
	// ReplyFlits is the reply packet size (cache line / channel width).
	ReplyFlits int
	// MCServiceCycles is the DRAM service time per request; the memory
	// channel's peak is one request per MCServiceCycles.
	MCServiceCycles int
	// MCQueue is the per-MC pending-request queue depth.
	MCQueue int
	// WindowPerCompute caps each compute node's outstanding requests
	// (its MSHR file).
	WindowPerCompute int
	// Cycles and Warmup control the measurement.
	Cycles, Warmup int
	// UtilWindow is the bucket size for the utilization-over-time series.
	UtilWindow int
	// Seed drives random destination selection.
	Seed int64
	// Obs receives the simulation's instruments (request/reply mesh
	// scopes plus MC queue occupancy, DRAM busy, and reply-backpressure
	// counters); nil runs unobserved at zero cost.
	Obs *obs.Registry
}

// DefaultGPUSimConfig mirrors the throughput-effective-NoC style baseline:
// a 6x6 mesh, 6 edge MCs, 1-flit requests, multi-flit replies, and a
// memory channel able to accept one request per cycle - so the reply-side
// NoC (1 flit/cycle links) can sustain only a fraction of the channel's
// peak, reproducing the ~20% average utilization of Fig. 21.
func DefaultGPUSimConfig(seed int64) GPUSimConfig {
	return GPUSimConfig{
		Mesh:             MeshConfig{Width: 6, Height: 6, BufferFlits: 8, Arbiter: RoundRobin},
		ReplyFlits:       3,
		MCServiceCycles:  1,
		MCQueue:          16,
		WindowPerCompute: 16,
		Cycles:           20000,
		Warmup:           2000,
		UtilWindow:       200,
		Seed:             seed,
	}
}

// GPUSimResult reports the dual-network simulation.
type GPUSimResult struct {
	// MemUtilization is the fraction of cycles the memory channels were
	// actively servicing requests, averaged over MCs.
	MemUtilization float64
	// UtilSeries is the per-window mean memory utilization over time -
	// the fluctuating trace of Fig. 21.
	UtilSeries []float64
	// ReplyInterfaceUtilization is the fraction of cycles MCs were
	// injecting reply flits.
	ReplyInterfaceUtilization float64
	// RequestsServed is the total requests completed by the MCs.
	RequestsServed int64
}

// mcState bridges a request-mesh sink to a reply-mesh source.
type mcState struct {
	node int
	// queue holds admitted requests, bounded at MCQueue, as the node
	// each one's reply returns to.
	queue ring[int]
	// admitted is the ID of the packet whose head flit was granted queue
	// headroom and whose remaining flits are still draining into the
	// sink; IDs start at 1, so 0 means none.
	admitted uint64
	// blocked marks an MC currently stalled on reply-side backpressure,
	// so the tracer records transitions rather than every stalled cycle.
	blocked bool
	// busyUntil is the cycle the in-flight DRAM access completes.
	busyUntil int64
	// replyTo is the destination of a serviced request's reply that
	// could not yet be injected (reply-side backpressure stalls the
	// channel); it is valid while hasReply is set.
	replyTo  int
	hasReply bool
	served   int64
}

// Accept admits or refuses one flit of a request packet. The admission
// decision is made at the head flit: once the head is accepted the rest
// of the packet must drain, because wormhole output ownership means a
// half-consumed packet would hold the local port forever if the tail
// were refused. Headroom checked at the head still holds at the tail -
// only Accept grows the queue, the port is owned head-to-tail so no
// other packet can interleave, and servicing only frees slots.
func (mc *mcState) Accept(p Packet, lastFlit bool, _ int64) bool {
	if p.ID != mc.admitted {
		// Head flit: admit only with queue headroom.
		if mc.queue.full() {
			return false
		}
		mc.admitted = p.ID
	}
	if lastFlit {
		mc.queue.push(p.Src)
		mc.admitted = 0
	}
	return true
}

// gpuSim is the per-run state of the request/reply simulation. The
// per-cycle work is split into //lint:hotpath methods (issue,
// serviceMCs) so the interprocedural analyzers police it structurally:
// everything those methods reach must be allocation-free and
// deterministic. MC and window state is indexed by node ID in slices,
// not maps — the per-cycle loops touch them constantly, and slice
// indexing keeps that path free of map-hash work and map-iteration
// hazards.
type gpuSim struct {
	cfg      GPUSimConfig
	reqFlits int
	reqNet   *Mesh
	repNet   *Mesh
	// mcs lists MC nodes in their fixed service order.
	mcs []int
	// mcStates is indexed by node ID (nil for compute nodes).
	mcStates []*mcState
	// outstanding is indexed by node ID: each compute node's in-flight
	// request window.
	outstanding []int
	compute     []int
	rng         *rand.Rand

	mcObs          *obs.Registry
	mcQueueDepth   *obs.Histogram
	mcBusy         *obs.Counter
	mcBackpressure *obs.Counter
	mcServed       *obs.Counter
	mcTracer       *obs.Tracer
}

// newGPUSim validates the configuration and builds the meshes, MC
// bridges, sinks, and instruments. All allocation happens here, before
// the first cycle.
func newGPUSim(cfg GPUSimConfig) (*gpuSim, error) {
	if cfg.ReplyFlits <= 0 || cfg.MCServiceCycles <= 0 || cfg.MCQueue <= 0 || cfg.WindowPerCompute <= 0 {
		return nil, fmt.Errorf("noc: invalid GPU sim parameters %+v", cfg)
	}
	reqFlits := cfg.RequestFlits
	if reqFlits == 0 {
		reqFlits = 1
	}
	if reqFlits < 0 {
		return nil, fmt.Errorf("noc: invalid GPU sim request flits %d", reqFlits)
	}
	if cfg.Cycles <= 0 || cfg.UtilWindow <= 0 {
		return nil, fmt.Errorf("noc: invalid GPU sim measurement window")
	}
	reqNet, err := NewMesh(cfg.Mesh)
	if err != nil {
		return nil, err
	}
	repNet, err := NewMesh(cfg.Mesh)
	if err != nil {
		return nil, err
	}
	g := &gpuSim{cfg: cfg, reqFlits: reqFlits, reqNet: reqNet, repNet: repNet}
	if g.mcs, g.compute, err = reqNet.placeMCs(cfg.MCs); err != nil {
		return nil, err
	}
	g.mcStates = make([]*mcState, reqNet.Nodes())
	for _, n := range g.mcs {
		st := &mcState{node: n, queue: newRing[int](cfg.MCQueue)}
		g.mcStates[n] = st
		reqNet.SetSink(n, st)
	}
	g.outstanding = make([]int, reqNet.Nodes())
	// Reply completion decrements the source's outstanding window.
	for _, n := range g.compute {
		node := n
		repNet.SetSink(node, sinkFunc(func(_ Packet, lastFlit bool, _ int64) bool {
			if lastFlit {
				g.outstanding[node]--
			}
			return true
		}))
	}

	// Instruments: both meshes report under their own sub-scopes; the MC
	// bridge exports queue occupancy, DRAM busy, reply backpressure, and
	// served-request counts. With cfg.Obs nil every instrument is a
	// nil-safe no-op, so the unobserved loop is identical and
	// allocation-free.
	reqNet.Observe(cfg.Obs.Scope("req"))
	repNet.Observe(cfg.Obs.Scope("rep"))
	g.mcObs = cfg.Obs.Scope("mc")
	g.mcQueueDepth = g.mcObs.Histogram("queue_depth", obs.DepthBounds())
	g.mcBusy = g.mcObs.Counter("busy_cycles")
	g.mcBackpressure = g.mcObs.Counter("reply_backpressure")
	g.mcServed = g.mcObs.Counter("served")
	g.mcTracer = g.mcObs.Tracer()

	g.rng = rand.New(rand.NewSource(cfg.Seed))
	return g, nil
}

// issue lets every compute node fill its outstanding window with read
// requests to seeded-random MCs. The request packet's Src field already
// names the node the reply must return to, so no payload is attached:
// boxing the source index into the any-typed payload parameter was a
// per-request heap allocation on this path.
//
//lint:hotpath per-cycle request-issue loop; runs every simulated cycle
func (g *gpuSim) issue() error {
	for _, n := range g.compute {
		for g.outstanding[n] < g.cfg.WindowPerCompute && g.reqNet.PendingInjection(n) < 4*g.reqFlits {
			dst := g.mcs[g.rng.Intn(len(g.mcs))]
			if _, err := g.reqNet.Inject(n, dst, g.reqFlits); err != nil {
				return err
			}
			g.outstanding[n]++
		}
	}
	return nil
}

// serviceMCs advances every memory controller one cycle: finish DRAM
// accesses, inject replies, start new accesses. MCs are served in the
// fixed g.mcs order: when the reply network backpressures, which MC
// flushes first decides who wins the injection slot, and that must not
// vary run to run. It returns the number of busy MCs and the number of
// replies injected this cycle.
//
//lint:hotpath per-cycle MC service loop; runs every simulated cycle
func (g *gpuSim) serviceMCs() (busyNow int, injected int64, err error) {
	cycle := g.reqNet.Cycle()
	for _, n := range g.mcs {
		st := g.mcStates[n]
		g.mcQueueDepth.Observe(int64(st.queue.len()))
		// Try to flush a reply whose DRAM access completed but whose
		// injection is blocked by the reply-network interface.
		if st.hasReply && cycle >= st.busyUntil {
			if g.repNet.PendingInjection(st.node) < 2*g.cfg.ReplyFlits {
				if _, err := g.repNet.Inject(st.node, st.replyTo, g.cfg.ReplyFlits); err != nil {
					return 0, 0, err
				}
				injected++
				st.hasReply = false
				st.served++
				g.mcServed.Inc()
				if st.blocked {
					// Backpressure released: the reply finally left.
					st.blocked = false
					g.mcTracer.Instant("mc", "reply_unblocked", cycle, int64(st.node), 0)
				}
			} else {
				// Reply-side backpressure stalls the memory channel.
				g.mcBackpressure.Inc()
				if !st.blocked {
					st.blocked = true
					g.mcTracer.Instant("mc", "reply_blocked", cycle, int64(st.node),
						int64(g.repNet.PendingInjection(st.node)))
				}
			}
		}
		busy := cycle < st.busyUntil
		if !busy && !st.hasReply && !st.queue.empty() {
			// Start servicing the next request.
			st.busyUntil = cycle + int64(g.cfg.MCServiceCycles)
			st.replyTo, st.hasReply = st.queue.pop(), true
			busy = true
		}
		if busy {
			busyNow++
			g.mcBusy.Inc()
		}
	}
	return busyNow, injected, nil
}

// run drives the measurement loop and folds the result.
func (g *gpuSim) run() (*GPUSimResult, error) {
	cfg := g.cfg
	res := &GPUSimResult{}
	var busyTotal, replyInjectTotal int64
	windowBusy := int64(0)

	total := cfg.Warmup + cfg.Cycles
	for c := 0; c < total; c++ {
		measuring := c >= cfg.Warmup
		if err := g.issue(); err != nil {
			return nil, err
		}
		busyNow, injected, err := g.serviceMCs()
		if err != nil {
			return nil, err
		}
		if measuring {
			busyTotal += int64(busyNow)
			replyInjectTotal += injected
			windowBusy += int64(busyNow)
			if (c-cfg.Warmup+1)%cfg.UtilWindow == 0 {
				res.UtilSeries = append(res.UtilSeries,
					float64(windowBusy)/float64(cfg.UtilWindow*len(g.mcs)))
				windowBusy = 0
			}
		}
		g.reqNet.Step()
		g.repNet.Step()
	}

	for _, n := range g.mcs {
		res.RequestsServed += g.mcStates[n].served
	}
	if cfg.Obs.Enabled() {
		// Final per-MC state, one gauge each (construction cost only
		// paid when observed).
		for _, n := range g.mcs {
			st := g.mcStates[n]
			g.mcObs.Gauge(fmt.Sprintf("n%03d/final_queue_depth", st.node)).Set(int64(st.queue.len()))
			g.mcObs.Gauge(fmt.Sprintf("n%03d/served", st.node)).Set(st.served)
		}
	}
	denom := float64(cfg.Cycles * len(g.mcs))
	res.MemUtilization = float64(busyTotal) / denom
	res.ReplyInterfaceUtilization = float64(replyInjectTotal) * float64(cfg.ReplyFlits) / denom
	return res, nil
}

// RunGPUSim executes the request/reply simulation.
func RunGPUSim(cfg GPUSimConfig) (*GPUSimResult, error) {
	g, err := newGPUSim(cfg)
	if err != nil {
		return nil, err
	}
	return g.run()
}

// sinkFunc adapts a function to the Sink interface.
type sinkFunc func(p Packet, lastFlit bool, cycle int64) bool

func (f sinkFunc) Accept(p Packet, lastFlit bool, cycle int64) bool { return f(p, lastFlit, cycle) }
