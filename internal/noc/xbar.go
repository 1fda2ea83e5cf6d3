package noc

import (
	"fmt"

	"gpunoc/internal/obs"
)

// XbarConfig describes a two-level hierarchical crossbar, the organization
// the paper identifies in real GPUs and in recent simulator baselines
// (Sec. VI-C): compute nodes feed per-cluster hubs (with configurable
// input speedup), hubs feed a single-hop central crossbar whose outputs
// are the memory ports. Unlike a multi-hop mesh, every source is one
// arbitration away from every destination, so locally fair arbitration is
// globally fair and uniform bandwidth comes for free (Implication #6).
type XbarConfig struct {
	// Clusters and NodesPerCluster define the compute side (a cluster
	// models a GPC).
	Clusters        int
	NodesPerCluster int
	// MemPorts is the number of crossbar outputs (memory partitions).
	MemPorts int
	// HubCapacity is how many flits one cluster hub forwards per cycle -
	// the input speedup of Fig. 11.
	HubCapacity int
	// PortCapacity is how many flits one memory port accepts per cycle.
	PortCapacity int
	// VOQDepth bounds each hub's per-destination virtual output queue.
	VOQDepth int
	// Arbiter picks how each memory port chooses among hubs.
	Arbiter Arbiter
}

// maxClusters is the widest crossbar: each memory port arbitrates over
// a 64-bit mask with one bit per cluster hub.
const maxClusters = 64

// Validate checks the configuration.
func (c XbarConfig) Validate() error {
	switch {
	case c.Clusters <= 0 || c.NodesPerCluster <= 0:
		return fmt.Errorf("noc: xbar needs positive cluster geometry")
	case c.Clusters > maxClusters:
		return fmt.Errorf("noc: xbar has %d clusters, at most %d supported", c.Clusters, maxClusters)
	case c.MemPorts <= 0:
		return fmt.Errorf("noc: xbar needs memory ports")
	case c.HubCapacity <= 0 || c.PortCapacity <= 0:
		return fmt.Errorf("noc: xbar needs positive capacities")
	case c.VOQDepth <= 0:
		return fmt.Errorf("noc: xbar needs positive VOQ depth")
	case c.Arbiter != RoundRobin && c.Arbiter != AgeBased:
		return fmt.Errorf("noc: unknown arbiter %d", int(c.Arbiter))
	}
	return nil
}

// Xbar is the cycle-driven hierarchical crossbar simulator.
type Xbar struct {
	cfg XbarConfig
	// injectQ[node] holds flits awaiting the node's hub link.
	injectQ []ring[flit]
	// voq[cluster][port] is the hub's virtual output queue, bounded at
	// VOQDepth.
	voq [][]ring[flit]
	// rrNode[cluster] is the hub's round-robin pointer over its nodes.
	rrNode []int
	// arb arbitrates each memory port among the cluster hubs.
	arb    arbiter
	pkts   packetTable
	cycle  int64
	nextID uint64

	// AcceptedPackets counts delivered packets per source node.
	AcceptedPackets []int64
	// AcceptedFlits counts flits delivered per memory port.
	AcceptedFlits []int64

	// obs is the optional instrument set; see Observe. All instruments
	// are nil-safe no-ops while unobserved, so the hooks in Step cost a
	// nil check and zero allocations in the disabled default (guarded
	// by TestXbarStepSteadyStateDoesNotAllocate and nocbench's
	// BenchmarkXbarStep gate).
	obs xbarObs
}

// xbarObs gathers the crossbar's instruments. voqFlits tracks the
// running total VOQ occupancy: hub pulls and port drains are its only
// net changes per cycle.
type xbarObs struct {
	// portGrants[port] counts flits each memory port granted.
	portGrants []*obs.Counter
	// hubForwards[cluster] counts flits each hub pulled into its VOQs.
	hubForwards []*obs.Counter
	stallVOQ    *obs.Counter
	voqDepth    *obs.Histogram
	tracer      *obs.Tracer
	voqFlits    int64
}

// Observe attaches the crossbar's instruments to a registry scope:
// per-port grant counters, per-hub forward counters, a VOQ-full stall
// counter, a per-cycle total-VOQ-occupancy histogram, and per-packet
// delivery spans on the scope's tracer. Call it once before running;
// Observe(nil) leaves the crossbar unobserved (the zero-cost default).
func (x *Xbar) Observe(reg *obs.Registry) {
	if reg == nil {
		return
	}
	x.obs.stallVOQ = reg.Counter("stall/voq_full")
	x.obs.voqDepth = reg.Histogram("voq_occupancy", obs.DepthBounds())
	x.obs.tracer = reg.Tracer()
	x.obs.portGrants = make([]*obs.Counter, x.cfg.MemPorts)
	for p := range x.obs.portGrants {
		x.obs.portGrants[p] = reg.Counter(fmt.Sprintf("port/p%02d/grants", p))
	}
	x.obs.hubForwards = make([]*obs.Counter, x.cfg.Clusters)
	for c := range x.obs.hubForwards {
		x.obs.hubForwards[c] = reg.Counter(fmt.Sprintf("hub/c%02d/forwards", c))
	}
}

// NewXbar builds a crossbar simulator.
func NewXbar(cfg XbarConfig) (*Xbar, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Clusters * cfg.NodesPerCluster
	x := &Xbar{
		cfg:             cfg,
		injectQ:         make([]ring[flit], n),
		voq:             make([][]ring[flit], cfg.Clusters),
		rrNode:          make([]int, cfg.Clusters),
		arb:             newArbiter(cfg.Arbiter, cfg.MemPorts),
		AcceptedPackets: make([]int64, n),
		AcceptedFlits:   make([]int64, cfg.MemPorts),
	}
	for c := range x.voq {
		x.voq[c] = make([]ring[flit], cfg.MemPorts)
		for p := range x.voq[c] {
			x.voq[c][p] = newRing[flit](cfg.VOQDepth)
		}
	}
	return x, nil
}

// Nodes returns the compute-node count.
func (x *Xbar) Nodes() int { return x.cfg.Clusters * x.cfg.NodesPerCluster }

// Config returns the crossbar's configuration (read-only audit tap; see
// Mesh.Config).
func (x *Xbar) Config() XbarConfig { return x.cfg }

// VisitVOQs calls fn for every hub virtual output queue with its
// current occupancy and depth bound. It is a read-only audit tap for
// per-cycle invariant checks (VOQ occupancy <= VOQDepth; flit
// conservation). Visit order is deterministic: cluster-major, then
// port.
func (x *Xbar) VisitVOQs(fn func(cluster, port, occupancy, depth int)) {
	for c := range x.voq {
		for p := range x.voq[c] {
			fn(c, p, x.voq[c][p].len(), x.cfg.VOQDepth)
		}
	}
}

// ClusterOf returns the cluster hosting a node.
func (x *Xbar) ClusterOf(node int) int { return node / x.cfg.NodesPerCluster }

// Cycle returns the current cycle.
func (x *Xbar) Cycle() int64 { return x.cycle }

// PendingInjection returns the node's source-queue occupancy in flits.
func (x *Xbar) PendingInjection(node int) int { return x.injectQ[node].len() }

// Inject queues a packet from node to memory port. It returns a copy of
// the packet.
func (x *Xbar) Inject(node, port, flits int) (Packet, error) {
	if node < 0 || node >= x.Nodes() {
		return Packet{}, fmt.Errorf("noc: xbar node %d out of range", node)
	}
	if port < 0 || port >= x.cfg.MemPorts {
		return Packet{}, fmt.Errorf("noc: xbar port %d out of range", port)
	}
	if flits <= 0 {
		return Packet{}, fmt.Errorf("noc: packet needs at least one flit")
	}
	x.nextID++
	p := Packet{ID: x.nextID, Src: node, Dst: port, Flits: flits, CreatedAt: x.cycle}
	slot := x.pkts.add(p)
	for s := 0; s < flits; s++ {
		x.injectQ[node].push(flit{slot: slot, dst: int32(port), head: s == 0, tail: s == flits-1})
	}
	return p, nil
}

// Step advances one cycle: memory ports drain hub VOQs, then hubs pull
// from their nodes' source queues.
func (x *Xbar) Step() {
	// Phase 1: each memory port accepts up to PortCapacity flits,
	// arbitrating among the cluster hubs' VOQ heads.
	var heads [maxClusters]*Packet
	for port := 0; port < x.cfg.MemPorts; port++ {
		// Bit c of live is set while heads[c] holds a packet.
		var live uint64
		for c := 0; c < x.cfg.Clusters; c++ {
			if heads[c] = x.voqHead(c, port); heads[c] != nil {
				live |= 1 << c
			}
		}
		for grant := 0; grant < x.cfg.PortCapacity; grant++ {
			hub := x.arb.pick(port, live, heads[:])
			if hub < 0 {
				break
			}
			f := x.voq[hub][port].pop()
			if heads[hub] = x.voqHead(hub, port); heads[hub] == nil {
				live &^= 1 << hub
			}
			x.arb.commit(port, hub)
			x.AcceptedFlits[port]++
			x.obs.voqFlits--
			if x.obs.portGrants != nil {
				x.obs.portGrants[port].Inc()
			}
			if f.tail {
				p := &x.pkts.pkts[f.slot]
				x.AcceptedPackets[p.Src]++
				x.obs.tracer.Span("xbar", "pkt",
					p.CreatedAt, x.cycle-p.CreatedAt, int64(p.Src), int64(p.ID))
				x.pkts.release(f.slot)
			}
		}
	}
	// Phase 2: each hub forwards up to HubCapacity flits from its nodes'
	// source queues into the VOQs (round-robin over member nodes).
	for c := 0; c < x.cfg.Clusters; c++ {
		base := c * x.cfg.NodesPerCluster
		for grant := 0; grant < x.cfg.HubCapacity; grant++ {
			moved := false
			for i := 0; i < x.cfg.NodesPerCluster; i++ {
				node := base + (x.rrNode[c]+1+i)%x.cfg.NodesPerCluster
				q := &x.injectQ[node]
				if q.empty() {
					continue
				}
				voq := &x.voq[c][q.peek().dst]
				if voq.full() {
					x.obs.stallVOQ.Inc()
					continue
				}
				voq.push(q.pop())
				x.rrNode[c] = node - base
				x.obs.voqFlits++
				if x.obs.hubForwards != nil {
					x.obs.hubForwards[c].Inc()
				}
				moved = true
				break
			}
			if !moved {
				break
			}
		}
	}
	x.obs.voqDepth.Observe(x.obs.voqFlits)
	x.cycle++
}

// voqHead returns the packet at the head of a hub's VOQ for a port, or
// nil when the VOQ is empty.
func (x *Xbar) voqHead(cluster, port int) *Packet {
	if q := &x.voq[cluster][port]; !q.empty() {
		return &x.pkts.pkts[q.peek().slot]
	}
	return nil
}

// Run advances n cycles.
func (x *Xbar) Run(n int) {
	for i := 0; i < n; i++ {
		x.Step()
	}
}

// Drained reports whether all queues are empty.
func (x *Xbar) Drained() bool {
	for i := range x.injectQ {
		if !x.injectQ[i].empty() {
			return false
		}
	}
	for _, hub := range x.voq {
		for p := range hub {
			if !hub[p].empty() {
				return false
			}
		}
	}
	return true
}

// XbarFairnessConfig mirrors FairnessConfig for the crossbar topology.
type XbarFairnessConfig struct {
	Xbar        XbarConfig
	PacketFlits int
	InjectRate  float64
	Cycles      int
	Warmup      int
	Seed        int64
	// Obs receives the crossbar's instruments; nil runs unobserved.
	Obs *obs.Registry
}

// DefaultXbarFairnessConfig matches the Fig. 23 setup's scale: 30 compute
// nodes in 6 clusters, 6 memory ports, hub input speedup of 2.
func DefaultXbarFairnessConfig(arb Arbiter, seed int64) XbarFairnessConfig {
	return XbarFairnessConfig{
		Xbar: XbarConfig{
			Clusters: 6, NodesPerCluster: 5, MemPorts: 6,
			HubCapacity: 2, PortCapacity: 1, VOQDepth: 8, Arbiter: arb,
		},
		PacketFlits: 1,
		InjectRate:  0.25,
		Warmup:      2000,
		Cycles:      20000,
		Seed:        seed,
	}
}

// RunXbarFairness measures per-source accepted throughput under the same
// offered load as the mesh fairness experiment, demonstrating that the
// hierarchical crossbar delivers uniform bandwidth without age-based
// arbitration machinery.
func RunXbarFairness(cfg XbarFairnessConfig) (*FairnessResult, error) {
	if cfg.PacketFlits <= 0 || cfg.Cycles <= 0 || cfg.InjectRate <= 0 {
		return nil, fmt.Errorf("noc: invalid xbar fairness parameters")
	}
	x, err := NewXbar(cfg.Xbar)
	if err != nil {
		return nil, err
	}
	x.Observe(cfg.Obs)
	nodes := make([]int, x.Nodes())
	for node := range nodes {
		nodes[node] = node
	}
	ports := make([]int, cfg.Xbar.MemPorts)
	for p := range ports {
		ports[p] = p
	}
	base := offerLoad(x, nodes, ports, cfg.PacketFlits, cfg.InjectRate, cfg.Warmup, cfg.Cycles, cfg.Seed, x.AcceptedPackets)
	res := &FairnessResult{ComputeNodes: nodes, MCs: ports}
	res.fold(x.AcceptedPackets, base, cfg.Cycles)
	return res, nil
}
