// Package noc is a from-scratch flit-level, cycle-driven network-on-chip
// simulator in the spirit of the tools the paper's Section VI uses for its
// simulation studies: a 2-D mesh with dimension-ordered (XY) wormhole
// routing, credit-based flow control, and either round-robin or globally
// fair age-based output arbitration. On top of the mesh it builds the
// many-to-few-to-many GPU traffic pattern with a request network, memory
// controllers, and a reply network, reproducing the reply-interface
// bottleneck of Fig. 21 and the bandwidth unfairness of Fig. 23.
package noc

import (
	"fmt"
	"slices"

	"gpunoc/internal/obs"
)

// Arbiter selects among competing packets at a router output.
type Arbiter int

const (
	// RoundRobin rotates priority locally per output port; it is cheap
	// but globally unfair in a multi-hop mesh (Fig. 23a).
	RoundRobin Arbiter = iota
	// AgeBased grants the output to the oldest packet, providing global
	// fairness at the cost of carrying and comparing ages (Fig. 23b).
	// Exact age ties break to the lowest packet ID (the earliest
	// injection), so the winner never depends on the order the arbiter
	// happens to scan input ports or clusters.
	AgeBased
)

// String names the arbiter.
func (a Arbiter) String() string {
	switch a {
	case RoundRobin:
		return "round-robin"
	case AgeBased:
		return "age-based"
	}
	return fmt.Sprintf("arbiter(%d)", int(a))
}

// MeshConfig configures the simulator.
type MeshConfig struct {
	Width, Height int
	// BufferFlits is the per-input-port FIFO depth.
	BufferFlits int
	// Arbiter picks the output arbitration policy.
	Arbiter Arbiter
}

// Validate checks the configuration.
func (c MeshConfig) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("noc: mesh %dx%d invalid", c.Width, c.Height)
	}
	if c.BufferFlits <= 0 {
		return fmt.Errorf("noc: buffer depth %d invalid", c.BufferFlits)
	}
	if c.Arbiter != RoundRobin && c.Arbiter != AgeBased {
		return fmt.Errorf("noc: unknown arbiter %d", int(c.Arbiter))
	}
	return nil
}

// Packet is a multi-flit message. It holds no pointers, so the
// garbage collector never scans packets. Inject returns it and sinks
// receive it by value: the network's copy lives in a recycled table
// slot, so a kept *Packet would silently change under its holder.
type Packet struct {
	ID        uint64
	Src, Dst  int
	Flits     int
	CreatedAt int64
}

// packetTable holds the packets in flight in one network. Inject takes
// a slot from the free list, or appends one when every slot holds a
// live packet, and delivering the tail flit releases it; the table
// therefore never grows past the peak number of packets in flight.
// A *Packet into pkts goes stale when its slot is reused or the table
// grows, so none is kept past the Step that took it.
type packetTable struct {
	pkts []Packet
	free ring[int32]
}

func (t *packetTable) add(p Packet) int32 {
	if !t.free.empty() {
		slot := t.free.pop()
		t.pkts[slot] = p
		return slot
	}
	// Double when full: ReplayTrace fills the table a whole timestep at
	// a time, and append's 1.25x growth for large slices would
	// reallocate it many times on the way up.
	if len(t.pkts) == cap(t.pkts) {
		//lint:ignore hotpathalloc doubling runs only until the table holds the peak number of packets in flight; slots are recycled after that (TestPacketTableBoundedByPeakInFlight)
		t.pkts = slices.Grow(t.pkts, len(t.pkts))
	}
	//lint:ignore hotpathalloc the table grows only to the peak number of packets in flight, then recycles slots (TestStepSteadyStateDoesNotAllocate, TestPacketTableBoundedByPeakInFlight)
	t.pkts = append(t.pkts, p)
	return int32(len(t.pkts) - 1)
}

func (t *packetTable) release(slot int32) { t.free.push(slot) }

// flit is one flow-control unit of a packet in the network: its
// packet's table slot and destination, so routing never loads the
// packet, and no pointer for the collector to scan.
type flit struct {
	slot       int32
	dst        int32
	head, tail bool // first and last flit of the packet
}

// Port indices of a router.
const (
	portLocal = iota
	portNorth
	portEast
	portSouth
	portWest
	numPorts
)

// Sink consumes flits ejected at a node. Accept returns false to refuse
// delivery this cycle (modelling a busy endpoint); the flit then stays in
// the router and backpressure builds, which is exactly the congestion
// mechanism of Sec. VI-A. The packet is a copy: its table slot is
// recycled once the tail flit is delivered.
type Sink interface {
	Accept(p Packet, lastFlit bool, cycle int64) bool
}

// countingSink accepts everything and counts packets; the default.
type countingSink struct{ packets int64 }

func (s *countingSink) Accept(_ Packet, lastFlit bool, _ int64) bool {
	if lastFlit {
		s.packets++
	}
	return true
}

type router struct {
	node int
	// in holds each input port's flits, bounded at BufferFlits.
	in [numPorts]ring[flit]
	// down[out] is the neighbor's input ring that output out feeds; nil
	// for the local port and at mesh edges.
	down [numPorts]*ring[flit]
	// outOwner is the input port currently holding each output via
	// wormhole allocation, or -1.
	outOwner [numPorts]int
}

// Mesh is the simulator instance.
type Mesh struct {
	cfg     MeshConfig
	routers []*router
	// xy[node] is the node's (x, y) coordinate, so route divides nothing.
	xy    [][2]int
	sinks []Sink
	// injectQ holds flits awaiting entry into each node's local input.
	injectQ []ring[flit]
	// arb arbitrates output node*numPorts+out among its input ports.
	arb    arbiter
	pkts   packetTable
	cycle  int64
	nextID uint64

	// AcceptedPackets counts packets delivered per source node.
	AcceptedPackets []int64
	// AcceptedFlits counts flits delivered per destination node.
	AcceptedFlits []int64

	// moves is scratch reused each cycle.
	moves []move

	// obs is the optional instrument set; see Observe. All instruments
	// are nil-safe no-ops while unobserved, so the hooks below cost a
	// nil check and zero allocations in the disabled default (guarded
	// by TestStepSteadyStateDoesNotAllocate and nocbench's
	// BenchmarkMeshStep gate).
	obs meshObs
}

// meshObs gathers the mesh's instruments. buffered tracks the running
// router-FIFO occupancy in flits: injection pushes and ejection pops are
// the only net changes per cycle (internal hops pop and push the same
// flit), so two touch points keep an exact count without walking FIFOs.
type meshObs struct {
	// linkFlits[node*numPorts+out] counts flits forwarded over each
	// inter-router link; nil while unobserved (and for edge/local ports).
	linkFlits   []*obs.Counter
	ejectFlits  *obs.Counter
	ejectPkts   *obs.Counter
	stallSink   *obs.Counter
	stallCredit *obs.Counter
	occupancy   *obs.Histogram
	tracer      *obs.Tracer
	buffered    int64
}

// portNames names router ports for instrument naming.
var portNames = [numPorts]string{"local", "north", "east", "south", "west"}

// Observe attaches the mesh's instruments to a registry scope: per-link
// forwarded-flit counters, ejected flit/packet counters, stall-cause
// counters (sink refusal vs. exhausted downstream credit), a per-cycle
// buffer-occupancy histogram, and per-packet delivery spans on the
// scope's tracer. Call it once before running; Observe(nil) leaves the
// mesh unobserved (the zero-cost default).
func (m *Mesh) Observe(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m.obs.ejectFlits = reg.Counter("eject/flits")
	m.obs.ejectPkts = reg.Counter("eject/packets")
	m.obs.stallSink = reg.Counter("stall/sink")
	m.obs.stallCredit = reg.Counter("stall/credit")
	m.obs.occupancy = reg.Histogram("buffer_occupancy", obs.DepthBounds())
	m.obs.tracer = reg.Tracer()
	m.obs.linkFlits = make([]*obs.Counter, m.Nodes()*numPorts)
	for node := 0; node < m.Nodes(); node++ {
		for out := portNorth; out <= portWest; out++ {
			if m.routers[node].down[out] == nil {
				continue
			}
			m.obs.linkFlits[node*numPorts+out] = reg.Counter(
				fmt.Sprintf("link/n%03d/%s/flits", node, portNames[out]))
		}
	}
}

type move struct {
	from *ring[flit]
	to   *ring[flit] // nil means ejection
	r    *router
	out  int
}

// NewMesh builds a mesh simulator.
func NewMesh(cfg MeshConfig) (*Mesh, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Width * cfg.Height
	m := &Mesh{
		cfg:             cfg,
		routers:         make([]*router, n),
		xy:              make([][2]int, n),
		sinks:           make([]Sink, n),
		injectQ:         make([]ring[flit], n),
		arb:             newArbiter(cfg.Arbiter, n*numPorts),
		AcceptedPackets: make([]int64, n),
		AcceptedFlits:   make([]int64, n),
	}
	for i := range m.routers {
		r := &router{node: i}
		for p := range r.in {
			r.in[p] = newRing[flit](cfg.BufferFlits)
		}
		for p := range r.outOwner {
			r.outOwner[p] = -1
		}
		m.routers[i] = r
		m.sinks[i] = &countingSink{}
		m.xy[i] = [2]int{i % cfg.Width, i / cfg.Width}
	}
	for _, r := range m.routers {
		x, y := m.coord(r.node)
		if y > 0 {
			r.down[portNorth] = &m.routers[m.NodeAt(x, y-1)].in[portSouth]
		}
		if y < cfg.Height-1 {
			r.down[portSouth] = &m.routers[m.NodeAt(x, y+1)].in[portNorth]
		}
		if x < cfg.Width-1 {
			r.down[portEast] = &m.routers[m.NodeAt(x+1, y)].in[portWest]
		}
		if x > 0 {
			r.down[portWest] = &m.routers[m.NodeAt(x-1, y)].in[portEast]
		}
	}
	return m, nil
}

// Nodes returns the node count.
func (m *Mesh) Nodes() int { return m.cfg.Width * m.cfg.Height }

// Config returns the mesh's configuration (for audit tooling).
func (m *Mesh) Config() MeshConfig { return m.cfg }

// VisitFIFOs calls fn for every router input FIFO with its current
// occupancy and capacity. It is an audit tap for invariant checkers
// (internal/simcheck) and is not called on the simulation hot path.
func (m *Mesh) VisitFIFOs(fn func(node, port, occupancy, capacity int)) {
	for node, r := range m.routers {
		for p := 0; p < numPorts; p++ {
			fn(node, p, r.in[p].len(), m.cfg.BufferFlits)
		}
	}
}

// Cycle returns the current simulation cycle.
func (m *Mesh) Cycle() int64 { return m.cycle }

// SetSink installs a custom ejection sink at a node.
func (m *Mesh) SetSink(node int, s Sink) {
	m.sinks[node] = s
}

// coord maps a node index to mesh coordinates.
func (m *Mesh) coord(node int) (x, y int) {
	c := m.xy[node]
	return c[0], c[1]
}

// NodeAt maps coordinates to a node index.
func (m *Mesh) NodeAt(x, y int) int { return y*m.cfg.Width + x }

// route returns the output port a packet takes at node toward dst using
// dimension-ordered (X then Y) routing.
func (m *Mesh) route(node, dst int) int {
	x, y := m.coord(node)
	dx, dy := m.coord(dst)
	switch {
	case dx > x:
		return portEast
	case dx < x:
		return portWest
	case dy > y:
		return portSouth
	case dy < y:
		return portNorth
	default:
		return portLocal
	}
}

// Inject queues a packet for injection at its source node. It returns a
// copy of the packet for convenience.
func (m *Mesh) Inject(src, dst, flits int) (Packet, error) {
	n := m.Nodes()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return Packet{}, fmt.Errorf("noc: inject %d->%d outside %d-node mesh", src, dst, n)
	}
	if flits <= 0 {
		return Packet{}, fmt.Errorf("noc: packet needs at least one flit")
	}
	m.nextID++
	p := Packet{ID: m.nextID, Src: src, Dst: dst, Flits: flits, CreatedAt: m.cycle}
	slot := m.pkts.add(p)
	for s := 0; s < flits; s++ {
		m.injectQ[src].push(flit{slot: slot, dst: int32(dst), head: s == 0, tail: s == flits-1})
	}
	return p, nil
}

// PendingInjection returns the number of flits queued for injection at a
// node (source-queue occupancy).
func (m *Mesh) PendingInjection(node int) int { return m.injectQ[node].len() }

// Step advances the simulation by one cycle: output arbitration and flit
// movement across every router, then source-queue injection.
func (m *Mesh) Step() {
	m.moves = m.moves[:0]

	// Phase 1: decide moves using pre-cycle state.
	for _, r := range m.routers {
		// heads[in] is input in's packet head, if it holds one, and bit
		// in of want[out] is set when that head routes to out: one route
		// per input serves every output's arbitration. A router with
		// five empty inputs has nothing to move.
		var heads [numPorts]*Packet
		var want [numPorts]uint64
		occupied := false
		for in := range r.in {
			q := &r.in[in]
			if q.empty() {
				continue
			}
			occupied = true
			if f := q.peek(); f.head {
				heads[in] = &m.pkts.pkts[f.slot]
				want[m.route(r.node, int(f.dst))] |= 1 << in
			}
		}
		if !occupied {
			continue
		}
		for out := 0; out < numPorts; out++ {
			// An owned output only accepts the owner's next flit, in
			// order; a free one goes to the arbitrated packet head, and
			// one no head targets is skipped.
			in := r.outOwner[out]
			owned := in >= 0
			if !owned {
				if want[out] == 0 {
					continue
				}
				in = m.arb.pick(r.node*numPorts+out, want[out], heads[:])
			}
			if r.in[in].empty() {
				continue
			}
			var to *ring[flit] // nil means ejection
			if out == portLocal {
				f := r.in[in].peek()
				if !m.sinks[r.node].Accept(m.pkts.pkts[f.slot], f.tail, m.cycle) {
					m.obs.stallSink.Inc()
					continue
				}
			} else {
				if to = r.down[out]; to == nil {
					continue
				}
				if to.full() {
					m.obs.stallCredit.Inc()
					continue
				}
			}
			if !owned {
				// Wormhole ownership and round-robin priority move only
				// on a served grant, never on a refused pick.
				r.outOwner[out] = in
				m.arb.commit(r.node*numPorts+out, in)
			}
			m.moves = append(m.moves, move{from: &r.in[in], to: to, r: r, out: out})
		}
	}

	// Phase 2: apply moves. Each input ring has one upstream link, which
	// moves at most one flit a cycle into a ring phase 1 saw not full, so
	// pushing right after the pop can neither overflow the ring nor
	// change what a later move pops.
	for _, mv := range m.moves {
		f := mv.from.pop()
		if mv.to == nil {
			m.AcceptedFlits[mv.r.node]++
			m.obs.ejectFlits.Inc()
			m.obs.buffered--
			if f.tail {
				p := &m.pkts.pkts[f.slot]
				m.AcceptedPackets[p.Src]++
				m.obs.ejectPkts.Inc()
				m.obs.tracer.Span("noc", "pkt",
					p.CreatedAt, m.cycle-p.CreatedAt, int64(p.Src), int64(p.ID))
				m.pkts.release(f.slot)
			}
		} else {
			mv.to.push(f)
			if m.obs.linkFlits != nil {
				m.obs.linkFlits[mv.r.node*numPorts+mv.out].Inc()
			}
		}
		if f.tail {
			mv.r.outOwner[mv.out] = -1
		}
	}

	// Phase 3: source-queue injection into the local input port.
	for node := range m.injectQ {
		q := &m.injectQ[node]
		if q.empty() {
			continue
		}
		in := &m.routers[node].in[portLocal]
		if in.full() {
			continue
		}
		in.push(q.pop())
		m.obs.buffered++
	}
	m.obs.occupancy.Observe(m.obs.buffered)
	m.cycle++
}

// Run advances the simulation by n cycles.
func (m *Mesh) Run(n int) {
	for i := 0; i < n; i++ {
		m.Step()
	}
}

// Drained reports whether the network and all source queues are empty.
func (m *Mesh) Drained() bool {
	for node, r := range m.routers {
		if !m.injectQ[node].empty() {
			return false
		}
		for p := range r.in {
			if !r.in[p].empty() {
				return false
			}
		}
	}
	return true
}
