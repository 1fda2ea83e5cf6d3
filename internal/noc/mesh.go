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

// Packet is a multi-flit message.
type Packet struct {
	ID        uint64
	Src, Dst  int
	Flits     int
	CreatedAt int64
	// Payload carries experiment-specific context (e.g. the request a
	// reply answers).
	Payload any
}

// flit is one flow-control unit of a packet in the network.
type flit struct {
	pkt        *Packet
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
// mechanism of Sec. VI-A.
type Sink interface {
	Accept(f *Packet, lastFlit bool, cycle int64) bool
}

// countingSink accepts everything and counts packets; the default.
type countingSink struct{ packets int64 }

func (s *countingSink) Accept(_ *Packet, lastFlit bool, _ int64) bool {
	if lastFlit {
		s.packets++
	}
	return true
}

type router struct {
	node int
	// in holds each input port's flits, bounded at BufferFlits.
	in [numPorts]ring[flit]
	// outOwner is the input port currently holding each output via
	// wormhole allocation, or -1.
	outOwner [numPorts]int
}

// Mesh is the simulator instance.
type Mesh struct {
	cfg     MeshConfig
	routers []*router
	sinks   []Sink
	// injectQ holds flits awaiting entry into each node's local input.
	injectQ []ring[flit]
	// arb arbitrates output node*numPorts+out among its input ports.
	arb    arbiter
	cycle  int64
	nextID uint64

	// AcceptedPackets counts packets delivered per source node.
	AcceptedPackets []int64
	// AcceptedFlits counts flits delivered per destination node.
	AcceptedFlits []int64

	// move/push scratch buffers reused each cycle.
	moves  []move
	pushes []pendingPush

	// obs is the optional instrument set; see Observe. All instruments
	// are nil-safe no-ops while unobserved, so the hooks below cost a
	// nil check and zero allocations in the disabled default (guarded
	// by TestStepSteadyStateDoesNotAllocate / BenchmarkMeshStep).
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
			if _, _, ok := m.neighbor(node, out); !ok {
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

// pendingPush defers a flit's arrival until all pops of the cycle have
// freed buffer space.
type pendingPush struct {
	to *ring[flit]
	f  flit
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
	return node % m.cfg.Width, node / m.cfg.Width
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

// neighbor returns the node on the other side of an output port and the
// input port the flit arrives on there.
func (m *Mesh) neighbor(node, out int) (next int, inPort int, ok bool) {
	x, y := m.coord(node)
	switch out {
	case portNorth:
		if y == 0 {
			return 0, 0, false
		}
		return m.NodeAt(x, y-1), portSouth, true
	case portSouth:
		if y == m.cfg.Height-1 {
			return 0, 0, false
		}
		return m.NodeAt(x, y+1), portNorth, true
	case portEast:
		if x == m.cfg.Width-1 {
			return 0, 0, false
		}
		return m.NodeAt(x+1, y), portWest, true
	case portWest:
		if x == 0 {
			return 0, 0, false
		}
		return m.NodeAt(x-1, y), portEast, true
	}
	return 0, 0, false
}

// Inject queues a packet for injection at its source node. It returns the
// packet for convenience.
func (m *Mesh) Inject(src, dst, flits int, payload any) (*Packet, error) {
	n := m.Nodes()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return nil, fmt.Errorf("noc: inject %d->%d outside %d-node mesh", src, dst, n)
	}
	if flits <= 0 {
		return nil, fmt.Errorf("noc: packet needs at least one flit")
	}
	m.nextID++
	p := &Packet{ID: m.nextID, Src: src, Dst: dst, Flits: flits, CreatedAt: m.cycle, Payload: payload}
	for s := 0; s < flits; s++ {
		m.injectQ[src].push(flit{pkt: p, head: s == 0, tail: s == flits-1})
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
		// heads[out][in] is the head flit's packet when input in holds a
		// packet head routed to out: one route per input serves every
		// output's arbitration.
		var heads [numPorts][numPorts]*Packet
		for in := range r.in {
			if q := &r.in[in]; !q.empty() && q.peek().head {
				pkt := q.peek().pkt
				heads[m.route(r.node, pkt.Dst)][in] = pkt
			}
		}
		for out := 0; out < numPorts; out++ {
			// An owned output only accepts the owner's next flit, in
			// order; a free one goes to the arbitrated packet head.
			in := r.outOwner[out]
			owned := in >= 0
			if !owned {
				in = m.arb.pick(r.node*numPorts+out, heads[out][:])
			}
			if in < 0 || r.in[in].empty() {
				continue
			}
			var to *ring[flit] // nil means ejection
			if out == portLocal {
				f := r.in[in].peek()
				if !m.sinks[r.node].Accept(f.pkt, f.tail, m.cycle) {
					m.obs.stallSink.Inc()
					continue
				}
			} else {
				next, inPort, ok := m.neighbor(r.node, out)
				if !ok {
					continue
				}
				to = &m.routers[next].in[inPort]
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

	// Phase 2: apply moves (pops before pushes keep capacity sound).
	m.pushes = m.pushes[:0]
	for _, mv := range m.moves {
		f := mv.from.pop()
		if mv.to == nil {
			m.AcceptedFlits[mv.r.node]++
			m.obs.ejectFlits.Inc()
			m.obs.buffered--
			if f.tail {
				m.AcceptedPackets[f.pkt.Src]++
				m.obs.ejectPkts.Inc()
				m.obs.tracer.Span("noc", "pkt",
					f.pkt.CreatedAt, m.cycle-f.pkt.CreatedAt, int64(f.pkt.Src), int64(f.pkt.ID))
			}
		} else {
			m.pushes = append(m.pushes, pendingPush{to: mv.to, f: f})
			if m.obs.linkFlits != nil {
				m.obs.linkFlits[mv.r.node*numPorts+mv.out].Inc()
			}
		}
		if f.tail {
			mv.r.outOwner[mv.out] = -1
		}
	}
	for _, p := range m.pushes {
		p.to.push(p.f)
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
