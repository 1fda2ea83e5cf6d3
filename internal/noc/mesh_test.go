package noc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestMesh(t *testing.T, arb Arbiter) *Mesh {
	t.Helper()
	m, err := NewMesh(MeshConfig{Width: 4, Height: 4, BufferFlits: 4, Arbiter: arb})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMeshConfigValidate(t *testing.T) {
	bad := []MeshConfig{
		{Width: 0, Height: 4, BufferFlits: 4},
		{Width: 4, Height: -1, BufferFlits: 4},
		{Width: 4, Height: 4, BufferFlits: 0},
		{Width: 4, Height: 4, BufferFlits: 4, Arbiter: Arbiter(9)},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
	if _, err := NewMesh(bad[0]); err == nil {
		t.Error("NewMesh should reject invalid configs")
	}
}

func TestArbiterString(t *testing.T) {
	if RoundRobin.String() != "round-robin" || AgeBased.String() != "age-based" {
		t.Error("arbiter names wrong")
	}
	if Arbiter(7).String() == "" {
		t.Error("unknown arbiter should still render")
	}
}

func TestXYRouting(t *testing.T) {
	m := newTestMesh(t, RoundRobin)
	// From node (1,1)=5: east to (3,1)=7, west to (0,1)=4, south to
	// (1,3)=13, north to (1,0)=1, local to itself.
	cases := []struct {
		dst, want int
	}{
		{7, portEast}, {4, portWest}, {13, portSouth}, {1, portNorth}, {5, portLocal},
		// X before Y: (3,3)=15 goes east first.
		{15, portEast},
	}
	for _, c := range cases {
		if got := m.route(5, c.dst); got != c.want {
			t.Errorf("route(5, %d) = %d, want %d", c.dst, got, c.want)
		}
	}
}

func TestNeighborEdges(t *testing.T) {
	m := newTestMesh(t, RoundRobin)
	// Corner (0,0): no north or west neighbor.
	if m.routers[0].down[portNorth] != nil {
		t.Error("node 0 has no north neighbor")
	}
	if m.routers[0].down[portWest] != nil {
		t.Error("node 0 has no west neighbor")
	}
	if got := m.routers[0].down[portEast]; got != &m.routers[1].in[portWest] {
		t.Error("east output of node 0 must feed node 1's west input")
	}
	if got := m.routers[0].down[portSouth]; got != &m.routers[4].in[portNorth] {
		t.Error("south output of node 0 must feed node 4's north input")
	}
}

// refCoord and refNeighbor are the arithmetic coordinate and neighbor
// maps the mesh's per-node tables replaced, kept as their oracle.
func refCoord(width, node int) (x, y int) { return node % width, node / width }

func refNeighbor(cfg MeshConfig, node, out int) (next, inPort int, ok bool) {
	x, y := refCoord(cfg.Width, node)
	switch out {
	case portNorth:
		if y == 0 {
			return 0, 0, false
		}
		return (y-1)*cfg.Width + x, portSouth, true
	case portSouth:
		if y == cfg.Height-1 {
			return 0, 0, false
		}
		return (y+1)*cfg.Width + x, portNorth, true
	case portEast:
		if x == cfg.Width-1 {
			return 0, 0, false
		}
		return y*cfg.Width + x + 1, portWest, true
	case portWest:
		if x == 0 {
			return 0, 0, false
		}
		return y*cfg.Width + x - 1, portEast, true
	}
	return 0, 0, false
}

// TestNodeTablesMatchArithmetic pins NewMesh's coordinate and
// downstream-ring tables to the arithmetic maps on every mesh size in
// simcheck's committed FuzzNoCCase corpus (2-4 x 1-4), two larger
// squares, and single-row and single-column meshes, and checks route
// against XY order on every (node, dst) pair.
func TestNodeTablesMatchArithmetic(t *testing.T) {
	var sizes [][2]int
	for w := 2; w <= 4; w++ {
		for h := 1; h <= 4; h++ {
			sizes = append(sizes, [2]int{w, h})
		}
	}
	sizes = append(sizes, [2]int{6, 6}, [2]int{8, 8}, [2]int{1, 7}, [2]int{7, 1}, [2]int{1, 1})
	for _, wh := range sizes {
		cfg := MeshConfig{Width: wh[0], Height: wh[1], BufferFlits: 2}
		m, err := NewMesh(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for node := 0; node < m.Nodes(); node++ {
			x, y := m.coord(node)
			if rx, ry := refCoord(cfg.Width, node); x != rx || y != ry {
				t.Fatalf("%dx%d node %d: coord (%d,%d), arithmetic (%d,%d)", wh[0], wh[1], node, x, y, rx, ry)
			}
			if got := m.routers[node].down[portLocal]; got != nil {
				t.Fatalf("%dx%d node %d: local port has a downstream ring", wh[0], wh[1], node)
			}
			for out := portNorth; out <= portWest; out++ {
				var want *ring[flit]
				if next, in, ok := refNeighbor(cfg, node, out); ok {
					want = &m.routers[next].in[in]
				}
				if got := m.routers[node].down[out]; got != want {
					t.Fatalf("%dx%d node %d %s: downstream ring differs from arithmetic neighbor", wh[0], wh[1], node, portNames[out])
				}
			}
			for dst := 0; dst < m.Nodes(); dst++ {
				dx, dy := refCoord(cfg.Width, dst)
				want := portLocal
				switch {
				case dx > x:
					want = portEast
				case dx < x:
					want = portWest
				case dy > y:
					want = portSouth
				case dy < y:
					want = portNorth
				}
				if got := m.route(node, dst); got != want {
					t.Fatalf("%dx%d route(%d, %d) = %d, want %d", wh[0], wh[1], node, dst, got, want)
				}
			}
		}
	}
}

func TestInjectValidation(t *testing.T) {
	m := newTestMesh(t, RoundRobin)
	if _, err := m.Inject(-1, 0, 1); err == nil {
		t.Error("bad src should fail")
	}
	if _, err := m.Inject(0, 99, 1); err == nil {
		t.Error("bad dst should fail")
	}
	if _, err := m.Inject(0, 1, 0); err == nil {
		t.Error("zero flits should fail")
	}
}

func TestSinglePacketDelivery(t *testing.T) {
	m := newTestMesh(t, RoundRobin)
	if _, err := m.Inject(0, 15, 3); err != nil {
		t.Fatal(err)
	}
	m.Run(100)
	if !m.Drained() {
		t.Fatal("network should drain")
	}
	if m.AcceptedPackets[0] != 1 {
		t.Errorf("source 0 delivered %d packets, want 1", m.AcceptedPackets[0])
	}
	if m.AcceptedFlits[15] != 3 {
		t.Errorf("node 15 received %d flits, want 3", m.AcceptedFlits[15])
	}
}

func TestDeliveryLatencyMatchesHops(t *testing.T) {
	// A single unimpeded flit advances one hop per cycle after injection.
	m := newTestMesh(t, RoundRobin)
	if _, err := m.Inject(0, 3, 1); err != nil {
		t.Fatal(err)
	}
	cycles := 0
	for m.AcceptedFlits[3] == 0 {
		m.Step()
		cycles++
		if cycles > 50 {
			t.Fatal("packet never arrived")
		}
	}
	// 3 hops east + injection + ejection stages: expect single-digit
	// cycles, certainly under 10.
	if cycles > 10 {
		t.Errorf("unloaded delivery took %d cycles", cycles)
	}
}

func TestLocalDelivery(t *testing.T) {
	m := newTestMesh(t, RoundRobin)
	if _, err := m.Inject(6, 6, 2); err != nil {
		t.Fatal(err)
	}
	m.Run(20)
	if m.AcceptedPackets[6] != 1 {
		t.Error("self-addressed packet should be delivered")
	}
}

func TestWormholeNoInterleaving(t *testing.T) {
	// Two multi-flit packets from different sources to the same sink must
	// arrive with their flits contiguous per packet on the final link.
	m := newTestMesh(t, RoundRobin)
	var order []uint64
	m.SetSink(15, sinkFunc(func(p Packet, lastFlit bool, _ int64) bool {
		order = append(order, p.ID)
		return true
	}))
	if _, err := m.Inject(12, 15, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Inject(3, 15, 4); err != nil {
		t.Fatal(err)
	}
	m.Run(200)
	if len(order) != 8 {
		t.Fatalf("delivered %d flits, want 8", len(order))
	}
	switches := 0
	for i := 1; i < len(order); i++ {
		if order[i] != order[i-1] {
			switches++
		}
	}
	if switches != 1 {
		t.Errorf("flit stream switched packets %d times; wormhole requires exactly 1", switches)
	}
}

func TestBackpressureOnRefusingSink(t *testing.T) {
	m := newTestMesh(t, RoundRobin)
	m.SetSink(1, sinkFunc(func(Packet, bool, int64) bool { return false }))
	if _, err := m.Inject(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	m.Run(50)
	if m.AcceptedFlits[1] != 0 {
		t.Error("refusing sink must not receive flits")
	}
	if m.Drained() {
		t.Error("flit should be stuck in the network")
	}
}

// Property: with random traffic, every injected packet is eventually
// delivered exactly once (flit conservation, no loss, no duplication).
func TestMeshPropertyConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, err := NewMesh(MeshConfig{
			Width: 2 + rng.Intn(4), Height: 2 + rng.Intn(4),
			BufferFlits: 2 + rng.Intn(6),
			Arbiter:     Arbiter(rng.Intn(2)),
		})
		if err != nil {
			return false
		}
		n := m.Nodes()
		injected := 0
		flitsByDst := make([]int64, n)
		for i := 0; i < 30; i++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			flits := 1 + rng.Intn(5)
			if _, err := m.Inject(src, dst, flits); err != nil {
				return false
			}
			injected++
			flitsByDst[dst] += int64(flits)
			if rng.Intn(2) == 0 {
				m.Step()
			}
		}
		m.Run(3000)
		if !m.Drained() {
			return false
		}
		var delivered int64
		for _, c := range m.AcceptedPackets {
			delivered += c
		}
		if delivered != int64(injected) {
			return false
		}
		for node, want := range flitsByDst {
			if m.AcceptedFlits[node] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: heavy random load never deadlocks under XY routing (the
// network drains once injection stops).
func TestMeshPropertyNoDeadlock(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, err := NewMesh(MeshConfig{Width: 4, Height: 4, BufferFlits: 2, Arbiter: Arbiter(rng.Intn(2))})
		if err != nil {
			return false
		}
		for c := 0; c < 300; c++ {
			for n := 0; n < m.Nodes(); n++ {
				if rng.Float64() < 0.4 && m.PendingInjection(n) < 8 {
					if _, err := m.Inject(n, rng.Intn(m.Nodes()), 1+rng.Intn(4)); err != nil {
						return false
					}
				}
			}
			m.Step()
		}
		m.Run(5000)
		return m.Drained()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property: packets between one (src, dst) pair are delivered in
// injection order (XY routing is deterministic and links are FIFOs).
func TestMeshPropertyInOrderDelivery(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, err := NewMesh(MeshConfig{Width: 4, Height: 4, BufferFlits: 3, Arbiter: Arbiter(rng.Intn(2))})
		if err != nil {
			return false
		}
		src, dst := rng.Intn(16), rng.Intn(16)
		var delivered []uint64
		m.SetSink(dst, sinkFunc(func(p Packet, lastFlit bool, _ int64) bool {
			if lastFlit && p.Src == src {
				delivered = append(delivered, p.ID)
			}
			return true
		}))
		// Background traffic plus the observed stream.
		var sent []uint64
		for i := 0; i < 20; i++ {
			p, err := m.Inject(src, dst, 1+rng.Intn(3))
			if err != nil {
				return false
			}
			sent = append(sent, p.ID)
			bgSrc := (src + 1 + rng.Intn(15)) % 16 // background never shares the observed source
			if _, err := m.Inject(bgSrc, rng.Intn(16), 1+rng.Intn(3)); err != nil {
				return false
			}
			if rng.Intn(2) == 0 {
				m.Step()
			}
		}
		m.Run(3000)
		if !m.Drained() || len(delivered) != len(sent) {
			return false
		}
		for i := range sent {
			if delivered[i] != sent[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestAgeBasedEqualAgeTieBreaksToLowestID pins the age-based arbiter's
// tie-break: two packets injected in the same cycle (identical
// CreatedAt) contending for one output must resolve to the lowest
// packet ID, not to whichever input port the arbiter scans first. The
// setup makes the two rules disagree: packet A (ID 1) arrives on the
// west input, packet B (ID 2) on the east input, and the port scan
// visits east (port 2) before west (port 4) — a scan-order arbiter
// would deliver B first.
func TestAgeBasedEqualAgeTieBreaksToLowestID(t *testing.T) {
	m, err := NewMesh(MeshConfig{Width: 3, Height: 1, BufferFlits: 4, Arbiter: AgeBased})
	if err != nil {
		t.Fatal(err)
	}
	var order []uint64
	m.SetSink(1, sinkFunc(func(p Packet, lastFlit bool, _ int64) bool {
		if lastFlit {
			order = append(order, p.ID)
		}
		return true
	}))
	a, err := m.Inject(0, 1, 1) // ID 1, west input of node 1
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Inject(2, 1, 1) // ID 2, east input of node 1
	if err != nil {
		t.Fatal(err)
	}
	if a.CreatedAt != b.CreatedAt {
		t.Fatalf("packets must tie on age: CreatedAt %d vs %d", a.CreatedAt, b.CreatedAt)
	}
	if a.ID >= b.ID {
		t.Fatalf("packet IDs not increasing: %d vs %d", a.ID, b.ID)
	}
	m.Run(20)
	if len(order) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(order))
	}
	if order[0] != a.ID {
		t.Errorf("equal-age tie delivered packet %d first, want lowest ID %d", order[0], a.ID)
	}
}

// TestRoundRobinPointerHoldsOnRefusedGrant pins the arbiter-pointer
// bugfix: the round-robin pointer must advance only on a committed
// grant. The old pickInput advanced it on every pick, including picks
// the sink then refused, so under back-pressure priority rotated past
// inputs that were never served and the eventual winner depended on how
// many cycles the sink stayed busy. Setup: two single-flit packets
// contend for node 1's ejection port while the sink refuses until an
// absolute cycle; whichever packet wins arbitration first must still be
// the first delivered no matter how long the refusal lasts.
func TestRoundRobinPointerHoldsOnRefusedGrant(t *testing.T) {
	winner := make(map[int64]uint64)
	for _, wait := range []int64{3, 4, 5, 6} {
		m, err := NewMesh(MeshConfig{Width: 3, Height: 1, BufferFlits: 4, Arbiter: RoundRobin})
		if err != nil {
			t.Fatal(err)
		}
		var first uint64
		delivered := 0
		m.SetSink(1, sinkFunc(func(p Packet, lastFlit bool, cycle int64) bool {
			if cycle < wait {
				return false
			}
			if lastFlit {
				if first == 0 {
					first = p.ID
				}
				delivered++
			}
			return true
		}))
		if _, err := m.Inject(0, 1, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Inject(2, 1, 1); err != nil {
			t.Fatal(err)
		}
		m.Run(40)
		if delivered != 2 || !m.Drained() {
			t.Fatalf("wait=%d: delivered %d packets, drained=%v", wait, delivered, m.Drained())
		}
		winner[wait] = first
	}
	for _, wait := range []int64{4, 5, 6} {
		if winner[wait] != winner[3] {
			t.Errorf("refusal length changed the arbitration winner: wait=3 delivered %d first, wait=%d delivered %d first",
				winner[3], wait, winner[wait])
		}
	}
}

// TestCreditBalanceUnderSaturatedBackpressure documents the satellite-1
// audit result: when a head flit wins ejection arbitration but the sink
// refuses, the flit stays put and no buffer slot (credit) is leaked or
// double-returned. The simcheck sweep found no violation here; this
// test pins the invariant so a regression cannot land silently. A
// hotspot sink refuses 3 of every 4 cycles under saturating traffic;
// throughout the run every FIFO must respect its capacity, and once the
// sink opens the network must drain with every injected flit delivered
// exactly once.
func TestCreditBalanceUnderSaturatedBackpressure(t *testing.T) {
	m, err := NewMesh(MeshConfig{Width: 4, Height: 4, BufferFlits: 2, Arbiter: RoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	hot := 5
	open := false
	refused := 0
	m.SetSink(hot, sinkFunc(func(p Packet, lastFlit bool, cycle int64) bool {
		if !open && cycle%4 != 0 {
			refused++
			return false
		}
		return true
	}))
	var injectedFlits, injectedPkts int64
	n := m.Nodes()
	for c := 0; c < 600; c++ {
		for src := 0; src < n; src++ {
			if src == hot || m.PendingInjection(src) > 8 {
				continue
			}
			flits := 1 + (src+c)%3
			if _, err := m.Inject(src, hot, flits); err != nil {
				t.Fatal(err)
			}
			injectedFlits += int64(flits)
			injectedPkts++
		}
		m.Step()
		m.VisitFIFOs(func(node, port, occ, cap int) {
			if occ < 0 || occ > cap {
				t.Fatalf("cycle %d: FIFO (node %d, port %d) occupancy %d outside [0, %d]; credit imbalance",
					c, node, port, occ, cap)
			}
		})
	}
	if refused == 0 {
		t.Fatal("sink never refused; the test exercised no back-pressure")
	}
	open = true
	for i := 0; i < 20000 && !m.Drained(); i++ {
		m.Step()
	}
	if !m.Drained() {
		t.Fatal("network failed to drain after the sink opened; flits leaked or wedged")
	}
	var gotFlits, gotPkts int64
	for i := range m.AcceptedFlits {
		gotFlits += m.AcceptedFlits[i]
		gotPkts += m.AcceptedPackets[i]
	}
	if gotFlits != injectedFlits || gotPkts != injectedPkts {
		t.Errorf("delivered %d flits / %d packets, injected %d / %d; conservation broken",
			gotFlits, gotPkts, injectedFlits, injectedPkts)
	}
}

func TestStepSteadyStateDoesNotAllocate(t *testing.T) {
	// Router inputs are rings built at BufferFlits, source queues stop
	// growing at their working size, and the move/push scratch is
	// reused, so a warmed-up Step allocates nothing.
	m, err := NewMesh(MeshConfig{Width: 4, Height: 4, BufferFlits: 4, Arbiter: RoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	// Source queues long enough to keep every router busy throughout the
	// measurement (injection drains at most one flit per node per cycle).
	n := m.Nodes()
	for src := 0; src < n; src++ {
		for k := 0; k < 150; k++ {
			if _, err := m.Inject(src, (src*7+k*3+1)%n, 4); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.Run(100) // warm up: grow the move scratch buffer
	avg := testing.AllocsPerRun(200, func() { m.Step() })
	if avg != 0 {
		t.Errorf("steady-state Step allocates %.1f times per cycle, want 0", avg)
	}
	if m.Drained() {
		t.Fatal("mesh drained mid-measurement; the test no longer exercises steady state")
	}

	// Inject plus Step: a delivered tail returns its packet-table slot
	// and the next Inject reuses it, so once the table and its free list
	// have reached the peak in flight, a steady stream allocates nothing.
	stream := func() {
		for src := 0; src < n; src++ {
			if m.PendingInjection(src) < 8 {
				if _, err := m.Inject(src, (src*7+int(m.Cycle())*3+1)%n, 4); err != nil {
					t.Fatal(err)
				}
			}
		}
		m.Step()
	}
	for c := 0; c < 2000; c++ {
		stream()
	}
	// One measured run of 1000 cycles counts every allocation; a
	// per-cycle average would round a once-per-chunk allocation to 0.
	if total := testing.AllocsPerRun(1, func() {
		for c := 0; c < 1000; c++ {
			stream()
		}
	}); total != 0 {
		t.Errorf("steady-state Inject+Step allocates %.0f times in 1000 cycles, want 0", total)
	}
}
