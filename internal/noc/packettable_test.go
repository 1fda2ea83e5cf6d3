package noc

import (
	"math/rand"
	"reflect"
	"testing"
)

// peakProbe wraps a network and, before every Step, samples the packets
// in flight: injected (the network's ID counter) minus delivered (its
// per-source delivery counts). Injections only happen between Steps and
// deliveries only inside one, so the largest sample is the run's peak.
type peakProbe struct {
	network
	nextID    *uint64
	delivered []int64
	peak      int
}

func (p *peakProbe) Step() {
	inFlight := int(*p.nextID)
	for _, d := range p.delivered {
		inFlight -= int(d)
	}
	p.peak = max(p.peak, inFlight)
	p.network.Step()
}

// checkTableBound requires a table that recycled its slots: no larger
// than the peak number of packets in flight, and far smaller than the
// number of packets the run pushed through it.
func checkTableBound(t *testing.T, name string, tab *packetTable, injected uint64, peak int) {
	t.Helper()
	size := len(tab.pkts)
	if size == 0 || size > peak {
		t.Errorf("%s: packet table holds %d slots, peak in flight was %d", name, size, peak)
	}
	if injected < 10*uint64(size) {
		t.Errorf("%s: only %d packets through a %d-slot table; the run is not saturated", name, injected, size)
	}
	t.Logf("%s: %d packets through %d slots (peak in flight %d)", name, injected, size, peak)
}

// A saturated run keeps the packet table at the peak number of packets
// in flight: every delivered tail returns its slot, and Inject reuses a
// free slot before it grows the table. The mesh and crossbar runs are
// RunFairness's and RunXbarFairness's own offerLoad drive behind a
// probe, and are checked against those functions' results; the
// request/reply run steps a newGPUSim as gpuSim.run does and is checked
// against RunGPUSim.
func TestPacketTableBoundedByPeakInFlight(t *testing.T) {
	t.Run("fairness", func(t *testing.T) {
		cfg := DefaultFairnessConfig(RoundRobin, 3)
		cfg.PacketFlits, cfg.InjectRate, cfg.Warmup, cfg.Cycles = 3, 0.5, 500, 4000
		want, err := RunFairness(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMesh(cfg.Mesh)
		if err != nil {
			t.Fatal(err)
		}
		mcs, compute, err := m.placeMCs(nil)
		if err != nil {
			t.Fatal(err)
		}
		probe := &peakProbe{network: m, nextID: &m.nextID, delivered: m.AcceptedPackets}
		base := offerLoad(probe, compute, mcs, cfg.PacketFlits, cfg.InjectRate, cfg.Warmup, cfg.Cycles, cfg.Seed, m.AcceptedPackets)
		got := &FairnessResult{ComputeNodes: compute}
		got.fold(m.AcceptedPackets, base, cfg.Cycles)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("probed run diverged from RunFairness: %+v vs %+v", got, want)
		}
		checkTableBound(t, "mesh", &m.pkts, m.nextID, probe.peak)
	})
	t.Run("xbar_fairness", func(t *testing.T) {
		cfg := DefaultXbarFairnessConfig(AgeBased, 3)
		cfg.PacketFlits, cfg.InjectRate, cfg.Warmup, cfg.Cycles = 3, 0.5, 500, 4000
		want, err := RunXbarFairness(cfg)
		if err != nil {
			t.Fatal(err)
		}
		x, err := NewXbar(cfg.Xbar)
		if err != nil {
			t.Fatal(err)
		}
		nodes := make([]int, x.Nodes())
		for i := range nodes {
			nodes[i] = i
		}
		ports := make([]int, cfg.Xbar.MemPorts)
		for i := range ports {
			ports[i] = i
		}
		probe := &peakProbe{network: x, nextID: &x.nextID, delivered: x.AcceptedPackets}
		base := offerLoad(probe, nodes, ports, cfg.PacketFlits, cfg.InjectRate, cfg.Warmup, cfg.Cycles, cfg.Seed, x.AcceptedPackets)
		got := &FairnessResult{ComputeNodes: nodes}
		got.fold(x.AcceptedPackets, base, cfg.Cycles)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("probed run diverged from RunXbarFairness: %+v vs %+v", got, want)
		}
		checkTableBound(t, "xbar", &x.pkts, x.nextID, probe.peak)
	})
	t.Run("gpusim", func(t *testing.T) {
		cfg := DefaultGPUSimConfig(3)
		cfg.RequestFlits, cfg.Warmup, cfg.Cycles = 2, 500, 4000
		want, err := RunGPUSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g, err := newGPUSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		req := &peakProbe{network: g.reqNet, nextID: &g.reqNet.nextID, delivered: g.reqNet.AcceptedPackets}
		rep := &peakProbe{network: g.repNet, nextID: &g.repNet.nextID, delivered: g.repNet.AcceptedPackets}
		for c := 0; c < cfg.Warmup+cfg.Cycles; c++ {
			if err := g.issue(); err != nil {
				t.Fatal(err)
			}
			if _, _, err := g.serviceMCs(); err != nil {
				t.Fatal(err)
			}
			req.Step()
			rep.Step()
		}
		var served int64
		for _, n := range g.mcs {
			served += g.mcStates[n].served
		}
		if served != want.RequestsServed {
			t.Fatalf("probed run served %d requests, RunGPUSim %d", served, want.RequestsServed)
		}
		checkTableBound(t, "request mesh", &g.reqNet.pkts, g.reqNet.nextID, req.peak)
		checkTableBound(t, "reply mesh", &g.repNet.pkts, g.repNet.nextID, rep.peak)
	})
}

// injectLog is a test's own record of what each Inject returned,
// indexed by packet ID - 1 (IDs count up from 1 per network).
type injectLog []Packet

// recorder returns a function that logs one Inject's results.
func (l *injectLog) recorder(t *testing.T) func(Packet, error) {
	return func(p Packet, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if p.ID != uint64(len(*l)+1) {
			t.Fatalf("Inject returned ID %d, want %d", p.ID, len(*l)+1)
		}
		*l = append(*l, p)
	}
}

// logged reports whether p is exactly what its Inject returned.
func (l injectLog) logged(p Packet) bool {
	return p.ID > 0 && p.ID <= uint64(len(l)) && p == l[p.ID-1]
}

// Recycled table slots never leak one packet's fields into another's
// delivery. A seeded stream of multi-flit packets, at least 100 times
// the table's size, runs through a mesh under each arbiter and a
// refusing sink that holds flits (and their slots) in place; every
// Accept must see exactly the packet its Inject returned, flit by flit
// in order, at its destination, and every packet must arrive once.
func TestSlotReuseDeliversInjectedPacket(t *testing.T) {
	for _, arb := range []Arbiter{RoundRobin, AgeBased} {
		t.Run(arb.String(), func(t *testing.T) {
			m, err := NewMesh(MeshConfig{Width: 4, Height: 4, BufferFlits: 3, Arbiter: arb})
			if err != nil {
				t.Fatal(err)
			}
			var log injectLog
			record := log.recorder(t)
			var got []int // flits accepted, by packet ID - 1
			for node := 0; node < m.Nodes(); node++ {
				m.SetSink(node, sinkFunc(func(p Packet, lastFlit bool, cycle int64) bool {
					if !log.logged(p) {
						t.Fatalf("cycle %d node %d: Accept saw %+v, not what Inject returned", cycle, node, p)
					}
					if (cycle+int64(node))%5 == 0 {
						return false
					}
					for len(got) < len(log) {
						got = append(got, 0)
					}
					got[p.ID-1]++
					if p.Dst != node || lastFlit != (got[p.ID-1] == p.Flits) {
						t.Fatalf("cycle %d node %d: flit %d (last %v) of %+v", cycle, node, got[p.ID-1], lastFlit, p)
					}
					return true
				}))
			}
			rng := rand.New(rand.NewSource(int64(17 + arb)))
			n := m.Nodes()
			for len(log) < 2000 || len(log) < 100*len(m.pkts.pkts) {
				for src := 0; src < n; src++ {
					if rng.Intn(3) == 0 && m.PendingInjection(src) < 8 {
						record(m.Inject(src, rng.Intn(n), 2+rng.Intn(4)))
					}
				}
				m.Step()
			}
			for c := 0; !m.Drained(); c++ {
				if c > 10000 {
					t.Fatal("mesh did not drain")
				}
				m.Step()
			}
			for i, p := range log {
				if got[i] != p.Flits {
					t.Fatalf("packet %+v: %d of %d flits accepted", p, got[i], p.Flits)
				}
			}
			t.Logf("%d packets through %d slots", len(log), len(m.pkts.pkts))
		})
	}
}

// The crossbar has no sink: ports drain VOQs straight into counters.
// So the oracle walks every queue after every Step instead. Each flit's
// slot must hold a logged packet exactly as Inject returned it, the
// flit must sit where that packet belongs (its source's queue, or the
// VOQ of its source's cluster and its destination port), and a queue
// must hold each source's flits in packet order, head to tail. Hubs
// forward flit by flit, so sources interleave within a VOQ.
func TestXbarSlotReuseKeepsPacketsIntact(t *testing.T) {
	for _, arb := range []Arbiter{RoundRobin, AgeBased} {
		t.Run(arb.String(), func(t *testing.T) {
			cfg := DefaultXbarFairnessConfig(arb, 1).Xbar
			x, err := NewXbar(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var log injectLog
			record := log.recorder(t)
			// cur[src] is the packet whose flits a queue walk is in; left
			// counts its flits still to come, -1 when unknown.
			cur := make([]Packet, x.Nodes())
			left := make([]int, x.Nodes())
			check := func(q *ring[flit], src, cluster, port int) {
				clear(cur)
				clear(left)
				for i := 0; i < q.len(); i++ {
					f := q.buf[(q.head+i)%len(q.buf)]
					p := x.pkts.pkts[f.slot]
					if !log.logged(p) || int(f.dst) != p.Dst {
						t.Fatalf("cycle %d: flit %+v maps to %+v, not its logged packet", x.Cycle(), f, p)
					}
					if (src >= 0 && p.Src != src) || (cluster >= 0 && (x.ClusterOf(p.Src) != cluster || p.Dst != port)) {
						t.Fatalf("cycle %d: packet %+v queued at node %d / cluster %d port %d", x.Cycle(), p, src, cluster, port)
					}
					s := p.Src
					switch {
					case f.head:
						if cur[s].ID != 0 && left[s] != 0 {
							t.Fatalf("cycle %d: %+v starts before %+v ends", x.Cycle(), p, cur[s])
						}
						cur[s], left[s] = p, p.Flits
					case cur[s].ID == 0:
						cur[s], left[s] = p, -1 // its earlier flits already left
					case p != cur[s] || left[s] == 0:
						t.Fatalf("cycle %d: body flit of %+v follows %+v", x.Cycle(), p, cur[s])
					}
					if left[s] > 0 {
						left[s]--
					}
					if f.tail {
						if left[s] > 0 {
							t.Fatalf("cycle %d: tail of %+v with %d flits to come", x.Cycle(), p, left[s])
						}
						left[s] = 0
					} else if left[s] == 0 {
						t.Fatalf("cycle %d: %+v runs past its %d flits", x.Cycle(), p, p.Flits)
					}
				}
			}
			step := func() {
				x.Step()
				for node := range x.injectQ {
					check(&x.injectQ[node], node, -1, 0)
				}
				for c := range x.voq {
					for port := range x.voq[c] {
						check(&x.voq[c][port], -1, c, port)
					}
				}
			}
			rng := rand.New(rand.NewSource(int64(29 + arb)))
			n := x.Nodes()
			for len(log) < 2000 || len(log) < 100*len(x.pkts.pkts) {
				for node := 0; node < n; node++ {
					if rng.Intn(4) == 0 && x.PendingInjection(node) < 8 {
						record(x.Inject(node, rng.Intn(cfg.MemPorts), 2+rng.Intn(4)))
					}
				}
				step()
			}
			for c := 0; !x.Drained(); c++ {
				if c > 10000 {
					t.Fatal("crossbar did not drain")
				}
				step()
			}
			var delivered int64
			for _, d := range x.AcceptedPackets {
				delivered += d
			}
			if delivered != int64(len(log)) {
				t.Fatalf("delivered %d of %d packets", delivered, len(log))
			}
			t.Logf("%d packets through %d slots", len(log), len(x.pkts.pkts))
		})
	}
}
