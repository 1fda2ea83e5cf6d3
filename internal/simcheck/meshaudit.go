package simcheck

import (
	"fmt"
	"sort"
	"strings"

	"gpunoc/internal/noc"
)

// Anomaly kinds noted on the delivery hot path. Each kind keeps a
// count and the first occurrence's facts; CheckFinal turns them into
// Violations off the hot path (building a Violation formats a string,
// which must not happen inside Accept — any method named Accept is
// reachable from Mesh.Step through the Sink interface, so the noclint
// hotpathalloc analyzer holds it to the same zero-allocation standard
// as the simulator's own per-cycle code).
const (
	anomUnknownPacket = iota // delivered but never recorded as injected
	anomWrongDestination
	anomOverDelivery
	anomDuplicateTail
	anomEarlyTail
	anomLateTail
	anomInterleave
	anomLatencyBound
	anomalyKinds
)

// anomalyInvariant maps an anomaly kind to its catalogue name.
var anomalyInvariant = [anomalyKinds]string{
	anomUnknownPacket:    "conservation",
	anomWrongDestination: "routing",
	anomOverDelivery:     "duplication",
	anomDuplicateTail:    "duplication",
	anomEarlyTail:        "framing",
	anomLateTail:         "framing",
	anomInterleave:       "wormhole",
	anomLatencyBound:     "latency-bound",
}

// anomalyWhat describes each kind for the materialized Violation.
var anomalyWhat = [anomalyKinds]string{
	anomUnknownPacket:    "sink accepted a packet the ledger never saw injected",
	anomWrongDestination: "packet ejected at a node other than its destination",
	anomOverDelivery:     "packet delivered more flits than it has",
	anomDuplicateTail:    "packet tail delivered twice",
	anomEarlyTail:        "tail flag arrived before the packet's flit count",
	anomLateTail:         "flit count reached without a tail flag",
	anomInterleave:       "two packets' flits interleaved at one ejection port",
	anomLatencyBound:     "tail latency below the Manhattan zero-load floor",
}

// anomalyRecord is the first occurrence of one anomaly kind: plain
// scalars only, so noting it allocates nothing.
type anomalyRecord struct {
	pktID     uint64
	node      int
	cycle     int64
	got, want int64
}

// Sabotage modes deliberately corrupt the auditor's own bookkeeping so
// a run provably trips the harness (TestSabotageModesDetected; the
// simulator itself is never touched).
const (
	// SabotageNone audits honestly.
	SabotageNone = ""
	// SabotageDoubleTail books every tail flit twice: duplication,
	// framing, conservation, and aggregate all fire.
	SabotageDoubleTail = "double-tail"
	// SabotageDropRecord skips the ledger entry for every third
	// injection: the sinks then deliver packets the ledger never saw.
	SabotageDropRecord = "drop-record"
)

// MeshAuditor checks the invariant catalogue over one Mesh run. Build
// it with NewMeshAuditor on a freshly constructed mesh (the ledger
// must see every injection from cycle zero), route all injections
// through RecordInject, call CheckCycle after each Step, and
// CheckFinal once the run ends.
type MeshAuditor struct {
	violationLog
	m   *noc.Mesh
	led ledger

	// open[node] is the packet currently mid-ejection at a node's
	// local port (wormhole framing), or 0.
	open []uint64
	// lastID enforces monotone packet IDs at RecordInject.
	lastID uint64

	anomCount [anomalyKinds]int64
	anomFirst [anomalyKinds]anomalyRecord

	sabotage   string
	recordSkip int

	// conservation failures latch so the per-cycle check reports the
	// first breach instead of one violation per remaining cycle.
	conservationBroken bool
	finalized          bool
}

// NewMeshAuditor wraps every node's sink with an auditing wrapper that
// accepts all traffic. Use WrapSink to put a custom sink (e.g. a
// back-pressure model) behind the audit tap at selected nodes.
func NewMeshAuditor(m *noc.Mesh) *MeshAuditor {
	a := &MeshAuditor{m: m, led: newLedger(), open: make([]uint64, m.Nodes())}
	for node := 0; node < m.Nodes(); node++ {
		m.SetSink(node, &auditSink{a: a, node: node})
	}
	return a
}

// WrapSink installs inner behind the audit tap at node: the inner sink
// decides acceptance, the auditor books what was accepted.
func (a *MeshAuditor) WrapSink(node int, inner noc.Sink) {
	a.m.SetSink(node, &auditSink{a: a, node: node, inner: inner})
}

// SetSabotage arms a deliberate bookkeeping corruption (see the
// Sabotage constants). Unknown modes are rejected.
func (a *MeshAuditor) SetSabotage(mode string) error {
	switch mode {
	case SabotageNone, SabotageDoubleTail, SabotageDropRecord:
		a.sabotage = mode
		return nil
	}
	return fmt.Errorf("simcheck: unknown sabotage mode %q", mode)
}

// RecordInject opens the ledger entry for a packet returned by
// Mesh.Inject. Call it immediately after every successful Inject.
func (a *MeshAuditor) RecordInject(p noc.Packet) {
	if p.ID <= a.lastID {
		a.violatef("monotone-id", a.m.Cycle(),
			"packet ID %d injected after ID %d; IDs must strictly increase", p.ID, a.lastID)
	} else {
		a.lastID = p.ID
	}
	if a.sabotage == SabotageDropRecord {
		a.recordSkip++
		if a.recordSkip%3 == 0 {
			return
		}
	}
	if !a.led.record(p, a.minLatency(p)) {
		a.violatef("duplication", a.m.Cycle(), "packet ID %d reused; ledger already has it", p.ID)
	}
}

// minLatency is the zero-load floor: with XY routing a packet crosses
// exactly its Manhattan hop count of links, spends one cycle entering
// the network, and ejects one flit per cycle, so the tail cannot
// arrive before CreatedAt + hops + Flits.
func (a *MeshAuditor) minLatency(p noc.Packet) int64 {
	w := a.m.Config().Width
	sx, sy := p.Src%w, p.Src/w
	dx, dy := p.Dst%w, p.Dst/w
	hops := abs(sx-dx) + abs(sy-dy)
	return int64(hops + p.Flits)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// auditSink is the per-node Sink wrapper. Its Accept runs inside
// Mesh.Step's arbitration loop, so it is interface-dispatch
// hot-reachable: everything it does must be allocation-free (counter
// bumps, map reads, scalar field writes). Violations are materialized
// later, off the hot path.
type auditSink struct {
	a     *MeshAuditor
	node  int
	inner noc.Sink
}

// Accept defers to the inner sink's admission decision, then books the
// delivery when (and only when) it was accepted. A refused flit stays
// in the router, so the ledger must not move.
func (s *auditSink) Accept(p noc.Packet, lastFlit bool, cycle int64) bool {
	if s.inner != nil && !s.inner.Accept(p, lastFlit, cycle) {
		return false
	}
	s.a.noteDelivery(s.node, p, lastFlit, cycle)
	if lastFlit && s.a.sabotage == SabotageDoubleTail {
		s.a.noteDelivery(s.node, p, lastFlit, cycle)
	}
	return true
}

// noteDelivery books one accepted flit. Hot-reachable via Accept: no
// allocation, no map iteration, no formatting.
func (a *MeshAuditor) noteDelivery(node int, p noc.Packet, lastFlit bool, cycle int64) {
	e := a.led.lookup(p.ID)
	if e == nil {
		a.noteAnomaly(anomUnknownPacket, p.ID, node, cycle, 0, 0)
		a.led.deliveredFlits++ // keep the balance honest about what sinks saw
		if lastFlit {
			a.led.deliveredPkts++
		}
		return
	}
	if node != e.dst {
		a.noteAnomaly(anomWrongDestination, p.ID, node, cycle, int64(node), int64(e.dst))
	}
	if a.open[node] != 0 && a.open[node] != p.ID {
		a.noteAnomaly(anomInterleave, p.ID, node, cycle, int64(a.open[node]), int64(p.ID))
	}
	a.open[node] = p.ID
	e.delivered++
	a.led.deliveredFlits++
	if e.delivered > e.flits {
		a.noteAnomaly(anomOverDelivery, p.ID, node, cycle, int64(e.delivered), int64(e.flits))
	}
	if lastFlit {
		if e.doneAt >= 0 {
			a.noteAnomaly(anomDuplicateTail, p.ID, node, cycle, e.doneAt, cycle)
		}
		if e.delivered != e.flits {
			a.noteAnomaly(anomEarlyTail, p.ID, node, cycle, int64(e.delivered), int64(e.flits))
		}
		if lat := cycle - e.createdAt; lat < e.minLat {
			a.noteAnomaly(anomLatencyBound, p.ID, node, cycle, lat, e.minLat)
		}
		e.doneAt = cycle
		a.led.deliveredPkts++
		a.open[node] = 0
	} else if e.delivered >= e.flits {
		a.noteAnomaly(anomLateTail, p.ID, node, cycle, int64(e.delivered), int64(e.flits))
	}
}

// noteAnomaly bumps a kind's count and latches its first occurrence.
// Hot-reachable; scalar writes only.
func (a *MeshAuditor) noteAnomaly(kind int, pktID uint64, node int, cycle, got, want int64) {
	if a.anomCount[kind] == 0 {
		a.anomFirst[kind] = anomalyRecord{pktID: pktID, node: node, cycle: cycle, got: got, want: want}
	}
	a.anomCount[kind]++
}

// CheckCycle runs the per-cycle structural checks: FIFO occupancy
// within capacity (the credit-balance invariant) and flit
// conservation. Call it after each Mesh.Step; it reads the mesh
// through its audit taps and never mutates simulation state.
func (a *MeshAuditor) CheckCycle() {
	cycle := a.m.Cycle()
	buffered := int64(0)
	a.m.VisitFIFOs(func(node, port, occ, capacity int) {
		a.checkFIFOBound(cycle, node, port, occ, capacity)
		buffered += int64(occ)
	})
	pending := int64(0)
	for node := 0; node < a.m.Nodes(); node++ {
		pending += int64(a.m.PendingInjection(node))
	}
	if got := a.led.deliveredFlits + buffered + pending; got != a.led.injectedFlits && !a.conservationBroken {
		a.conservationBroken = true
		a.violatef("conservation", cycle,
			"injected %d flits but delivered(%d) + buffered(%d) + pending(%d) = %d",
			a.led.injectedFlits, a.led.deliveredFlits, buffered, pending, got)
	}
}

// checkFIFOBound is the occupancy (credit-balance) invariant for one
// FIFO: between 0 and capacity, always.
func (a *MeshAuditor) checkFIFOBound(cycle int64, node, port, occ, capacity int) {
	if occ < 0 || occ > capacity {
		a.violatef("occupancy", cycle,
			"node %d port %d holds %d flits, capacity %d", node, port, occ, capacity)
	}
}

// CheckFinal reconciles the run: materializes hot-path anomalies,
// checks Drained() against the ledger in both directions, and checks
// the mesh's own aggregate counters against the ledger's totals.
func (a *MeshAuditor) CheckFinal() {
	if a.finalized {
		return
	}
	a.finalized = true
	for kind := 0; kind < anomalyKinds; kind++ {
		if a.anomCount[kind] == 0 {
			continue
		}
		f := a.anomFirst[kind]
		a.violatef(anomalyInvariant[kind], f.cycle,
			"%s (packet %d at node %d, got %d want %d; %d occurrence(s))",
			anomalyWhat[kind], f.pktID, f.node, f.got, f.want, a.anomCount[kind])
	}
	drained := a.m.Drained()
	ledgerEmpty := a.led.inFlightFlits() == 0
	if drained && !ledgerEmpty {
		open, first := a.led.openEntries()
		detail := fmt.Sprintf("Drained() is true but the ledger holds %d in-flight flits across %d packets",
			a.led.inFlightFlits(), open)
		if first != nil {
			detail += fmt.Sprintf(" (first: packet %d %d->%d, %d/%d flits delivered)",
				first.id, first.src, first.dst, first.delivered, first.flits)
		}
		a.violatef("drained-ledger", a.m.Cycle(), "%s", detail)
	}
	if !drained && ledgerEmpty {
		a.violatef("drained-ledger", a.m.Cycle(),
			"ledger balances to zero in-flight flits but Drained() is false; the network holds flits the ledger never saw")
	}
	var accFlits, accPkts int64
	for _, v := range a.m.AcceptedFlits {
		accFlits += v
	}
	for _, v := range a.m.AcceptedPackets {
		accPkts += v
	}
	if accFlits != a.led.deliveredFlits {
		a.violatef("aggregate", a.m.Cycle(),
			"mesh AcceptedFlits total %d but the ledger booked %d delivered flits", accFlits, a.led.deliveredFlits)
	}
	if accPkts != a.led.deliveredPkts {
		a.violatef("aggregate", a.m.Cycle(),
			"mesh AcceptedPackets total %d but the ledger booked %d delivered packets", accPkts, a.led.deliveredPkts)
	}
}

// PacketLatency returns a completed packet's tail latency in cycles,
// or false if the packet is unknown or still in flight. The zero-load
// oracle uses it to check exact (not just bounded) latency.
func (a *MeshAuditor) PacketLatency(id uint64) (int64, bool) {
	e := a.led.lookup(id)
	if e == nil || e.doneAt < 0 {
		return 0, false
	}
	return e.doneAt - e.createdAt, true
}

// InFlightFlits exposes the conservation balance for tests.
func (a *MeshAuditor) InFlightFlits() int64 { return a.led.inFlightFlits() }

// Summary renders violation counts grouped by invariant, in sorted
// order (the collect-then-sort idiom the determinism analyzer
// sanctions for map walks in this package).
func (a *MeshAuditor) Summary() string {
	return summarize(a.violations, a.suppressed)
}

// summarize is the shared Summary implementation.
func summarize(violations []Violation, suppressed int) string {
	if len(violations) == 0 && suppressed == 0 {
		return "all invariants hold"
	}
	counts := map[string]int{}
	for _, v := range violations {
		counts[v.Invariant]++
	}
	var names []string
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s: %d\n", name, counts[name])
	}
	if suppressed > 0 {
		fmt.Fprintf(&b, "(%d further violations suppressed)\n", suppressed)
	}
	return b.String()
}
