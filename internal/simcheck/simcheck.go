// Package simcheck is the correctness harness for the NoC simulators:
// a reusable invariant auditor for Mesh and Xbar runs, differential
// oracles that cross-check the simulators against closed-form answers
// and against each other, and a deterministic case generator (driven by
// the FuzzNoCCase fuzz target) that hunts for conservation bugs across
// randomized configurations and traffic patterns.
//
// The invariant catalogue (every entry has a unit test that would
// catch its violation; see DESIGN.md "simcheck"):
//
//	conservation   injected flits = delivered flits + flits buffered in
//	               router FIFOs/VOQs + flits waiting in source queues,
//	               every cycle. A delivery the ledger never saw injected
//	               also lands here.
//	occupancy      every FIFO/VOQ holds between 0 and its capacity. This
//	               is the credit-balance check: the mesh's credits are
//	               implicit (a link may send iff the downstream FIFO has
//	               a free slot), so a leaked or duplicated credit
//	               manifests exactly as occupancy outside [0, cap].
//	duplication    no packet delivers more flits than it has, no tail
//	               arrives twice, and packet IDs are never reused.
//	framing        a packet's tail arrives with exactly its Flits-th
//	               flit — never early, never skipped.
//	wormhole       flits of two packets never interleave at one
//	               ejection port mid-packet.
//	latency-bound  a packet's tail latency is at least its Manhattan
//	               hop count plus its flit count (the zero-load floor).
//	monotone-id    packet IDs strictly increase in injection order.
//	drained-ledger Drained() and "the ledger has no in-flight flits"
//	               agree, in both directions.
//	aggregate      the simulator's own AcceptedPackets/AcceptedFlits
//	               counters match the ledger's delivered totals.
//
// The auditors observe through read-only taps (Mesh.VisitFIFOs,
// Xbar.VisitVOQs, the Sink interface) and never perturb simulation
// state, so an audited run takes the exact same decisions as an
// unaudited one. The one deliberate exception is Sabotage, which
// plants a bookkeeping error on purpose so a test can prove the harness
// still detects violations (TestSabotageModesDetected).
package simcheck

import "fmt"

// Violation is one detected invariant breach.
type Violation struct {
	// Invariant names the catalogue entry (see the package comment).
	Invariant string
	// Cycle is the simulator cycle the breach was detected on (-1 for
	// end-of-run reconciliation findings with no single cycle).
	Cycle int64
	// Detail is a human-readable account of the breach.
	Detail string
}

// String renders the violation for reports and reproducer output.
func (v Violation) String() string {
	return fmt.Sprintf("[%s] cycle %d: %s", v.Invariant, v.Cycle, v.Detail)
}

// maxViolations caps how many violations one auditor accumulates. A
// single broken invariant (say, conservation) re-fires every cycle of
// a long drain; the cap keeps reports readable and shrinking fast. The
// suppressed count is reported by Summary.
const maxViolations = 100

// violationLog is the shared accumulator embedded by the auditors.
type violationLog struct {
	violations []Violation
	suppressed int
}

// violatef records one violation, honouring the cap.
func (l *violationLog) violatef(invariant string, cycle int64, format string, args ...any) {
	if len(l.violations) >= maxViolations {
		l.suppressed++
		return
	}
	l.violations = append(l.violations, Violation{
		Invariant: invariant,
		Cycle:     cycle,
		Detail:    fmt.Sprintf(format, args...),
	})
}

// Violations returns the breaches recorded so far, in detection order.
func (l *violationLog) Violations() []Violation { return l.violations }

// Ok reports whether no invariant was breached.
func (l *violationLog) Ok() bool { return len(l.violations) == 0 && l.suppressed == 0 }
