package simcheck

import (
	"testing"

	"gpunoc/internal/noc"
)

// auditedXbar builds a small crossbar and its auditor.
func auditedXbar(t *testing.T) (*noc.Xbar, *XbarAuditor) {
	t.Helper()
	x, err := noc.NewXbar(noc.XbarConfig{
		Clusters: 2, NodesPerCluster: 2, MemPorts: 2,
		HubCapacity: 1, PortCapacity: 1, VOQDepth: 4, Arbiter: noc.RoundRobin,
	})
	if err != nil {
		t.Fatal(err)
	}
	return x, NewXbarAuditor(x)
}

func TestXbarCleanRunHasNoViolations(t *testing.T) {
	x, a := auditedXbar(t)
	var all []Injection
	for node := 0; node < x.Nodes(); node++ {
		for port := 0; port < 2; port++ {
			all = append(all, Injection{Src: node, Dst: port, Flits: 1 + (node+port)%3})
		}
	}
	runAudited(t, x, a, all)
	a.CheckFinal()
	if !a.Ok() {
		t.Fatalf("clean crossbar run reported violations:\n%s", a.Summary())
	}
}

// occupancy: a VOQ over its depth bound means hub-side flow control
// leaked.
func TestXbarOccupancyViolationDetected(t *testing.T) {
	_, a := auditedXbar(t)
	a.checkVOQBound(0, 1, 1, 5, 4)
	a.checkVOQBound(0, 0, 0, -2, 4)
	if len(a.Violations()) != 2 || !hasInvariant(a.Violations(), "occupancy") {
		t.Fatalf("out-of-range VOQs produced:\n%s", a.Summary())
	}
	a.checkVOQBound(0, 0, 1, 4, 4)
	if len(a.Violations()) != 2 {
		t.Fatal("full-but-legal VOQ flagged")
	}
}

// conservation: a ledgered injection the crossbar never saw unbalances
// the per-cycle book.
func TestXbarConservationViolationDetected(t *testing.T) {
	x, a := auditedXbar(t)
	a.RecordInject(noc.Packet{ID: 1, Src: 0, Dst: 0, Flits: 3}) // ledger-only
	x.Step()
	a.CheckCycle()
	if !hasInvariant(a.Violations(), "conservation") {
		t.Fatalf("phantom injection not flagged:\n%s", a.Summary())
	}
}

// drained-ledger, both directions.
func TestXbarDrainedLedgerViolationsDetected(t *testing.T) {
	// Direction 1: ledger open, crossbar drained.
	_, a := auditedXbar(t)
	a.RecordInject(noc.Packet{ID: 1, Src: 0, Dst: 1, Flits: 2})
	a.CheckFinal()
	if !hasInvariant(a.Violations(), "drained-ledger") {
		t.Fatalf("drained-with-open-ledger not flagged:\n%s", a.Summary())
	}
	// Direction 2: traffic behind the ledger's back.
	x, b := auditedXbar(t)
	if _, err := x.Inject(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	for !x.Drained() {
		x.Step()
	}
	b.CheckFinal()
	if !hasInvariant(b.Violations(), "drained-ledger") {
		t.Fatalf("unledgered drain not flagged:\n%s", b.Summary())
	}
}

// aggregate: per-source delivered packets must reconcile.
func TestXbarAggregateMismatchDetected(t *testing.T) {
	x, a := auditedXbar(t)
	runAudited(t, x, a, []Injection{{Src: 2, Dst: 1, Flits: 2}})
	x.AcceptedPackets[2]++ // tamper
	a.CheckFinal()
	if !hasInvariant(a.Violations(), "aggregate") {
		t.Fatalf("tampered AcceptedPackets not flagged:\n%s", a.Summary())
	}
}

func TestXbarMonotoneIDViolationDetected(t *testing.T) {
	_, a := auditedXbar(t)
	a.RecordInject(noc.Packet{ID: 9, Src: 0, Dst: 0, Flits: 1})
	a.RecordInject(noc.Packet{ID: 4, Src: 1, Dst: 1, Flits: 1})
	if !hasInvariant(a.Violations(), "monotone-id") {
		t.Fatalf("non-monotone IDs not flagged:\n%s", a.Summary())
	}
}
