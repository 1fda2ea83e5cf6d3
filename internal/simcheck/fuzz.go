package simcheck

import (
	"fmt"

	"gpunoc/internal/noc"
)

// drainCycles bounds how long RunCase waits for the network to drain
// after the last scheduled injection before declaring a deadlock
// violation.
const drainCycles = 20000

// Injection is one scheduled packet of a fuzz case. For mesh cases Dst
// is a node; for xbar cases it is a memory port.
type Injection struct {
	Cycle, Src, Dst, Flits int
}

// Case is one self-contained fuzz scenario: a topology, a fully
// materialized injection schedule, and a back-pressure profile.
// FuzzNoCCase decodes it from bytes, so a failing case is the input
// file the fuzzer saved.
type Case struct {
	// Kind is "mesh" or "xbar".
	Kind string
	Mesh noc.MeshConfig
	Xbar noc.XbarConfig
	// Injections are replayed in order; entries must be sorted by
	// Cycle.
	Injections []Injection
	// RefusePct is the percentage of (node, cycle) pairs whose sink
	// refuses delivery, hashed deterministically from RefuseSalt (mesh
	// only; the crossbar's ports have no refusal hook).
	RefusePct  int
	RefuseSalt uint64
	// Sabotage arms a deliberate audit-bookkeeping corruption (see the
	// Sabotage constants); "" audits honestly.
	Sabotage string
}

// refuseSink models a busy endpoint: it refuses a deterministic,
// salt-derived RefusePct of (node, cycle) slots. The hash varies per
// cycle, so under any pct < 100 every packet is eventually accepted
// and a case that fails to drain is a simulator bug, not a sink
// artifact. Accept is hot-reachable (Sink interface dispatch from
// Mesh.Step), hence pure integer mixing with no allocation.
type refuseSink struct {
	salt uint64
	node int
	pct  int
}

func (s *refuseSink) Accept(_ noc.Packet, _ bool, cycle int64) bool {
	h := s.salt ^ uint64(cycle)*0x9e3779b97f4a7c15 ^ uint64(s.node)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	h *= 0x94d049bb133111eb
	h ^= h >> 32
	return int(h%100) >= s.pct
}

// network is the simulator surface RunCase drives; Mesh and Xbar both
// have it.
type network interface {
	Inject(src, dst, flits int) (noc.Packet, error)
	Step()
	Cycle() int64
	Drained() bool
}

// auditor is the surface MeshAuditor and XbarAuditor share.
type auditor interface {
	RecordInject(p noc.Packet)
	CheckCycle()
	CheckFinal()
	Violations() []Violation
	violatef(invariant string, cycle int64, format string, args ...any)
}

// RunCase executes one case under full audit: every injection is
// ledgered, every cycle is checked, and the run ends with the final
// reconciliation. The error return is for malformed cases (bad
// config, out-of-range injection); simulator misbehavior, a network
// that never drains included, lands in the violations instead.
func RunCase(c Case) ([]Violation, error) {
	net, a, err := c.build()
	if err != nil {
		return nil, err
	}
	deadline := int64(drainCycles)
	if n := len(c.Injections); n > 0 {
		deadline += int64(c.Injections[n-1].Cycle)
	}
	for next := 0; ; {
		for next < len(c.Injections) && int64(c.Injections[next].Cycle) <= net.Cycle() {
			inj := c.Injections[next]
			p, err := net.Inject(inj.Src, inj.Dst, inj.Flits)
			if err != nil {
				return nil, err
			}
			a.RecordInject(p)
			next++
		}
		net.Step()
		a.CheckCycle()
		if next == len(c.Injections) && net.Drained() {
			break
		}
		if net.Cycle() > deadline {
			a.violatef("drained-ledger", net.Cycle(),
				"%s failed to drain within %d cycles of the last injection", c.Kind, drainCycles)
			break
		}
	}
	a.CheckFinal()
	return a.Violations(), nil
}

// build constructs the case's simulator and its auditor.
func (c Case) build() (network, auditor, error) {
	switch c.Kind {
	case "mesh":
		m, err := noc.NewMesh(c.Mesh)
		if err != nil {
			return nil, nil, err
		}
		a := NewMeshAuditor(m)
		if err := a.SetSabotage(c.Sabotage); err != nil {
			return nil, nil, err
		}
		if c.RefusePct > 0 {
			for node := 0; node < m.Nodes(); node++ {
				a.WrapSink(node, &refuseSink{salt: c.RefuseSalt, node: node, pct: c.RefusePct})
			}
		}
		return m, a, nil
	case "xbar":
		if c.Sabotage != SabotageNone {
			return nil, nil, fmt.Errorf("simcheck: sabotage is mesh-only (the crossbar has no delivery tap)")
		}
		x, err := noc.NewXbar(c.Xbar)
		if err != nil {
			return nil, nil, err
		}
		return x, NewXbarAuditor(x), nil
	}
	return nil, nil, fmt.Errorf("simcheck: unknown case kind %q", c.Kind)
}
