package noc

// arbiter is the output arbitration shared by the mesh routers and the
// crossbar's memory ports. Each output has its own round-robin pointer;
// the caller indexes outputs however its topology numbers them.
type arbiter struct {
	policy Arbiter
	rr     []int
}

func newArbiter(policy Arbiter, outputs int) arbiter {
	return arbiter{policy: policy, rr: make([]int, outputs)}
}

// pick returns the index of the candidate granted output out, or -1
// when heads holds no candidate. heads[i] is the packet input i offers
// to out, nil when input i does not compete. Age-based grants the
// oldest packet, breaking an exact age tie to the lowest packet ID (the
// earliest injection), so the winner never depends on scan order.
// Round-robin grants the first candidate after the input last served.
// pick is pure: a pick can still lose to a refusing sink or exhausted
// downstream credit, so the pointer only moves in commit.
func (a *arbiter) pick(out int, heads []*Packet) int {
	if a.policy == AgeBased {
		best := -1
		for i, p := range heads {
			if p == nil {
				continue
			}
			if best < 0 || p.CreatedAt < heads[best].CreatedAt ||
				(p.CreatedAt == heads[best].CreatedAt && p.ID < heads[best].ID) {
				best = i
			}
		}
		return best
	}
	for k := 1; k <= len(heads); k++ {
		i := (a.rr[out] + k) % len(heads)
		if heads[i] != nil {
			return i
		}
	}
	return -1
}

// commit records that input in was served on output out. Rotating
// round-robin priority past an input that was picked but not served
// would skew fairness under back-pressure (see
// TestRoundRobinPointerHoldsOnRefusedGrant).
func (a *arbiter) commit(out, in int) {
	if a.policy == RoundRobin {
		a.rr[out] = in
	}
}
