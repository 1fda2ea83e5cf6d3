package noc

import "math/bits"

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
// when mask is 0. Bit i of mask is set when input i competes for out,
// and heads[i] is then the packet it offers; entries whose bit is clear
// are never read. Age-based grants the oldest packet, breaking an exact
// age tie to the lowest packet ID (the earliest injection), so the
// winner never depends on scan order. Round-robin grants the first
// candidate after the input last served, wrapping to the lowest. pick
// is pure: a pick can still lose to a refusing sink or exhausted
// downstream credit, so the pointer only moves in commit.
func (a *arbiter) pick(out int, mask uint64, heads []*Packet) int {
	if mask == 0 {
		return -1
	}
	if a.policy == AgeBased {
		best := bits.TrailingZeros64(mask)
		for m := mask & (mask - 1); m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			p, b := heads[i], heads[best]
			if p.CreatedAt < b.CreatedAt || (p.CreatedAt == b.CreatedAt && p.ID < b.ID) {
				best = i
			}
		}
		return best
	}
	// A shift of 64 (the pointer on input 63) yields 0 and wraps.
	start := a.rr[out] + 1
	if after := mask >> start; after != 0 {
		return start + bits.TrailingZeros64(after)
	}
	return bits.TrailingZeros64(mask)
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
