package noc

import (
	"math/rand"
	"testing"
)

// refPick is the heads-scan arbiter the bitmask pick replaced, kept as
// its oracle: heads[i] is input i's candidate, nil when input i does
// not compete.
func refPick(policy Arbiter, rr int, heads []*Packet) int {
	if policy == AgeBased {
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
		i := (rr + k) % len(heads)
		if heads[i] != nil {
			return i
		}
	}
	return -1
}

// checkPick compares pick against refPick for one candidate set at
// every round-robin pointer under both policies. pkts holds one packet
// per input; bit i of mask enters pkts[i] as a candidate.
func checkPick(t *testing.T, mask uint64, pkts []Packet) {
	t.Helper()
	n := len(pkts)
	heads := make([]*Packet, n)
	for i := range pkts {
		if mask&(1<<i) != 0 {
			heads[i] = &pkts[i]
		}
	}
	for _, policy := range []Arbiter{RoundRobin, AgeBased} {
		a := newArbiter(policy, 1)
		for rr := 0; rr < n; rr++ {
			a.rr[0] = rr
			if got, want := a.pick(0, mask, heads), refPick(policy, rr, heads); got != want {
				t.Fatalf("%v width %d mask %#x rr %d: pick %d, heads scan %d", policy, n, mask, rr, got, want)
			}
		}
	}
}

// TestPickMatchesHeadsScan pins the bitmask pick to the heads scan.
// Five inputs (a mesh router) run exhaustively: all 32 masks x every
// pointer x both policies, over every age table in {0,1,2}^5 with IDs
// both ascending and descending in input order, so age ties must break
// on ID rather than scan position. Crossbar widths 1-8 run every mask
// against equal-age, distinct-age and mixed age tables, and width 64
// (the widest crossbar) runs random masks, which reach the pointer on
// input 63 whose rotation wraps to input 0.
func TestPickMatchesHeadsScan(t *testing.T) {
	const n = numPorts
	pkts := make([]Packet, n)
	for ages := 0; ages < 243; ages++ {
		for _, ascending := range []bool{true, false} {
			a := ages
			for i := range pkts {
				id := uint64(i + 1)
				if !ascending {
					id = uint64(n - i)
				}
				pkts[i] = Packet{ID: id, CreatedAt: int64(a % 3)}
				a /= 3
			}
			for mask := uint64(0); mask < 1<<n; mask++ {
				checkPick(t, mask, pkts)
			}
		}
	}

	for width := 1; width <= 8; width++ {
		tables := [][]Packet{make([]Packet, width), make([]Packet, width), make([]Packet, width)}
		for i := 0; i < width; i++ {
			tables[0][i] = Packet{ID: uint64(width - i), CreatedAt: 7}
			tables[1][i] = Packet{ID: uint64(i + 1), CreatedAt: int64((i * 5) % width)}
			tables[2][i] = Packet{ID: uint64((i*3)%width + 1), CreatedAt: int64(i % 2)}
		}
		for _, pkts := range tables {
			for mask := uint64(0); mask < 1<<width; mask++ {
				checkPick(t, mask, pkts)
			}
		}
	}

	rng := rand.New(rand.NewSource(1))
	wide := make([]Packet, maxClusters)
	for i := range wide {
		wide[i] = Packet{ID: uint64(rng.Intn(1000)), CreatedAt: int64(rng.Intn(4))}
	}
	for k := 0; k < 200; k++ {
		mask := rng.Uint64() >> rng.Intn(64)
		if k%2 == 0 {
			mask &= 1<<63 | 1<<uint(rng.Intn(63)) // sparse: the wrap path
		}
		checkPick(t, mask, wide)
	}
}
