package kernel

import (
	"math/bits"
	"slices"
)

// coalesce appends to dst the unique cache lines of the given size that
// the per-lane byte addresses of one warp memory instruction touch, as
// line-aligned base addresses in first-touch order, and returns the
// extended slice. lineBytes must be a power of two.
//
// The number of unique lines determines the instruction's service time:
// the paper's AES side channel (Sec. V-B.1, Fig. 17a) rests on the
// latency being linearly proportional to this count.
//
// Warp-sized inputs (up to 2*WarpSize lanes) dedup in O(n) through a
// 64-bit occupancy mask over the lines within ±32 of the first lane's
// line; a line outside that window falls back to a scan of the lines
// found so far. With dst holding 2*WarpSize spare capacity, such an input
// does not allocate. Larger inputs dedup through a map.
func coalesce(dst, addrs []uint64, lineBytes int) []uint64 {
	if len(addrs) == 0 {
		return dst
	}
	mask := ^uint64(lineBytes - 1)
	if len(addrs) > 2*WarpSize {
		seen := make(map[uint64]struct{}, len(addrs))
		for _, a := range addrs {
			line := a & mask
			if _, ok := seen[line]; ok {
				continue
			}
			seen[line] = struct{}{}
			dst = append(dst, line)
		}
		return dst
	}
	shift := uint(bits.TrailingZeros(uint(lineBytes)))
	// Window slot of line l is l - first + WarpSize; modular arithmetic
	// keeps the slot-to-line mapping one-to-one even across wrap-around.
	origin := addrs[0]>>shift - WarpSize
	var window uint64
	dst = slices.Grow(dst, len(addrs))
	found, n := len(dst), len(dst)
	out := dst[:n+len(addrs)]
outer:
	for _, a := range addrs {
		line := a & mask
		if slot := a>>shift - origin; slot < 64 {
			// Branch-free on the (data-dependent) seen bit: always write
			// the line, keep it only if its bit was clear.
			out[n] = line
			n += int(^window >> slot & 1)
			window |= 1 << slot
			continue
		}
		for _, seen := range out[found:n] {
			if seen == line {
				continue outer
			}
		}
		out[n] = line
		n++
	}
	return out[:n]
}

// countLines returns what coalesce would for addrs without writing the
// list: the number of unique lines and the last of them in first-touch
// order. Without the L2 model a warp access needs nothing more, so the
// hot path skips building the list. lineBytes must be a power of two;
// an empty input yields (0, 0).
//
// Warp-sized inputs whose lanes all fall in coalesce's ±32-line window
// count through the same occupancy mask, with no branch inside the loop:
// the first-touch select is written so the compiler emits a conditional
// move (a branch on that data-dependent test made this slower than
// coalesce), and the window check is one OR tested after the loop. A
// lane outside the window, or an input over 2*WarpSize lanes, falls back
// to coalesce.
func countLines(addrs []uint64, lineBytes int) (n int, last uint64) {
	if len(addrs) == 0 || len(addrs) > 2*WarpSize {
		return countLinesList(addrs, lineBytes)
	}
	shift := uint(bits.TrailingZeros(uint(lineBytes))) & 63
	origin := addrs[0]>>shift - WarpSize
	// outside ORs every lane's slot: it reaches 64 iff some lane falls
	// outside the window. lastSlot is the slot of the latest first touch.
	var window, outside, lastSlot uint64
	for _, a := range addrs {
		slot := a>>shift - origin
		outside |= slot
		slot &= 63
		old := window
		window |= 1 << slot
		sel := lastSlot
		if window != old {
			sel = slot
		}
		lastSlot = sel
	}
	if outside >= 64 {
		return countLinesList(addrs, lineBytes)
	}
	return bits.OnesCount64(window), (origin + lastSlot) << shift
}

// countLinesList is countLines through coalesce's list.
func countLinesList(addrs []uint64, lineBytes int) (int, uint64) {
	var buf [2 * WarpSize]uint64
	lines := coalesce(buf[:0], addrs, lineBytes)
	if len(lines) == 0 {
		return 0, 0
	}
	return len(lines), lines[len(lines)-1]
}
