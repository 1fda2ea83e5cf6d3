package gpu

import "math"

// splitmix64 advances the given state and returns a well-mixed 64-bit
// value. It is the standard SplitMix64 generator, used here to derive
// deterministic per-(sm, slice, iteration) measurement noise and hash
// values so that every experiment in the repository is reproducible.
func splitmix64(state uint64) uint64 {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mixInit is mix's initial state.
const mixInit = 0x243f6a8885a308d3

// mix combines up to four 64-bit values into one hash.
func mix(vals ...uint64) uint64 {
	h := uint64(mixInit)
	for _, v := range vals {
		h = splitmix64(h ^ v)
	}
	return h
}

// unitFloat maps a hash to a uniform float64 in [0, 1).
func unitFloat(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// gaussian maps a hash to a standard-normal sample via Box-Muller over two
// derived uniforms. One sample per hash keeps call sites stateless.
func gaussian(h uint64) float64 {
	u1 := unitFloat(splitmix64(h))
	u2 := unitFloat(splitmix64(h ^ 0xdeadbeefcafef00d))
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
