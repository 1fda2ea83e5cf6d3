package bad

import (
	"bytes"
	"maps"
	"slices"
	"strings"
)

// Std is a toy model whose Step grows its buffers through
// standard-library calls rather than the builtins.
type Std struct {
	xs  []int
	m   map[int]int
	sb  strings.Builder
	buf bytes.Buffer
}

// Step is a hot root; every call below may allocate. The clone of a
// reset slice is still flagged: it allocates a fresh array.
func (s *Std) Step() {
	s.xs = slices.Grow(s.xs, 8)
	s.xs = slices.Insert(s.xs, 0, 1)
	ys := slices.Concat(s.xs, s.xs)
	m := maps.Clone(s.m)
	s.sb.Grow(16)
	s.buf.Grow(16)
	ys = ys[:0]
	zs := slices.Clone(ys)
	_, _ = m, zs
}
