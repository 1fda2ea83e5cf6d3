// Package cache implements a set-associative, sectored L2 cache slice of
// the kind the paper's methodology implicitly exercises: Algorithm 1
// "warms up" the L2 so every timed access hits, and working sets are
// chosen to "fit within the L2". Attaching these slices to the kernel
// runtime turns those methodological notes into executable mechanisms:
// warm-up genuinely populates the cache, capacity overflows genuinely
// miss, and the classic working-set latency sweep (latency stepping up at
// the L2 capacity) can be reproduced.
//
// NVIDIA L2 lines are 128 bytes split into four 32-byte sectors; a miss
// fills only the touched sector, which is why the paper's coalescing
// side-channel counts 32-byte transactions.
package cache

import (
	"fmt"
	"math/bits"
)

// Config sizes one cache slice.
type Config struct {
	// SizeBytes is the slice capacity.
	SizeBytes int
	// LineBytes is the allocation granularity (tag granularity).
	LineBytes int
	// SectorBytes is the fill granularity; LineBytes must be a multiple.
	SectorBytes int
	// Ways is the set associativity.
	Ways int
}

// DefaultSliceConfig returns the modelled NVIDIA slice geometry for a
// given capacity: 128-byte lines, 32-byte sectors, 16 ways.
func DefaultSliceConfig(sizeBytes int) Config {
	return Config{SizeBytes: sizeBytes, LineBytes: 128, SectorBytes: 32, Ways: 16}
}

// Validate checks the geometry.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.LineBytes <= 0 || c.SectorBytes <= 0 || c.Ways <= 0:
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	case c.LineBytes&(c.LineBytes-1) != 0 || c.SectorBytes&(c.SectorBytes-1) != 0:
		return fmt.Errorf("cache: line/sector sizes must be powers of two")
	case c.LineBytes%c.SectorBytes != 0:
		return fmt.Errorf("cache: line %d not a multiple of sector %d", c.LineBytes, c.SectorBytes)
	case c.LineBytes/c.SectorBytes > 32:
		return fmt.Errorf("cache: %d sectors per line exceed the 32-bit sector mask", c.LineBytes/c.SectorBytes)
	case c.SizeBytes%(c.LineBytes*c.Ways) != 0:
		return fmt.Errorf("cache: size %d not divisible into %d-way sets of %d-byte lines", c.SizeBytes, c.Ways, c.LineBytes)
	}
	return nil
}

// Cache is one slice. It is not safe for concurrent use; the kernel
// runtime serializes accesses per machine.
//
// Each set's ways sit in recency order, most recently used first, in
// flat per-way arrays: way w of set s is index s*Ways+w. A way with a
// zero valid mask is empty (Validate caps a line at 32 sectors, so a
// resident way always has a bit set), and empty ways only ever trail
// the set, so a hit or fill moves its way to the front and a full set
// evicts its last way (the LRU line) with no timestamps and no victim
// scan.
type Cache struct {
	cfg  Config
	tags []uint64
	// valid marks which sectors of each way hold data.
	valid []uint32
	// setCount, lineShift, lineMask and sectorShift precompute indexing:
	// line and sector sizes are powers of two, so only the set split
	// divides.
	setCount    int
	lineShift   uint
	lineMask    uint64
	sectorShift uint
	// setMagic is the rounded-up reciprocal 2^64/setCount, or 0 for a
	// single set (where it would overflow). For a line address below
	// 2^32 the high word of setMagic*lineAddr is the exact quotient:
	// setMagic*setCount exceeds 2^64 by e < setCount, and lineAddr*e <
	// 2^64 keeps the error under one part in setCount.
	setMagic uint64

	// Stats accumulate until Reset.
	Hits, Misses, SectorMisses, Evictions uint64
}

// New builds a cache slice.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	setCount := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	var magic uint64
	if setCount > 1 {
		magic = ^uint64(0)/uint64(setCount) + 1
	}
	return &Cache{
		cfg:         cfg,
		tags:        make([]uint64, setCount*cfg.Ways),
		valid:       make([]uint32, setCount*cfg.Ways),
		setCount:    setCount,
		lineShift:   uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		lineMask:    uint64(cfg.LineBytes - 1),
		sectorShift: uint(bits.TrailingZeros(uint(cfg.SectorBytes))),
		setMagic:    magic,
	}, nil
}

// locate splits addr into its set's way range, its tag and its sector's
// valid-mask bit.
func (c *Cache) locate(addr uint64) (tags []uint64, valid []uint32, tag uint64, bit uint32) {
	lineAddr := addr >> c.lineShift
	// One quotient yields both the tag and the set (the remainder); a
	// reciprocal multiply replaces the division where it is exact.
	if lineAddr < 1<<32 && c.setMagic != 0 {
		tag, _ = bits.Mul64(c.setMagic, lineAddr)
	} else {
		tag = lineAddr / uint64(c.setCount)
	}
	base := int(lineAddr-tag*uint64(c.setCount)) * c.cfg.Ways
	end := base + c.cfg.Ways
	sector := (addr & c.lineMask) >> c.sectorShift
	return c.tags[base:end:end], c.valid[base:end:end], tag, 1 << sector
}

// Access touches addr and reports whether the touched sector was
// resident. A miss allocates (or revalidates a sector of) the line.
func (c *Cache) Access(addr uint64) (hit bool) {
	tags, valid, tag, bit := c.locate(addr)
	// Resident ways lead the set, so only they are scanned: all of them
	// when the last way is resident (a full set, where the scan compares
	// tags alone), otherwise those before the first empty way.
	n := len(tags)
	if valid[n-1] == 0 {
		n = 0
		for valid[n] != 0 {
			n++
		}
	}
	for w, t := range tags[:n] {
		if t != tag {
			continue
		}
		mask := valid[w]
		if mask&bit != 0 {
			c.Hits++
			hit = true
		} else {
			// Line resident, sector not: a sector miss fills just the sector.
			mask |= bit
			c.SectorMisses++
			c.Misses++
		}
		moveToFront(tags, valid, w, tag, mask)
		return hit
	}

	// Full miss: allocate into the first empty way, or evict the LRU
	// (last) way of a full set.
	c.Misses++
	w := n
	if w == len(tags) {
		w--
		c.Evictions++
	}
	moveToFront(tags, valid, w, tag, bit)
	return false
}

// moveToFront shifts ways [0, w) back by one and stores (tag, mask) in
// way 0, overwriting way w.
func moveToFront(tags []uint64, valid []uint32, w int, tag uint64, mask uint32) {
	copy(tags[1:w+1], tags[:w])
	copy(valid[1:w+1], valid[:w])
	tags[0], valid[0] = tag, mask
}

// Contains reports residency of addr's sector without touching LRU or
// stats.
func (c *Cache) Contains(addr uint64) bool {
	tags, valid, tag, bit := c.locate(addr)
	for w := 0; w < len(tags) && valid[w] != 0; w++ {
		if tags[w] == tag {
			return valid[w]&bit != 0
		}
	}
	return false
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	clear(c.valid)
	c.Hits, c.Misses, c.SectorMisses, c.Evictions = 0, 0, 0, 0
}
