package cache

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func small(t *testing.T) *Cache {
	t.Helper()
	c, err := New(Config{SizeBytes: 8192, LineBytes: 128, SectorBytes: 32, Ways: 4})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultSliceConfig(192 * 1024).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{SizeBytes: 0, LineBytes: 128, SectorBytes: 32, Ways: 4},
		{SizeBytes: 8192, LineBytes: 100, SectorBytes: 32, Ways: 4},
		{SizeBytes: 8192, LineBytes: 128, SectorBytes: 48, Ways: 4},
		{SizeBytes: 8192, LineBytes: 32, SectorBytes: 128, Ways: 4},
		{SizeBytes: 1000, LineBytes: 128, SectorBytes: 32, Ways: 4},
		{SizeBytes: 8192, LineBytes: 128, SectorBytes: 32, Ways: 0},
		{SizeBytes: 8192, LineBytes: 128, SectorBytes: 2, Ways: 4},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should fail", i)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("New should reject config %d", i)
		}
	}
}

func TestMissThenHit(t *testing.T) {
	c := small(t)
	if c.Access(0x1000) {
		t.Error("cold access should miss")
	}
	if !c.Access(0x1000) {
		t.Error("second access should hit")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("stats %d/%d, want 1/1", c.Hits, c.Misses)
	}
}

func TestSectorGranularity(t *testing.T) {
	c := small(t)
	c.Access(0x1000) // sector 0 of the line
	if c.Access(0x1020) {
		t.Error("different sector of the same line should sector-miss")
	}
	if c.SectorMisses != 1 {
		t.Errorf("sector misses %d, want 1", c.SectorMisses)
	}
	if !c.Access(0x1020) || !c.Access(0x1000) {
		t.Error("both sectors should now hit")
	}
	// A sector miss does not evict.
	if c.Evictions != 0 {
		t.Error("sector fill should not evict")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small(t) // 16 sets x 4 ways
	// Fill one set: addresses that share set bits (stride = sets*line).
	stride := uint64(16 * 128)
	for i := uint64(0); i < 4; i++ {
		c.Access(i * stride)
	}
	// Touch line 0 to make line 1 the LRU.
	c.Access(0)
	// Allocate a fifth line: must evict line 1 (the LRU), not line 0.
	c.Access(4 * stride)
	if c.Evictions != 1 {
		t.Fatalf("evictions %d, want 1", c.Evictions)
	}
	if !c.Contains(0) {
		t.Error("MRU line evicted")
	}
	if c.Contains(1 * stride) {
		t.Error("LRU line should have been evicted")
	}
}

func TestContainsDoesNotTouch(t *testing.T) {
	c := small(t)
	if c.Contains(0x40) {
		t.Error("empty cache contains nothing")
	}
	c.Access(0x40)
	h, m := c.Hits, c.Misses
	c.Contains(0x40)
	if c.Hits != h || c.Misses != m {
		t.Error("Contains must not perturb stats")
	}
}

func TestResetAndHitRate(t *testing.T) {
	c := small(t)
	if c.Hits != 0 || c.Misses != 0 {
		t.Error("empty cache has counted accesses")
	}
	c.Access(0)
	c.Access(0)
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits/misses %d/%d, want 1/1", c.Hits, c.Misses)
	}
	c.Reset()
	if c.Hits != 0 || c.Misses != 0 || c.Contains(0) {
		t.Error("reset incomplete")
	}
}

// Property: a working set that fits always hits after one warm pass; one
// that exceeds capacity by 2x always evicts under a cyclic sweep.
func TestPropertyWarmupSemantics(t *testing.T) {
	c := small(t) // 8 KiB
	// Fit: 4 KiB of sector-strided accesses.
	for addr := uint64(0); addr < 4096; addr += 32 {
		c.Access(addr)
	}
	for addr := uint64(0); addr < 4096; addr += 32 {
		if !c.Access(addr) {
			t.Fatalf("warm working set missed at %#x", addr)
		}
	}
	c.Reset()
	// Overflow: 16 KiB cyclic sweep thrashes with LRU.
	for pass := 0; pass < 3; pass++ {
		for addr := uint64(0); addr < 16384; addr += 32 {
			c.Access(addr)
		}
	}
	if c.Hits > c.Misses {
		t.Errorf("cyclic over-capacity sweep hits %d > misses %d, want thrashing", c.Hits, c.Misses)
	}
}

// Property: stats always reconcile and residency never exceeds capacity.
func TestPropertyAccounting(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, err := New(Config{SizeBytes: 4096, LineBytes: 128, SectorBytes: 32, Ways: 2})
		if err != nil {
			return false
		}
		n := 200 + rng.Intn(400)
		for i := 0; i < n; i++ {
			c.Access(uint64(rng.Intn(1 << 16)))
		}
		if c.Hits+c.Misses != uint64(n) {
			return false
		}
		return resident(c) <= c.cfg.SizeBytes/c.cfg.LineBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// resident counts the occupied ways.
func resident(c *Cache) int {
	n := 0
	for _, v := range c.valid {
		if v != 0 {
			n++
		}
	}
	return n
}

// refCache is the timestamp-LRU slice the recency-ordered Cache
// replaced, kept as its oracle: every set holds its lines in fill order,
// each stamped with the access clock, and a full set evicts the line
// with the smallest stamp.
type refCache struct {
	cfg       Config
	sets      [][]refLine
	setCount  int
	lineShift uint
	clock     uint64

	Hits, Misses, SectorMisses, Evictions uint64
}

// refLine is one resident reference line.
type refLine struct {
	tag         uint64
	sectorValid uint32
	lastUse     uint64
}

func newRef(cfg Config) (*refCache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	setCount := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	c := &refCache{cfg: cfg, sets: make([][]refLine, setCount), setCount: setCount}
	for shift := cfg.LineBytes; shift > 1; shift >>= 1 {
		c.lineShift++
	}
	return c, nil
}

func (c *refCache) sectorBit(addr uint64) uint32 {
	sector := (addr % uint64(c.cfg.LineBytes)) / uint64(c.cfg.SectorBytes)
	return 1 << sector
}

func (c *refCache) Access(addr uint64) bool {
	c.clock++
	lineAddr := addr >> c.lineShift
	set := int(lineAddr % uint64(c.setCount))
	tag := lineAddr / uint64(c.setCount)
	bit := c.sectorBit(addr)

	lines := c.sets[set]
	for i := range lines {
		if lines[i].tag != tag {
			continue
		}
		lines[i].lastUse = c.clock
		if lines[i].sectorValid&bit != 0 {
			c.Hits++
			return true
		}
		lines[i].sectorValid |= bit
		c.SectorMisses++
		c.Misses++
		return false
	}

	c.Misses++
	if len(lines) < c.cfg.Ways {
		c.sets[set] = append(lines, refLine{tag: tag, sectorValid: bit, lastUse: c.clock})
		return false
	}
	// Strictly-less keeps the lowest index when two lines tie on lastUse.
	victim := 0
	for i := 1; i < len(lines); i++ {
		if lines[i].lastUse < lines[victim].lastUse {
			victim = i
		}
	}
	lines[victim] = refLine{tag: tag, sectorValid: bit, lastUse: c.clock}
	c.Evictions++
	return false
}

func (c *refCache) Contains(addr uint64) bool {
	lineAddr := addr >> c.lineShift
	set := int(lineAddr % uint64(c.setCount))
	tag := lineAddr / uint64(c.setCount)
	bit := c.sectorBit(addr)
	for _, l := range c.sets[set] {
		if l.tag == tag {
			return l.sectorValid&bit != 0
		}
	}
	return false
}

func (c *refCache) Reset() {
	for i := range c.sets {
		c.sets[i] = c.sets[i][:0]
	}
	c.clock = 0
	c.Hits, c.Misses, c.SectorMisses, c.Evictions = 0, 0, 0, 0
}

// TestLRUEvictionTieBreak constructs an exact lastUse tie in the
// timestamp reference — impossible through Access, whose clock is
// strictly monotonic, but reachable by any refactor that batches or
// snapshots timestamps — and demands the victim be the lowest-indexed
// tied line. Eviction order is part of the simulator's determinism
// contract: a tie broken by position in a Go map or by scan direction
// would make replays diverge. The recency-ordered Cache has no stamps
// to tie; TestCacheMatchesReference pins it to this reference.
func TestLRUEvictionTieBreak(t *testing.T) {
	c, err := newRef(Config{SizeBytes: 2 * 128 * 4, LineBytes: 128, SectorBytes: 32, Ways: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Fill set 0 by hand with a tie between ways 1 and 2 for the oldest
	// timestamp; way 0 and 3 are younger.
	c.sets[0] = []refLine{
		{tag: 10, sectorValid: 1, lastUse: 9},
		{tag: 11, sectorValid: 1, lastUse: 3},
		{tag: 12, sectorValid: 1, lastUse: 3},
		{tag: 13, sectorValid: 1, lastUse: 7},
	}
	c.clock = 9

	// The next allocation in set 0 must evict way 1 (tag 11): the lowest
	// index among the lastUse ties.
	newTag := uint64(42)
	addr := newTag * uint64(c.setCount) << c.lineShift // maps to set 0
	if hit := c.Access(addr); hit {
		t.Fatal("expected a miss for a fresh tag")
	}
	if got := c.sets[0][1].tag; got != newTag {
		t.Errorf("way 1 holds tag %d, want the new tag %d (lowest-index tie eviction)", got, newTag)
	}
	if got := c.sets[0][2].tag; got != 12 {
		t.Errorf("way 2 holds tag %d, want the surviving tied line 12", got)
	}
	if c.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Evictions)
	}
}

// cacheOp is one step of a differential stream.
type cacheOp struct {
	kind byte // opAccess, opContains or opReset
	addr uint64
}

const (
	opAccess = iota
	opContains
	opReset
)

// checkAgainstReference replays ops through a fresh Cache and refCache
// of the same geometry, failing on the first differing return value or
// counter.
func checkAgainstReference(t *testing.T, cfg Config, ops []cacheOp) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("%+v: %v", cfg, err)
	}
	ref, err := newRef(cfg)
	if err != nil {
		t.Fatalf("%+v: reference: %v", cfg, err)
	}
	for i, op := range ops {
		switch op.kind {
		case opReset:
			c.Reset()
			ref.Reset()
		case opContains:
			if got, want := c.Contains(op.addr), ref.Contains(op.addr); got != want {
				t.Fatalf("%+v op %d: Contains(%#x) = %v, reference %v", cfg, i, op.addr, got, want)
			}
		default:
			if got, want := c.Access(op.addr), ref.Access(op.addr); got != want {
				t.Fatalf("%+v op %d: Access(%#x) = %v, reference %v", cfg, i, op.addr, got, want)
			}
		}
		got := [4]uint64{c.Hits, c.Misses, c.SectorMisses, c.Evictions}
		want := [4]uint64{ref.Hits, ref.Misses, ref.SectorMisses, ref.Evictions}
		if got != want {
			t.Fatalf("%+v op %d: hits/misses/sector misses/evictions %v, reference %v", cfg, i, got, want)
		}
	}
}

// geometry decodes four bytes into a valid slice geometry: 1-16 ways,
// 16-256-byte lines of 1-16 sectors, 1-32 sets.
func geometry(g [4]byte) Config {
	lineBytes := 16 << (g[1] % 5)
	sectorBytes := lineBytes >> (g[2] % 5)
	ways := 1 + int(g[0]%16)
	sets := 1 + int(g[3]%32)
	return Config{SizeBytes: sets * ways * lineBytes, LineBytes: lineBytes, SectorBytes: sectorBytes, Ways: ways}
}

// TestCacheMatchesReference pins the recency-ordered Cache to the
// timestamp-LRU reference over seeded random geometries and address
// streams that revisit lines, overflow sets and interleave Contains and
// Reset.
func TestCacheMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		var g [4]byte
		rng.Read(g[:])
		cfg := geometry(g)
		// Addresses span up to 3x capacity so sets fill, hit and evict.
		span := 1 + rng.Intn(3*cfg.SizeBytes)
		ops := make([]cacheOp, 500+rng.Intn(1500))
		for i := range ops {
			addr := uint64(rng.Intn(span))
			if i > 0 && rng.Intn(3) == 0 {
				addr = ops[rng.Intn(i)].addr // temporal reuse
			}
			kind := byte(opAccess)
			switch r := rng.Intn(100); {
			case r < 1:
				kind = opReset
			case r < 15:
				kind = opContains
			}
			ops[i] = cacheOp{kind: kind, addr: addr}
		}
		checkAgainstReference(t, cfg, ops)
	}
}

// FuzzCacheAccess replays an arbitrary op stream through the Cache and
// the timestamp-LRU reference. The first four geometry bytes pick the
// slice shape; each stream op is one selector byte (mod 8: 0 resets, 1
// probes Contains, the rest Access) and, for Contains and Access, a
// 16-bit little-endian address scaled by 4.
func FuzzCacheAccess(f *testing.F) {
	f.Add([]byte{3, 3, 2, 15}, []byte{2, 0, 0, 2, 0, 0, 1, 0, 0, 2, 8, 0})
	f.Add([]byte{0, 0, 0, 0}, []byte{2, 1, 0, 2, 2, 0, 2, 1, 0, 1, 1, 0})
	f.Add([]byte{15, 4, 4, 31}, []byte{2, 0, 0x10, 2, 0, 0x20, 0, 2, 0, 0x10, 1, 0, 0x20})
	f.Fuzz(func(t *testing.T, geom, stream []byte) {
		var g [4]byte
		copy(g[:], geom)
		var ops []cacheOp
		for len(stream) > 0 {
			sel := stream[0] % 8
			stream = stream[1:]
			if sel == 0 {
				ops = append(ops, cacheOp{kind: opReset})
				continue
			}
			var a [2]byte
			n := copy(a[:], stream)
			stream = stream[n:]
			kind := byte(opAccess)
			if sel == 1 {
				kind = opContains
			}
			ops = append(ops, cacheOp{kind: kind, addr: uint64(binary.LittleEndian.Uint16(a[:])) << 2})
		}
		checkAgainstReference(t, geometry(g), ops)
	})
}

// locate's reciprocal quotient equals the division it replaces for every
// set count from 1 to 4096 (the modelled slices have 96 to 320) and a
// few larger ones, at line addresses from 0 through the 2^32 cut-over to
// the top of the address space.
func TestLocateMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lines := []uint64{0, 1, 2, 1<<32 - 2, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<57 - 1}
	for i := 0; i < 200; i++ {
		lines = append(lines, uint64(rng.Int63n(1<<32)), rng.Uint64()>>7)
	}
	counts := []int{3 * 4096, 24 * 1024, 48 * 1024}
	for n := 1; n <= 4096; n++ {
		counts = append(counts, n)
	}
	for _, sets := range counts {
		cfg := Config{SizeBytes: sets * 128, LineBytes: 128, SectorBytes: 32, Ways: 1}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range lines {
			_, _, tag, _ := c.locate(line << 7)
			if want := line / uint64(sets); tag != want {
				t.Fatalf("%d sets, line %#x: tag %d, want %d", sets, line, tag, want)
			}
		}
	}
}
