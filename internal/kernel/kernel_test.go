package kernel

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gpunoc/internal/cache"
	"gpunoc/internal/gpu"
)

func machine(t *testing.T, sched Scheduler) *Machine {
	t.Helper()
	m, err := NewMachine(gpu.MustNew(gpu.V100()), sched, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// --- Coalescer ----------------------------------------------------------------

func TestCoalesceBasics(t *testing.T) {
	// All 32 lanes in one 128-byte line -> 1 transaction.
	addrs := make([]uint64, 32)
	for i := range addrs {
		addrs[i] = 0x1000 + uint64(i*4)
	}
	if n, _ := countLines(addrs, 128); n != 1 {
		t.Errorf("fully coalesced access = %d lines, want 1", n)
	}
	// Stride of one line per lane -> 32 transactions.
	for i := range addrs {
		addrs[i] = 0x1000 + uint64(i*128)
	}
	if n, _ := countLines(addrs, 128); n != 32 {
		t.Errorf("fully divergent access = %d lines, want 32", n)
	}
}

func TestCoalescePreservesFirstTouchOrder(t *testing.T) {
	addrs := []uint64{0x300, 0x100, 0x310, 0x200}
	lines := coalesce(nil, addrs, 0x100)
	want := []uint64{0x300, 0x100, 0x200}
	if len(lines) != len(want) {
		t.Fatalf("lines = %x, want %x", lines, want)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("lines = %x, want %x", lines, want)
		}
	}
}

// Property: the unique-line count is between 1 and len(addrs), invariant
// under permutation, and exactly the number of distinct line addresses.
func TestCoalescePropertyCount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(32)
		addrs := make([]uint64, n)
		for i := range addrs {
			addrs[i] = uint64(rng.Intn(16)) * 128
		}
		got, _ := countLines(addrs, 128)
		distinct := map[uint64]bool{}
		for _, a := range addrs {
			distinct[a/128] = true
		}
		if got != len(distinct) || got < 1 || got > n {
			return false
		}
		rng.Shuffle(n, func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
		shuffled, _ := countLines(addrs, 128)
		return shuffled == got
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// referenceCoalesce is the brute-force oracle for coalesce: a set of
// seen lines and an ordered list of first touches.
func referenceCoalesce(addrs []uint64, lineBytes int) []uint64 {
	seen := map[uint64]bool{}
	var lines []uint64
	for _, a := range addrs {
		line := a / uint64(lineBytes) * uint64(lineBytes)
		if !seen[line] {
			seen[line] = true
			lines = append(lines, line)
		}
	}
	return lines
}

func sameLines(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Property: coalesce returns exactly the oracle's lines in first-touch
// order. Fixed cases pin the ±32-line mask window around the first
// lane's line; the random generator straddles it too (in range, exactly
// at and just past either edge, below the first line, far away and near
// zero) with unaligned byte offsets, for 32- and 128-byte lines, from
// empty inputs to inputs past the 2*WarpSize cut-over to the map.
func TestCoalesceMatchesReference(t *testing.T) {
	const first = 100
	edges := []struct {
		name  string
		lines []uint64
	}{
		{"empty", nil},
		{"last slot in window", []uint64{first, first + 31, first + 31}},
		{"first slot past window", []uint64{first, first + 32, first + 32}},
		{"lowest slot in window", []uint64{first, first - 32, first - 32}},
		{"just below window", []uint64{first, first - 33, first - 33}},
		{"mixed in and out", []uint64{first, first + 40, first - 40, first + 1, first + 40, first - 40, first + 1}},
		{"first line zero", []uint64{0, 31, 32, 0, 31, 32}},
	}
	for _, c := range edges {
		addrs := make([]uint64, len(c.lines))
		for i, l := range c.lines {
			addrs[i] = l*32 + uint64(i) // unaligned within the line
		}
		want := referenceCoalesce(addrs, 32)
		if got := coalesce(nil, addrs, 32); !sameLines(got, want) {
			t.Errorf("%s: got %x, want %x", c.name, got, want)
		}
		if n, last := countLines(addrs, 32); n != len(want) || (n > 0 && last != want[n-1]) {
			t.Errorf("%s: countLines = (%d, %x), want the count and last of %x", c.name, n, last, want)
		}
	}

	offsets := []int64{0, 1, -1, 5, -5, 31, -31, 32, -32, 33, -33, 63, -63, 64, -64, 1000, -1000}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lineBytes := []int{32, 128}[rng.Intn(2)]
		n := rng.Intn(3*WarpSize + 1)
		if rng.Intn(4) > 0 {
			n = rng.Intn(2*WarpSize + 1)
		}
		first := uint64(rng.Intn(1 << 20))
		if rng.Intn(4) == 0 {
			first = uint64(rng.Intn(8)) // near zero: window slots wrap
		}
		addrs := make([]uint64, n)
		for i := range addrs {
			line := int64(first) + offsets[rng.Intn(len(offsets))]
			if i == 0 {
				line = int64(first)
			}
			addrs[i] = uint64(line)*uint64(lineBytes) + uint64(rng.Intn(lineBytes))
		}
		want := referenceCoalesce(addrs, lineBytes)
		got := coalesce(nil, addrs, lineBytes)
		if !sameLines(got, want) {
			t.Logf("lineBytes %d addrs %x: got %x, want %x", lineBytes, addrs, got, want)
			return false
		}
		// Appending after a non-empty prefix leaves the prefix alone and
		// dedups only the new access.
		prefix := []uint64{7} // unaligned, so no line equals it
		got = coalesce(prefix, addrs, lineBytes)
		n, last := countLines(addrs, lineBytes)
		return got[0] == prefix[0] && sameLines(got[1:], want) &&
			n == len(want) && (n == 0 || last == want[n-1])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// FuzzCoalesce checks coalesce and countLines against referenceCoalesce.
// base is the first lane's address; each following pair of bytes (d, off)
// adds a lane int8(d) lines from base plus off bytes, wrapping modulo
// 2^64, so lanes land inside and outside the ±32-line window, near 0 and
// near 2^64, and past 2*WarpSize lanes. wide selects 128-byte lines over
// 32-byte ones.
func FuzzCoalesce(f *testing.F) {
	f.Add(uint64(0x40000), []byte{1, 4, 2, 8, 31, 0, 32, 0, 0xe0, 0, 0xdf, 0}, false)
	f.Add(uint64(5), []byte{0xff, 0, 0x80, 3, 0x7f, 9, 1, 1}, true)
	f.Add(^uint64(0)-40, []byte{1, 0, 2, 0, 0xfe, 7, 0x40, 0}, false)
	f.Add(uint64(1)<<40, bytes.Repeat([]byte{3, 1, 0xfd, 2, 40, 0}, 30), true)
	f.Fuzz(func(t *testing.T, base uint64, lanes []byte, wide bool) {
		lineBytes := 32
		if wide {
			lineBytes = 128
		}
		addrs := []uint64{base}
		for i := 0; i+1 < len(lanes); i += 2 {
			addrs = append(addrs, base+uint64(int64(int8(lanes[i])))*uint64(lineBytes)+uint64(lanes[i+1]))
		}
		want := referenceCoalesce(addrs, lineBytes)
		if got := coalesce(nil, addrs, lineBytes); !sameLines(got, want) {
			t.Fatalf("lineBytes %d addrs %x: coalesce %x, reference %x", lineBytes, addrs, got, want)
		}
		if n, last := countLines(addrs, lineBytes); n != len(want) || last != want[len(want)-1] {
			t.Fatalf("lineBytes %d addrs %x: countLines (%d, %x), reference %d lines ending %x",
				lineBytes, addrs, n, last, len(want), want[len(want)-1])
		}
	})
}

// A warp-sized LoadCG, StoreCG and LoadCGMiss on a machine without the
// L2 model coalesce into stack scratch: no allocation per warp access.
func TestWarpAccessesDoNotAllocate(t *testing.T) {
	m := machine(t, nil)
	addrs := make([]uint64, WarpSize)
	for i := range addrs {
		addrs[i] = 0x40000 + uint64(i*i*4)
	}
	allocs := map[string]float64{}
	if _, err := m.Launch(1, WarpSize, func(w *Warp) {
		allocs["LoadCG"] = testing.AllocsPerRun(100, func() { w.LoadCG(addrs) })
		allocs["StoreCG"] = testing.AllocsPerRun(100, func() { w.StoreCG(addrs) })
		allocs["LoadCGMiss"] = testing.AllocsPerRun(100, func() { w.LoadCGMiss(addrs) })
	}); err != nil {
		t.Fatal(err)
	}
	for name, n := range allocs {
		if n != 0 {
			t.Errorf("%s allocates %.0f times per warp access, want 0", name, n)
		}
	}
}

// --- Schedulers -----------------------------------------------------------------

func TestStaticSchedulerDeterministic(t *testing.T) {
	s := StaticScheduler{}
	a := s.Assign(10, 4)
	b := s.Assign(10, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("static scheduler must be deterministic")
		}
		if a[i] != i%4 {
			t.Fatalf("static placement %v", a)
		}
	}
	if s.Name() != "static" {
		t.Error("name")
	}
}

func TestRandomSchedulerRotates(t *testing.T) {
	vals := []uint64{3, 3, 5}
	i := 0
	s := RandomScheduler{Rand: func() uint64 { v := vals[i%len(vals)]; i++; return v }}
	a := s.Assign(4, 8)
	if a[0] != 3 || a[1] != 4 || a[3] != 6 {
		t.Errorf("rotated placement = %v", a)
	}
	s.Assign(4, 8) // consumes second value
	c := s.Assign(4, 8)
	if c[0] != 5 {
		t.Errorf("third launch should start at SM5, got %v", c)
	}
	if s.Name() != "random" {
		t.Error("name")
	}
}

func TestRandomSchedulerCoversAllStarts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := RandomScheduler{Rand: rng.Uint64}
	starts := map[int]bool{}
	for i := 0; i < 400; i++ {
		starts[s.Assign(1, 8)[0]] = true
	}
	if len(starts) != 8 {
		t.Errorf("random scheduler reached %d of 8 start SMs", len(starts))
	}
}

func TestPinnedScheduler(t *testing.T) {
	s := PinnedScheduler{SM: 5}
	for _, sm := range s.Assign(3, 8) {
		if sm != 5 {
			t.Fatal("pinned scheduler must place everything on SM 5")
		}
	}
}

func TestListScheduler(t *testing.T) {
	s := ListScheduler{SMs: []int{2, 9}}
	a := s.Assign(4, 16)
	want := []int{2, 9, 2, 9}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("list placement %v, want %v", a, want)
		}
	}
}

func TestSchedulerPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"static zero sms":   func() { StaticScheduler{}.Assign(1, 0) },
		"random nil rand":   func() { RandomScheduler{}.Assign(1, 4) },
		"random zero sms":   func() { RandomScheduler{Rand: func() uint64 { return 0 }}.Assign(1, 0) },
		"pinned range":      func() { PinnedScheduler{SM: 9}.Assign(1, 4) },
		"list empty":        func() { ListScheduler{}.Assign(1, 4) },
		"list out of range": func() { ListScheduler{SMs: []int{7}}.Assign(1, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			f()
		}()
	}
}

// --- Machine -----------------------------------------------------------------

func TestNewMachineValidation(t *testing.T) {
	if _, err := NewMachine(nil, nil, Options{}); err == nil {
		t.Error("nil device should fail")
	}
}

func TestLaunchValidation(t *testing.T) {
	m := machine(t, nil)
	if _, err := m.Launch(0, 32, func(w *Warp) {}); err == nil {
		t.Error("zero grid should fail")
	}
	if _, err := m.Launch(1, 0, func(w *Warp) {}); err == nil {
		t.Error("zero block should fail")
	}
	if _, err := m.Launch(1, 2048, func(w *Warp) {}); err == nil {
		t.Error("oversized block should fail")
	}
}

func TestLaunchPlacementAndIdentity(t *testing.T) {
	m := machine(t, nil)
	smids := make([]int, 6)
	_, err := m.Launch(6, 32, func(w *Warp) {
		smids[w.BlockIdx()] = w.SMID()
		if w.Lanes() != 32 || w.BlockDim() != 32 || w.GridDim() != 6 {
			t.Errorf("warp geometry wrong: %d lanes, block %d, grid %d", w.Lanes(), w.BlockDim(), w.GridDim())
		}
		if w.GlobalThreadIdx(3) != w.BlockIdx()*32+3 {
			t.Error("global thread index wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for b, sm := range smids {
		if sm != b%84 {
			t.Errorf("block %d ran on SM %d, want %d", b, sm, b%84)
		}
	}
}

func TestLaunchPartialWarps(t *testing.T) {
	m := machine(t, nil)
	var lanes []int
	_, err := m.Launch(1, 70, func(w *Warp) { lanes = append(lanes, w.Lanes()) })
	if err != nil {
		t.Fatal(err)
	}
	want := []int{32, 32, 6}
	if len(lanes) != 3 {
		t.Fatalf("warp count = %d, want 3", len(lanes))
	}
	for i := range want {
		if lanes[i] != want[i] {
			t.Fatalf("lane counts %v, want %v", lanes, want)
		}
	}
}

func TestLoadCGAdvancesClockLinearly(t *testing.T) {
	// Fig. 17(a): warp latency grows linearly with unique cache lines.
	m := machine(t, PinnedScheduler{SM: 24})
	timing := func(lines int) float64 {
		var took float64
		_, err := m.Launch(1, 32, func(w *Warp) {
			addrs := make([]uint64, 32)
			for i := range addrs {
				addrs[i] = uint64(i%lines) * 128
			}
			t0 := w.Clock()
			if n := w.LoadCG(addrs); n != lines {
				t.Fatalf("coalesced to %d lines, want %d", n, lines)
			}
			took = w.Clock() - t0
		})
		if err != nil {
			t.Fatal(err)
		}
		return took
	}
	t1, t8, t16, t32 := timing(1), timing(8), timing(16), timing(32)
	if !(t1 < t8 && t8 < t16 && t16 < t32) {
		t.Fatalf("latency not increasing: %v %v %v %v", t1, t8, t16, t32)
	}
	// Approximate linearity: slope between 8->16 and 16->32 comparable.
	s1 := (t16 - t8) / 8
	s2 := (t32 - t16) / 16
	if s1 <= 0 || s2 <= 0 || s1/s2 > 2 || s2/s1 > 2 {
		t.Errorf("slopes %v vs %v not roughly linear", s1, s2)
	}
}

func TestLoadCGEmptyIsFree(t *testing.T) {
	m := machine(t, nil)
	_, err := m.Launch(1, 32, func(w *Warp) {
		t0 := w.Clock()
		if n := w.LoadCG(nil); n != 0 {
			t.Errorf("empty load returned %d", n)
		}
		if w.Clock() != t0 {
			t.Error("empty load should not advance the clock")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLoadCGMissSlower(t *testing.T) {
	m := machine(t, PinnedScheduler{SM: 0})
	var hit, miss float64
	_, err := m.Launch(1, 32, func(w *Warp) {
		addr := []uint64{0x4000}
		t0 := w.Clock()
		w.LoadCG(addr)
		hit = w.Clock() - t0
		t0 = w.Clock()
		w.LoadCGMiss(addr)
		miss = w.Clock() - t0
	})
	if err != nil {
		t.Fatal(err)
	}
	if miss < hit+150 {
		t.Errorf("miss %v should exceed hit %v by the DRAM penalty", miss, hit)
	}
}

func TestComputeAdvancesClock(t *testing.T) {
	m := machine(t, nil)
	_, err := m.Launch(1, 32, func(w *Warp) {
		t0 := w.Clock()
		w.Compute(100)
		w.Compute(-5) // ignored
		if w.Clock()-t0 != 100 {
			t.Errorf("compute advanced %v, want 100", w.Clock()-t0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLoadRemoteShared(t *testing.T) {
	h, err := NewMachine(gpu.MustNew(gpu.H100()), PinnedScheduler{SM: 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dst := h.Device().SMsOfGPC(0)[5]
	_, err = h.Launch(1, 32, func(w *Warp) {
		lat, err := w.LoadRemoteShared(dst)
		if err != nil {
			t.Errorf("remote shared load: %v", err)
		}
		if lat < 180 || lat > 240 {
			t.Errorf("SM-to-SM latency %v outside [180, 240]", lat)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// V100 lacks the network.
	m := machine(t, nil)
	_, err = m.Launch(1, 32, func(w *Warp) {
		if _, err := w.LoadRemoteShared(6); err == nil {
			t.Error("V100 remote shared load should fail")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSameSMBlocksSerialize(t *testing.T) {
	m := machine(t, PinnedScheduler{SM: 0})
	body := func(w *Warp) { w.Compute(1000) }
	one, err := m.Launch(1, 32, body)
	if err != nil {
		t.Fatal(err)
	}
	four, err := m.Launch(4, 32, body)
	if err != nil {
		t.Fatal(err)
	}
	if four.Cycles < 3.5*one.Cycles {
		t.Errorf("4 blocks on one SM took %.0f, single took %.0f; should serialize", four.Cycles, one.Cycles)
	}
}

func TestDistinctSMBlocksParallel(t *testing.T) {
	m := machine(t, nil) // static: blocks 0..3 on SMs 0..3
	body := func(w *Warp) { w.Compute(1000) }
	one, err := m.Launch(1, 32, body)
	if err != nil {
		t.Fatal(err)
	}
	four, err := m.Launch(4, 32, body)
	if err != nil {
		t.Fatal(err)
	}
	if four.Cycles > 1.1*one.Cycles {
		t.Errorf("4 blocks on 4 SMs took %.0f vs %.0f; should run in parallel", four.Cycles, one.Cycles)
	}
}

func TestGridSyncPartitionPenalty(t *testing.T) {
	// On A100, a grid spanning both partitions pays a far-partition flag
	// round trip; one co-located on the flag's partition does not.
	dev := gpu.MustNew(gpu.A100())
	// The flag lives in slice 0, on partition 0.
	opts := Options{GridSync: true}
	near, err := NewMachine(dev, ListScheduler{SMs: []int{0, 8}}, opts) // GPC0, both partition 0
	if err != nil {
		t.Fatal(err)
	}
	far, err := NewMachine(dev, ListScheduler{SMs: []int{0, 4}}, opts) // GPC0 + GPC4 (partition 1)
	if err != nil {
		t.Fatal(err)
	}
	body := func(w *Warp) { w.Compute(100) }
	rn, err := near.Launch(2, 32, body)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := far.Launch(2, 32, body)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Cycles < rn.Cycles+200 {
		t.Errorf("cross-partition sync %.0f should exceed co-located %.0f by the far round trip", rf.Cycles, rn.Cycles)
	}
}

func TestLaunchNoiseVariesAcrossLaunches(t *testing.T) {
	m := machine(t, PinnedScheduler{SM: 3})
	run := func() float64 {
		res, err := m.Launch(1, 32, func(w *Warp) { w.LoadCG([]uint64{0x1234}) })
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	a, b := run(), run()
	if a == b {
		t.Error("consecutive launches should observe fresh measurement noise")
	}
}

// Property: every warp starts after the launch overhead, and wall time
// is at least every warp's final clock.
func TestLaunchPropertyTimes(t *testing.T) {
	m := machine(t, nil)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		grid := 1 + rng.Intn(8)
		var ends []float64
		early := false
		res, err := m.Launch(grid, 32, func(w *Warp) {
			early = early || w.Clock() < launchOverheadCycles
			w.Compute(float64(rng.Intn(500)))
			w.LoadCG([]uint64{uint64(rng.Intn(1 << 20))})
			ends = append(ends, w.Clock())
		})
		if err != nil || early || len(ends) != grid {
			return false
		}
		for _, c := range ends {
			if res.Cycles < c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// --- L2 residency model -------------------------------------------------------

func TestModelL2WarmupHitsAndOverflowMisses(t *testing.T) {
	opts := Options{ModelL2: true}
	m, err := NewMachine(gpu.MustNew(gpu.V100()), PinnedScheduler{SM: 0}, opts)
	if err != nil {
		t.Fatal(err)
	}
	var cold, warm float64
	_, err = m.Launch(1, 1, func(w *Warp) {
		addr := []uint64{0x9000}
		t0 := w.Clock()
		w.LoadCG(addr)
		cold = w.Clock() - t0
		t0 = w.Clock()
		w.LoadCG(addr)
		warm = w.Clock() - t0
	})
	if err != nil {
		t.Fatal(err)
	}
	if cold < warm+150 {
		t.Errorf("cold access %v should pay the DRAM fill over warm %v", cold, warm)
	}
	if rate := m.L2HitRate(); rate != 0.5 {
		t.Errorf("hit rate %v, want 0.5 (one miss, one hit)", rate)
	}
	m.ResetL2()
	if m.L2HitRate() != 0 {
		t.Error("reset should clear cache stats")
	}
}

func TestModelL2OffByDefault(t *testing.T) {
	m := machine(t, PinnedScheduler{SM: 0})
	if m.L2HitRate() != 0 {
		t.Error("no cache model means no hit rate")
	}
	m.ResetL2() // must be a no-op, not a panic
}

func TestStoreCG(t *testing.T) {
	m := machine(t, PinnedScheduler{SM: 0})
	_, err := m.Launch(1, 32, func(w *Warp) {
		if n := w.StoreCG(nil); n != 0 {
			t.Errorf("empty store returned %d", n)
		}
		addrs := make([]uint64, 32)
		for i := range addrs {
			addrs[i] = uint64(i) * 32
		}
		t0 := w.Clock()
		if n := w.StoreCG(addrs); n != 32 {
			t.Errorf("store coalesced to %d sectors, want 32", n)
		}
		if w.Clock() <= t0 {
			t.Error("store should advance the clock")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStoreCGWarmsModelledL2(t *testing.T) {
	opts := Options{ModelL2: true}
	m, err := NewMachine(gpu.MustNew(gpu.V100()), PinnedScheduler{SM: 0}, opts)
	if err != nil {
		t.Fatal(err)
	}
	var storeTime, loadTime float64
	_, err = m.Launch(1, 1, func(w *Warp) {
		addr := []uint64{0xabc0}
		t0 := w.Clock()
		w.StoreCG(addr) // write-allocates without a DRAM fill
		storeTime = w.Clock() - t0
		t0 = w.Clock()
		w.LoadCG(addr) // hits the just-written line
		loadTime = w.Clock() - t0
	})
	if err != nil {
		t.Fatal(err)
	}
	if storeTime > 300 {
		t.Errorf("store %v should not pay a DRAM fill", storeTime)
	}
	if loadTime > 300 {
		t.Errorf("load after store %v should hit", loadTime)
	}
}

func TestMachineAccessorsAndSchedulerSwap(t *testing.T) {
	m := machine(t, nil)
	if m.Scheduler().Name() != "static" {
		t.Errorf("default scheduler %q", m.Scheduler().Name())
	}
	m.SetScheduler(PinnedScheduler{SM: 3})
	if m.Scheduler().Name() != "pinned(3)" {
		t.Errorf("swapped scheduler %q", m.Scheduler().Name())
	}
	if (ListScheduler{SMs: []int{1}}).Name() != "list" {
		t.Error("list name")
	}
	if m.Device() == nil {
		t.Error("device accessor")
	}
}

func TestCoalesceLargeInputUsesMap(t *testing.T) {
	// More than 2*WarpSize addresses exercises the map-based path.
	addrs := make([]uint64, 200)
	for i := range addrs {
		addrs[i] = uint64(i%10) * 128
	}
	if n, _ := countLines(addrs, 128); n != 10 {
		t.Errorf("large-input coalesce = %d, want 10", n)
	}
}

// --- Lockstep reference -------------------------------------------------------

// The canonical Devices answer from latency tables; a config equal to
// the canonical one except in name answers from the floorplan
// arithmetic. One seeded stream of LoadCG, StoreCG and LoadCGMiss
// accesses from every SM, with the L2 modelled, must leave both
// machines' warps in bit-identical states after every access.
func TestWarpLockstepTablesVsArithmetic(t *testing.T) {
	opts := Options{ModelL2: true}
	for _, cfg := range gpu.AllConfigs() {
		ref := cfg
		ref.Name += "-arith"
		var ms [2]*Machine
		for i, c := range []gpu.Config{cfg, ref} {
			m, err := NewMachine(gpu.MustNew(c), nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			m.launchCount = 3
			ms[i] = m
		}
		rng := rand.New(rand.NewSource(int64(cfg.Seed)))
		addrs := make([]uint64, WarpSize)
		for step := 0; step < 3000; step++ {
			sm := rng.Intn(cfg.SMs())
			var ws [2]*Warp
			for i, m := range ms {
				ws[i] = &Warp{m: m, sm: sm, lanes: WarpSize, now: float64(step), iter: uint64(step) << 16}
			}
			for a := 0; a < 4; a++ {
				// A 2 MiB working set, revisited, so accesses both hit
				// and miss; the stride picks 1 to 32 lines per access.
				base := uint64(rng.Intn(1<<21)) &^ 3
				stride := uint64(4) << uint(rng.Intn(8))
				for l := range addrs {
					addrs[l] = base + uint64(l)*stride
				}
				op := rng.Intn(3)
				var n [2]int
				for i, w := range ws {
					switch op {
					case 0:
						n[i] = w.LoadCG(addrs)
					case 1:
						n[i] = w.StoreCG(addrs)
					default:
						n[i] = w.LoadCGMiss(addrs)
					}
				}
				if n[0] != n[1] || ws[0].Clock() != ws[1].Clock() || ms[0].L2HitRate() != ms[1].L2HitRate() {
					t.Fatalf("%s step %d op %d: tables give (%d, %v, %v), arithmetic (%d, %v, %v)",
						cfg.Name, step, op, n[0], ws[0].Clock(), ms[0].L2HitRate(),
						n[1], ws[1].Clock(), ms[1].L2HitRate())
				}
			}
		}
		if r := ms[0].L2HitRate(); r == 0 || r == 1 {
			t.Errorf("%s: hit rate %v; the stream should both hit and miss", cfg.Name, r)
		}
	}
}

// refSlice is a timestamp-LRU L2 slice with the geometry NewMachine
// gives each modelled slice: every access stamps its line, and a full
// set evicts the line with the oldest stamp. It shares no code with
// internal/cache.
type refSlice struct {
	cfg   cache.Config
	sets  [][]refWay
	clock uint64

	hits, misses uint64
}

type refWay struct {
	tag, stamp uint64
	valid      uint32
}

func newRefSlice(cfg cache.Config) *refSlice {
	return &refSlice{cfg: cfg, sets: make([][]refWay, cfg.SizeBytes/(cfg.LineBytes*cfg.Ways))}
}

func (c *refSlice) access(addr uint64) bool {
	c.clock++
	line := addr / uint64(c.cfg.LineBytes)
	set := &c.sets[line%uint64(len(c.sets))]
	tag := line / uint64(len(c.sets))
	bit := uint32(1) << (addr % uint64(c.cfg.LineBytes) / uint64(c.cfg.SectorBytes))
	for i := range *set {
		w := &(*set)[i]
		if w.tag != tag {
			continue
		}
		w.stamp = c.clock
		if w.valid&bit != 0 {
			c.hits++
			return true
		}
		w.valid |= bit
		c.misses++
		return false
	}
	c.misses++
	if len(*set) < c.cfg.Ways {
		*set = append(*set, refWay{tag: tag, stamp: c.clock, valid: bit})
		return false
	}
	oldest := 0
	for i, w := range *set {
		if w.stamp < (*set)[oldest].stamp {
			oldest = i
		}
	}
	(*set)[oldest] = refWay{tag: tag, stamp: c.clock, valid: bit}
	return false
}

// refWarp replays warp accesses from their definitions: referenceCoalesce
// lists the sectors, refSlice decides residency, and a Device built from
// a renamed config (which answers from the floorplan arithmetic, not the
// canonical latency tables) prices each access.
type refWarp struct {
	dev    *gpu.Device
	l2     []*refSlice // nil without the L2 model
	sm     int
	now    float64
	iter   uint64
	launch uint64
}

func (r *refWarp) access(op int, addrs []uint64) int {
	if len(addrs) == 0 {
		return 0
	}
	sectors := referenceCoalesce(addrs, SectorBytes)
	n := len(sectors)
	last := sectors[n-1]
	slice := r.dev.ServingSlice(r.sm, last)
	r.iter++
	lat := r.dev.L2HitLatency(r.sm, slice, r.iter^r.launch<<32)
	switch op {
	case 0: // LoadCG
		if r.l2 != nil {
			missed := false
			for _, s := range sectors {
				if !r.l2[r.dev.ServingSlice(r.sm, s)].access(s) {
					missed = true
				}
			}
			if missed {
				lat += r.dev.L2MissPenalty(r.sm, r.dev.HomeMP(last), r.iter)
			}
		}
	case 1: // StoreCG
		if r.l2 != nil {
			for _, s := range sectors {
				r.l2[r.dev.ServingSlice(r.sm, s)].access(s)
			}
		}
	default: // LoadCGMiss
		lat += r.dev.L2MissPenalty(r.sm, r.dev.HomeMP(last), r.iter)
	}
	r.now += float64(lat) + IssueGapCycles*float64(n-1)
	return n
}

func (r *refWarp) counts() (hits, misses uint64) {
	for _, c := range r.l2 {
		hits += c.hits
		misses += c.misses
	}
	return hits, misses
}

func machineCounts(m *Machine) (hits, misses uint64) {
	for _, c := range m.l2 {
		hits += c.Hits
		misses += c.Misses
	}
	return hits, misses
}

// lockstepAddrs fills one access of a seeded stream over a 2 MiB working
// set: a strided access of 2 to 32 lanes (1 to 32 sectors), a single
// address, a warp with lanes beyond the ±32-sector coalescing window, or
// 65 to 128 lanes (past the warp-sized path).
func lockstepAddrs(rng *rand.Rand, buf []uint64) []uint64 {
	base := uint64(rng.Intn(1<<21)) &^ 3
	switch rng.Intn(4) {
	case 0:
		stride := uint64(4) << uint(rng.Intn(8))
		addrs := buf[:2+rng.Intn(WarpSize-1)]
		for l := range addrs {
			addrs[l] = base + uint64(l)*stride
		}
		return addrs
	case 1:
		return append(buf[:0], base)
	case 2:
		addrs := buf[:WarpSize]
		for l := range addrs {
			addrs[l] = base + uint64(rng.Intn(8))*32
			if rng.Intn(4) == 0 {
				addrs[l] = uint64(rng.Intn(1<<21)) &^ 3
			}
		}
		return addrs
	default:
		addrs := buf[:2*WarpSize+1+rng.Intn(2*WarpSize)]
		for l := range addrs {
			addrs[l] = base + uint64(rng.Intn(96))*32
		}
		return addrs
	}
}

// TestWarpLockstepRuntimeVsReference runs LoadCG, StoreCG and LoadCGMiss
// with the L2 model off and on, one seeded address stream per
// generation, beside refWarp. After every access the return count, the
// bit pattern of Clock() and the L2 hit and miss totals must agree.
func TestWarpLockstepRuntimeVsReference(t *testing.T) {
	for _, cfg := range gpu.AllConfigs() {
		arith := cfg
		arith.Name += "-arith"
		refDev := gpu.MustNew(arith)
		for _, modelL2 := range []bool{false, true} {
			opts := Options{ModelL2: modelL2}
			m, err := NewMachine(gpu.MustNew(cfg), nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			m.launchCount = 5
			var refL2 []*refSlice
			if modelL2 {
				perSlice := cfg.L2SizeMiB * 1024 * 1024 / cfg.L2Slices
				for range cfg.L2Slices {
					refL2 = append(refL2, newRefSlice(cache.DefaultSliceConfig(perSlice)))
				}
			}
			rng := rand.New(rand.NewSource(int64(cfg.Seed)))
			buf := make([]uint64, 4*WarpSize)
			for step := 0; step < 1500; step++ {
				sm := rng.Intn(cfg.SMs())
				w := &Warp{m: m, sm: sm, lanes: WarpSize, now: float64(step), iter: uint64(step) << 16}
				ref := &refWarp{dev: refDev, l2: refL2, sm: sm, now: w.now, iter: w.iter, launch: m.launchCount}
				for a := 0; a < 4; a++ {
					addrs := lockstepAddrs(rng, buf)
					op := rng.Intn(3)
					var got int
					switch op {
					case 0:
						got = w.LoadCG(addrs)
					case 1:
						got = w.StoreCG(addrs)
					default:
						got = w.LoadCGMiss(addrs)
					}
					want := ref.access(op, addrs)
					gh, gm := machineCounts(m)
					wh, wm := ref.counts()
					if got != want || math.Float64bits(w.Clock()) != math.Float64bits(ref.now) || gh != wh || gm != wm {
						t.Fatalf("%s L2 %v step %d op %d, %d lanes: runtime (%d, %v, %d hits, %d misses), reference (%d, %v, %d, %d)",
							cfg.Name, modelL2, step, op, len(addrs), got, w.Clock(), gh, gm, want, ref.now, wh, wm)
					}
				}
			}
			if h, mi := machineCounts(m); modelL2 && (h == 0 || mi == 0) {
				t.Errorf("%s: %d hits, %d misses; the stream should both hit and miss", cfg.Name, h, mi)
			}
		}
	}
}

// Every launch starts its SMs idle and allocates no per-SM state: a
// launch after others on the same SMs takes exactly as long as the first.
func TestLaunchStartsFromIdleSMs(t *testing.T) {
	m := machine(t, PinnedScheduler{SM: 5})
	body := func(w *Warp) { w.Compute(1000) }
	const want = 3 * (20 + 1000) // three serialized blocks, launch overhead each
	for i := 0; i < 3; i++ {
		res, err := m.Launch(3, 32, body)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles != want {
			t.Fatalf("launch %d on SM 5 took %v cycles, want %v", i, res.Cycles, want)
		}
	}
	m.SetScheduler(ListScheduler{SMs: []int{5, 6}})
	if res, err := m.Launch(2, 32, body); err != nil || res.Cycles != 1020 {
		t.Fatalf("two blocks on SMs 5 and 6 after SM 5 ran took %v cycles (err %v), want 1020", res.Cycles, err)
	}
	// The scheduler's placement and the one Warp the kernel receives are
	// all a launch may allocate.
	if n := testing.AllocsPerRun(100, func() { m.Launch(1, 32, body) }); n > 2 {
		t.Errorf("a one-block launch allocates %.0f times, want at most 2", n)
	}
}
