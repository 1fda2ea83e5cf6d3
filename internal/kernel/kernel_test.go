package kernel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gpunoc/internal/gpu"
)

func machine(t *testing.T, sched Scheduler) *Machine {
	t.Helper()
	m, err := NewMachine(gpu.MustNew(gpu.V100()), sched, DefaultOptions())
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
	if n := UniqueLines(addrs, 128); n != 1 {
		t.Errorf("fully coalesced access = %d lines, want 1", n)
	}
	// Stride of one line per lane -> 32 transactions.
	for i := range addrs {
		addrs[i] = 0x1000 + uint64(i*128)
	}
	if n := UniqueLines(addrs, 128); n != 32 {
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
		got := UniqueLines(addrs, 128)
		distinct := map[uint64]bool{}
		for _, a := range addrs {
			distinct[a/128] = true
		}
		if got != len(distinct) || got < 1 || got > n {
			return false
		}
		rng.Shuffle(n, func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
		return UniqueLines(addrs, 128) == got
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
		if got, want := coalesce(nil, addrs, 32), referenceCoalesce(addrs, 32); !sameLines(got, want) {
			t.Errorf("%s: got %x, want %x", c.name, got, want)
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
		return got[0] == prefix[0] && sameLines(got[1:], want) &&
			UniqueLines(addrs, lineBytes) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
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
	if _, err := NewMachine(nil, nil, DefaultOptions()); err == nil {
		t.Error("nil device should fail")
	}
	dev := gpu.MustNew(gpu.V100())
	bad := DefaultOptions()
	bad.IssueGapCycles = -1
	if _, err := NewMachine(dev, nil, bad); err == nil {
		t.Error("negative issue gap should fail")
	}
	bad = DefaultOptions()
	bad.SyncSlice = 999
	if _, err := NewMachine(dev, nil, bad); err == nil {
		t.Error("out-of-range sync slice should fail")
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
	var smids []int
	res, err := m.Launch(6, 32, func(w *Warp) {
		smids = append(smids, w.SMID())
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
	for b, sm := range res.BlockSM {
		if sm != b%84 || smids[b] != sm {
			t.Errorf("block %d on SM %d (reported %d)", b, sm, smids[b])
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
	h, err := NewMachine(gpu.MustNew(gpu.H100()), PinnedScheduler{SM: 0}, DefaultOptions())
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
	opts := DefaultOptions()
	opts.GridSync = true
	opts.SyncSlice = 0                                                  // partition 0
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

// Property: wall time is at least the max per-block time and at least the
// launch overhead; block cycles are non-negative.
func TestLaunchPropertyTimes(t *testing.T) {
	m := machine(t, nil)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		grid := 1 + rng.Intn(8)
		res, err := m.Launch(grid, 32, func(w *Warp) {
			w.Compute(float64(rng.Intn(500)))
			w.LoadCG([]uint64{uint64(rng.Intn(1 << 20))})
		})
		if err != nil {
			return false
		}
		maxBlock := 0.0
		for _, c := range res.BlockCycles {
			if c < 0 {
				return false
			}
			if c > maxBlock {
				maxBlock = c
			}
		}
		return res.Cycles >= maxBlock
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// --- L2 residency model -------------------------------------------------------

func TestModelL2WarmupHitsAndOverflowMisses(t *testing.T) {
	opts := DefaultOptions()
	opts.ModelL2 = true
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
	opts := DefaultOptions()
	opts.ModelL2 = true
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
	if n := UniqueLines(addrs, 128); n != 10 {
		t.Errorf("large-input coalesce = %d, want 10", n)
	}
}
