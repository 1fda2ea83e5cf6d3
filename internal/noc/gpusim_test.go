package noc

import "testing"

// The MC request queue is a ring built at its MCQueue bound, so
// admitting and servicing requests must never allocate, including
// when the ring wraps. This drives the exact Accept / queue.pop cadence
// serviceMCs runs per cycle, starting from a full queue so every
// measured push lands on a wrapped slot.
func TestMCQueueSteadyStateDoesNotAllocate(t *testing.T) {
	st := &mcState{queue: newRing[int](16)}
	p := Packet{ID: 1, Src: 3, Flits: 1}
	for !st.queue.full() {
		if !st.Accept(p, true, 0) {
			t.Fatal("enqueue refused below capacity")
		}
	}
	st.queue.pop()
	avg := testing.AllocsPerRun(1000, func() {
		if !st.Accept(p, true, 0) {
			t.Fatal("steady-state enqueue refused")
		}
		if st.queue.pop() != p.Src {
			t.Fatal("popped wrong request")
		}
	})
	if avg != 0 {
		t.Errorf("steady-state MC enqueue/service allocates %.1f per request, want 0", avg)
	}
}

// Admission is decided at the head flit. The old Accept admitted every
// non-tail flit unconditionally and only refused at the tail when the
// queue was full - a multi-flit request would be half-consumed, wedging
// the wormhole with the tail refused forever.
func TestMCAcceptRefusesAtHeadFlit(t *testing.T) {
	st := &mcState{queue: newRing[int](1)}
	a := Packet{ID: 1, Flits: 2}
	if !st.Accept(a, false, 0) {
		t.Fatal("head flit refused with queue headroom")
	}
	if !st.Accept(a, true, 0) {
		t.Fatal("tail flit refused after head was admitted")
	}
	if st.queue.len() != 1 {
		t.Fatalf("queued %d packets, want 1", st.queue.len())
	}
	// Queue is now full: the next packet must be refused at its HEAD,
	// before any flit is consumed (the old code accepted it here).
	b := Packet{ID: 2, Flits: 2}
	if st.Accept(b, false, 0) {
		t.Fatal("head flit admitted with no queue headroom; tail would wedge")
	}
	// Drain one request; the refused packet's head retries and lands.
	st.queue.pop()
	if !st.Accept(b, false, 0) || !st.Accept(b, true, 0) {
		t.Fatal("retried packet refused after headroom opened")
	}
}

// End-to-end wedge check: with multi-flit requests, the old tail-refusal
// Accept would half-consume a request at a full MC and hold the local
// output forever - the sim would serve almost nothing. Head-flit
// admission must keep the pipeline flowing.
func TestGPUSimMultiFlitRequestsDoNotWedge(t *testing.T) {
	cfg := DefaultGPUSimConfig(1)
	cfg.RequestFlits = 3
	// Slow DRAM so MC queues actually back up and refusals happen.
	cfg.MCServiceCycles = 4
	cfg.Cycles = 6000
	cfg.Warmup = 1000
	res, err := RunGPUSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A wedged sim serves at most a few queue-fills' worth of requests
	// (~6 MCs x 16 queue). A flowing one serves thousands.
	if res.RequestsServed < 1000 {
		t.Errorf("served only %d multi-flit requests; wormhole looks wedged", res.RequestsServed)
	}
	if res.MemUtilization <= 0 {
		t.Errorf("memory utilization %.3f; MCs never worked", res.MemUtilization)
	}
}

// RequestFlits is new; zero keeps the historical single-flit behaviour
// byte-for-byte, and negatives are rejected.
func TestGPUSimRequestFlitsDefaults(t *testing.T) {
	a, err := RunGPUSim(DefaultGPUSimConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	explicit := DefaultGPUSimConfig(7)
	explicit.RequestFlits = 1
	b, err := RunGPUSim(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if a.RequestsServed != b.RequestsServed || a.MemUtilization != b.MemUtilization {
		t.Errorf("RequestFlits=1 diverged from default: %+v vs %+v", a, b)
	}
	bad := DefaultGPUSimConfig(7)
	bad.RequestFlits = -1
	if _, err := RunGPUSim(bad); err == nil {
		t.Error("negative request flits should fail")
	}
}

// The noclint v2 refactor split RunGPUSim's per-cycle loop into hot
// methods, replaced the MC/window maps with node-indexed slices, and
// dropped the payload boxing (replies route by Packet.Src). All of that
// must be behaviour-preserving: these values were captured from the
// pre-refactor implementation, then re-captured once for the simcheck
// round-robin arbiter fix (the pointer used to advance on refused
// grants; see arbiter.commit and EXPERIMENTS.md for the figure deltas:
// served 3125->3123 / 22807->23280, util 0.712625->0.708125 /
// 0.17255->0.175858...).
func TestGPUSimGoldenResults(t *testing.T) {
	small := GPUSimConfig{
		Mesh:             MeshConfig{Width: 4, Height: 4, BufferFlits: 4, Arbiter: RoundRobin},
		ReplyFlits:       2,
		MCServiceCycles:  2,
		MCQueue:          4,
		WindowPerCompute: 4,
		Cycles:           2000,
		Warmup:           200,
		UtilWindow:       100,
		Seed:             7,
	}
	res, err := RunGPUSim(small)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemUtilization != 0.708125 || res.ReplyInterfaceUtilization != 0.7075 || res.RequestsServed != 3123 {
		t.Errorf("small config diverged from capture: util=%v reply=%v served=%d",
			res.MemUtilization, res.ReplyInterfaceUtilization, res.RequestsServed)
	}
	if len(res.UtilSeries) != 20 || res.UtilSeries[0] != 0.69 || res.UtilSeries[19] != 0.7475 {
		t.Errorf("small config UtilSeries diverged: len=%d first=%v last=%v",
			len(res.UtilSeries), res.UtilSeries[0], res.UtilSeries[len(res.UtilSeries)-1])
	}

	def, err := RunGPUSim(DefaultGPUSimConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if def.MemUtilization != 0.17585833333333334 || def.ReplyInterfaceUtilization != 0.52765 || def.RequestsServed != 23280 {
		t.Errorf("default config diverged from capture: util=%v reply=%v served=%d",
			def.MemUtilization, def.ReplyInterfaceUtilization, def.RequestsServed)
	}
}

// Replies used to find their way home through an int payload boxed into
// the request packet - a heap allocation per request on the hot path.
// Now they route by Packet.Src. If that routing broke, each compute
// node's outstanding window would never drain and the sim would serve
// at most one request per node.
func TestGPUSimRepliesReturnToRequester(t *testing.T) {
	cfg := GPUSimConfig{
		Mesh:             MeshConfig{Width: 4, Height: 4, BufferFlits: 4, Arbiter: RoundRobin},
		ReplyFlits:       2,
		MCServiceCycles:  1,
		MCQueue:          8,
		WindowPerCompute: 1, // every served request needs its reply home before the next issues
		Cycles:           3000,
		Warmup:           0,
		UtilWindow:       100,
		Seed:             3,
	}
	res, err := RunGPUSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	compute := int64(cfg.Mesh.Width*cfg.Mesh.Height - cfg.Mesh.Width)
	if res.RequestsServed <= 2*compute {
		t.Errorf("served %d requests with a window of 1; replies are not reaching their requesters", res.RequestsServed)
	}
}

// The hotpathalloc analyzer enforces this structurally; this test
// samples it behaviourally: the per-cycle hot methods allocate nothing
// when the system is saturated (full windows) or idle (drained MCs).
func TestGPUSimHotMethodsDoNotAllocate(t *testing.T) {
	g, err := newGPUSim(GPUSimConfig{
		Mesh:             MeshConfig{Width: 4, Height: 4, BufferFlits: 4, Arbiter: RoundRobin},
		ReplyFlits:       2,
		MCServiceCycles:  2,
		MCQueue:          4,
		WindowPerCompute: 4,
		Cycles:           100,
		UtilWindow:       10,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Saturate every compute window so issue's fast path runs bare.
	for _, n := range g.compute {
		g.outstanding[n] = g.cfg.WindowPerCompute
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if err := g.issue(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("issue() allocates %.1f per cycle at full windows, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if _, _, err := g.serviceMCs(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("serviceMCs() allocates %.1f per cycle when idle, want 0", avg)
	}
}
