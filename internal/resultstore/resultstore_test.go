package resultstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpunoc/internal/gpu"
	"gpunoc/internal/obs"
)

// fakeEntry builds a deterministic entry whose payload identifies the
// key, padded to a controllable size.
func fakeEntry(key Key, pad int) *Entry {
	body := []byte(fmt.Sprintf("payload(%s)%s", key, bytes.Repeat([]byte("x"), pad)))
	return &Entry{
		JSON:     append([]byte("json:"), body...),
		CSV:      append([]byte("csv:"), body...),
		Text:     append([]byte("text:"), body...),
		Markdown: append([]byte("md:"), body...),
	}
}

// countingComputer counts invocations per key and delegates to fakeEntry.
type countingComputer struct {
	mu    sync.Mutex
	calls map[Key]int
	pad   int
	// gate, when non-nil, blocks every compute until released — the
	// lever the singleflight test uses to pile waiters onto a cold key.
	gate chan struct{}
}

func (c *countingComputer) compute(key Key) (*Entry, error) {
	c.mu.Lock()
	if c.calls == nil {
		c.calls = map[Key]int{}
	}
	c.calls[key]++
	gate := c.gate
	c.mu.Unlock()
	if gate != nil {
		// No waiter's context reaches the fill: fills are abandoned by
		// detaching waiters, never interrupted by them.
		<-gate
	}
	return fakeEntry(key, c.pad), nil
}

func (c *countingComputer) callCount(key Key) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[key]
}

func key(gen gpu.Generation, exp string) Key { return Key{GPU: gen, Exp: exp, Quick: true} }

func TestColdThenWarm(t *testing.T) {
	comp := &countingComputer{}
	reg := obs.New()
	s, err := New(Options{Compute: comp.compute, Obs: reg.Scope("resultstore")})
	if err != nil {
		t.Fatal(err)
	}
	k := key(gpu.GenV100, "fig1")

	e1, out, err := s.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if out != OutcomeMiss {
		t.Errorf("cold Get outcome = %s, want miss", out)
	}
	e2, out, err := s.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if out != OutcomeHit {
		t.Errorf("warm Get outcome = %s, want hit", out)
	}
	if !bytes.Equal(e1.JSON, e2.JSON) || !bytes.Equal(e1.Text, e2.Text) {
		t.Error("warm bytes differ from cold bytes")
	}
	if n := comp.callCount(k); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
	if got := reg.Scope("resultstore").Counter("hit").Value(); got != 1 {
		t.Errorf("hit counter = %d, want 1", got)
	}
	if got := reg.Scope("resultstore").Counter("miss").Value(); got != 1 {
		t.Errorf("miss counter = %d, want 1", got)
	}
}

// TestSingleflightCoalescing piles N concurrent waiters on one cold key
// while the compute is gated shut, then releases it: exactly one
// simulation must run, and every waiter must receive identical bytes.
func TestSingleflightCoalescing(t *testing.T) {
	comp := &countingComputer{gate: make(chan struct{})}
	reg := obs.New()
	s, err := New(Options{Compute: comp.compute, Obs: reg.Scope("resultstore")})
	if err != nil {
		t.Fatal(err)
	}
	k := key(gpu.GenA100, "fig9")

	const waiters = 64
	var wg sync.WaitGroup
	var coalesced atomic.Int64
	entries := make([]*Entry, waiters)
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, out, err := s.Get(k)
			entries[i], errs[i] = e, err
			if out == OutcomeCoalesced {
				coalesced.Add(1)
			}
		}(i)
	}
	// Wait until the one computer is inside compute (call count 1) and
	// then give stragglers a moment to pile onto the in-flight call.
	for comp.callCount(k) == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(comp.gate)
	wg.Wait()

	if n := comp.callCount(k); n != 1 {
		t.Fatalf("compute ran %d times for one cold key, want exactly 1", n)
	}
	for i := range entries {
		if errs[i] != nil {
			t.Fatalf("waiter %d error: %v", i, errs[i])
		}
		if !bytes.Equal(entries[i].JSON, entries[0].JSON) {
			t.Fatalf("waiter %d received different bytes", i)
		}
	}
	if got := reg.Scope("resultstore").Counter("coalesced").Value(); got != coalesced.Load() {
		t.Errorf("coalesced counter = %d, want %d", got, coalesced.Load())
	}
	if coalesced.Load() == 0 {
		t.Error("no waiter coalesced; the gate did not hold the compute open")
	}
}

func TestLRUEvictionUnderByteBudget(t *testing.T) {
	comp := &countingComputer{pad: 100}
	s, err := New(Options{Compute: comp.compute, MaxBytes: 1600})
	if err != nil {
		t.Fatal(err)
	}
	k1 := key(gpu.GenV100, "fig1")
	k2 := key(gpu.GenV100, "fig2")
	k3 := key(gpu.GenV100, "fig3")

	mustGet := func(k Key, want Outcome) {
		t.Helper()
		_, out, err := s.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if out != want {
			t.Fatalf("Get(%s) outcome = %s, want %s", k, out, want)
		}
	}

	mustGet(k1, OutcomeMiss)
	mustGet(k2, OutcomeMiss)
	if s.Len() != 2 {
		t.Fatalf("resident entries = %d, want 2 within budget", s.Len())
	}
	// Touch k1 so k2 is the LRU, then overflow with k3: k2 must go.
	mustGet(k1, OutcomeHit)
	mustGet(k3, OutcomeMiss)
	if s.Contains(k2) {
		t.Error("k2 still resident; LRU eviction picked the wrong victim")
	}
	if !s.Contains(k1) || !s.Contains(k3) {
		t.Error("recently used k1 or fresh k3 was evicted")
	}
	if s.opts.MaxBytes > 0 && s.Bytes() > s.opts.MaxBytes {
		t.Errorf("resident bytes %d exceed budget %d", s.Bytes(), s.opts.MaxBytes)
	}
	// A re-request of the victim recomputes.
	mustGet(k2, OutcomeMiss)
	if n := comp.callCount(k2); n != 2 {
		t.Errorf("k2 computed %d times, want 2 (evicted once)", n)
	}
}

func TestOversizeEntryServedUncached(t *testing.T) {
	comp := &countingComputer{pad: 10_000}
	s, err := New(Options{Compute: comp.compute, MaxBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	k := key(gpu.GenH100, "fig13")
	if _, out, err := s.Get(k); err != nil || out != OutcomeMiss {
		t.Fatalf("Get = (%s, %v), want miss", out, err)
	}
	if s.Len() != 0 {
		t.Errorf("oversize entry was cached (%d resident)", s.Len())
	}
	// Still servable, just recomputed each time.
	if _, out, _ := s.Get(k); out != OutcomeMiss {
		t.Errorf("second Get outcome = %s, want miss (uncached oversize)", out)
	}
}

// TestDiskSpillRoundTrip: a store with a spill dir persists computed
// entries; a fresh store over the same dir serves them byte-identically
// without a single simulation.
func TestDiskSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	comp1 := &countingComputer{pad: 33}
	s1, err := New(Options{Compute: comp1.compute, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	k := key(gpu.GenV100, "table1")
	cold, out, err := s1.Get(k)
	if err != nil || out != OutcomeMiss {
		t.Fatalf("cold Get = (%s, %v), want miss", out, err)
	}

	comp2 := &countingComputer{pad: 33}
	reg := obs.New()
	s2, err := New(Options{Compute: comp2.compute, SpillDir: dir, Obs: reg.Scope("resultstore")})
	if err != nil {
		t.Fatal(err)
	}
	warm, out, err := s2.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if out != OutcomeSpill {
		t.Errorf("restarted Get outcome = %s, want spill", out)
	}
	if comp2.callCount(k) != 0 {
		t.Errorf("restarted store simulated %d times, want 0", comp2.callCount(k))
	}
	if !bytes.Equal(cold.JSON, warm.JSON) || !bytes.Equal(cold.CSV, warm.CSV) ||
		!bytes.Equal(cold.Text, warm.Text) || !bytes.Equal(cold.Markdown, warm.Markdown) {
		t.Error("spill round-trip bytes differ from the computed entry")
	}
	if got := reg.Scope("resultstore").Counter("spill_load").Value(); got != 1 {
		t.Errorf("spill_load counter = %d, want 1", got)
	}
	// Once loaded it is resident: the next Get is a plain hit.
	if _, out, _ := s2.Get(k); out != OutcomeHit {
		t.Errorf("post-spill Get outcome = %s, want hit", out)
	}
}

func TestComputeErrorNotCached(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	s, err := New(Options{Compute: func(Key) (*Entry, error) {
		calls.Add(1)
		return nil, boom
	}})
	if err != nil {
		t.Fatal(err)
	}
	k := key(gpu.GenV100, "fig1")
	for i := 0; i < 3; i++ {
		if _, _, err := s.Get(k); !errors.Is(err, boom) {
			t.Fatalf("Get err = %v, want boom", err)
		}
	}
	if calls.Load() != 3 {
		t.Errorf("compute ran %d times, want 3 (errors are not cached)", calls.Load())
	}
	if s.Len() != 0 {
		t.Errorf("error left %d resident entries", s.Len())
	}
}

func TestEvictionTieBreaksToSmallestKey(t *testing.T) {
	comp := &countingComputer{pad: 100}
	s, err := New(Options{Compute: comp.compute, MaxBytes: 1600})
	if err != nil {
		t.Fatal(err)
	}
	ka := key(gpu.GenA100, "fig1") // "a100/fig1?quick=true"
	kv := key(gpu.GenV100, "fig1") // "v100/fig1?quick=true"
	if _, _, err := s.Get(kv); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(ka); err != nil {
		t.Fatal(err)
	}
	// Force an exact recency tie — unreachable through Get, whose tick
	// is strictly monotonic, but the determinism contract must survive
	// refactors that batch stamps.
	s.mu.Lock()
	for _, c := range s.entries {
		c.lastUse = 7
	}
	s.evictLocked()
	s.mu.Unlock()
	if s.Contains(ka) {
		t.Error("tie kept the smallest canonical key; want it evicted first")
	}
	if !s.Contains(kv) {
		t.Error("v100 key should have survived the tie")
	}
}

// TestDetachedWaiterLeavesFillRunning is the deadline contract in one
// scene: a waiter with a dead context detaches with ctx.Err() while the
// fill is wedged open, and when the fill finally completes it still
// populates the cache — the abandoned work is the next caller's hit.
func TestDetachedWaiterLeavesFillRunning(t *testing.T) {
	comp := &countingComputer{gate: make(chan struct{})}
	reg := obs.New()
	s, err := New(Options{Compute: comp.compute, Obs: reg.Scope("resultstore")})
	if err != nil {
		t.Fatal(err)
	}
	k := key(gpu.GenV100, "fig1")

	ctx, cancel := context.WithCancel(context.Background())
	detached := make(chan error, 1)
	go func() {
		_, _, err := s.GetContext(ctx, k)
		detached <- err
	}()
	for comp.callCount(k) == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-detached; !errors.Is(err, context.Canceled) {
		t.Fatalf("detached waiter err = %v, want context.Canceled", err)
	}
	if got := reg.Scope("resultstore").Counter("canceled").Value(); got != 1 {
		t.Errorf("canceled counter = %d, want 1", got)
	}

	// The fill is still alive; releasing it must cache the entry.
	close(comp.gate)
	s.Wait()
	if !s.Contains(k) {
		t.Fatal("abandoned fill did not populate the cache")
	}
	if _, out, err := s.Get(k); err != nil || out != OutcomeHit {
		t.Errorf("post-abandon Get = (%s, %v), want hit", out, err)
	}
	if n := comp.callCount(k); n != 1 {
		t.Errorf("compute ran %d times, want 1 (abandonment must not recompute)", n)
	}
}

// TestCoalescedWaiterDetachesIndependently: of two waiters on one
// in-flight fill, cancelling one leaves the other to receive the entry.
func TestCoalescedWaiterDetachesIndependently(t *testing.T) {
	comp := &countingComputer{gate: make(chan struct{})}
	s, err := New(Options{Compute: comp.compute})
	if err != nil {
		t.Fatal(err)
	}
	k := key(gpu.GenA100, "fig9")

	patient := make(chan error, 1)
	go func() {
		_, _, err := s.Get(k)
		patient <- err
	}()
	for comp.callCount(k) == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.GetContext(ctx, k); !errors.Is(err, context.Canceled) {
		t.Fatalf("impatient waiter err = %v, want context.Canceled", err)
	}
	close(comp.gate)
	if err := <-patient; err != nil {
		t.Fatalf("patient waiter err = %v after the other detached", err)
	}
	if n := comp.callCount(k); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
}

// TestDrainFinishesDetachedFill is the shutdown contract: once every
// waiter on a cold key has detached, as the HTTP server's own drain
// leaves them, Wait still returns only after the fill has finished, and
// by then the entry is resident and spilled, so nothing the fill
// computed is lost to the restart.
func TestDrainFinishesDetachedFill(t *testing.T) {
	dir := t.TempDir()
	comp := &countingComputer{gate: make(chan struct{})}
	s, err := New(Options{Compute: comp.compute, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	k := Key{GPU: gpu.GenH100, Exp: "fig18"}
	spill := filepath.Join(dir, k.ContentAddress()+".json")

	ctx, cancel := context.WithCancel(context.Background())
	const waiters = 3
	detached := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, _, err := s.GetContext(ctx, k)
			detached <- err
		}()
	}
	for comp.callCount(k) == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	for i := 0; i < waiters; i++ {
		if err := <-detached; !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter %d err = %v, want context.Canceled", i, err)
		}
	}
	if s.Contains(k) {
		t.Fatal("entry resident before its fill finished")
	}
	if _, err := os.Stat(spill); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("spill file before the fill finished: stat err = %v", err)
	}

	waited := make(chan struct{})
	go func() { s.Wait(); close(waited) }()
	select {
	case <-waited:
		t.Fatal("Wait returned while the detached fill was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(comp.gate)
	<-waited
	if !s.Contains(k) {
		t.Error("drained fill is not resident")
	}
	if _, err := os.Stat(spill); err != nil {
		t.Errorf("drained fill left no spill file: %v", err)
	}
	if n := comp.callCount(k); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
}

// TestSpillByteCapPrunesOldest drives the spill past its byte budget
// and proves the cap holds: the oldest files are removed first, every
// removal ticks evicted_spill, and a warm-restarted store on the same
// directory serves the survivors from spill while recomputing the
// pruned keys from scratch.
func TestSpillByteCapPrunesOldest(t *testing.T) {
	// Learn one spill file's on-disk size with an unbounded probe store,
	// so the capped store's budget can be sized in entries.
	probeDir := t.TempDir()
	probe, err := New(Options{Compute: (&countingComputer{pad: 64}).compute, SpillDir: probeDir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := probe.Get(key(gpu.GenV100, "ex1")); err != nil {
		t.Fatal(err)
	}
	fileSize := probe.SpillBytes()
	if fileSize <= 0 {
		t.Fatalf("probe spill accounted %d bytes, want > 0", fileSize)
	}

	// Room for two files (all keys render the same payload size), plus
	// slack for the few bytes of key-string variation.
	dir := t.TempDir()
	comp := &countingComputer{pad: 64}
	reg := obs.New()
	s, err := New(Options{
		Compute:       comp.compute,
		SpillDir:      dir,
		SpillMaxBytes: 2*fileSize + fileSize/2,
		Obs:           reg.Scope("resultstore"),
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := []Key{key(gpu.GenV100, "ex1"), key(gpu.GenV100, "ex2"),
		key(gpu.GenV100, "ex3"), key(gpu.GenV100, "ex4")}
	for _, k := range keys {
		if _, out, err := s.Get(k); err != nil || out != OutcomeMiss {
			t.Fatalf("Get(%s) = (%s, %v), want miss", k, out, err)
		}
	}
	if got := reg.Scope("resultstore").Counter("evicted_spill").Value(); got != 2 {
		t.Errorf("evicted_spill = %d, want 2 (4 written into a 2-entry budget)", got)
	}
	if got := s.SpillBytes(); got > 2*fileSize+fileSize/2 {
		t.Errorf("spill bytes %d exceed the %d budget", got, 2*fileSize+fileSize/2)
	}
	if got := reg.Scope("resultstore").Gauge("spill_bytes").Value(); got != s.SpillBytes() {
		t.Errorf("spill_bytes gauge = %d, accounting says %d", got, s.SpillBytes())
	}

	// Warm restart on the pruned directory: the two newest keys load
	// from spill, the two oldest were pruned and must recompute.
	comp2 := &countingComputer{pad: 64}
	s2, err := New(Options{Compute: comp2.compute, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[2:] {
		if _, out, err := s2.Get(k); err != nil || out != OutcomeSpill {
			t.Errorf("restarted Get(%s) = (%s, %v), want spill", k, out, err)
		}
	}
	for _, k := range keys[:2] {
		if _, out, err := s2.Get(k); err != nil || out != OutcomeMiss {
			t.Errorf("restarted Get(%s) = (%s, %v), want miss (file was pruned)", k, out, err)
		}
		if n := comp2.callCount(k); n != 1 {
			t.Errorf("pruned key %s recomputed %d times, want 1", k, n)
		}
	}
}

// TestSpillAdoptionPrunesInheritedFiles restarts a store over an
// existing spill population with a budget smaller than the inherited
// bytes: adoption must prune down to the budget immediately instead of
// carrying an oversized spill forever.
func TestSpillAdoptionPrunesInheritedFiles(t *testing.T) {
	dir := t.TempDir()
	writer, err := New(Options{Compute: (&countingComputer{pad: 64}).compute, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	keys := []Key{key(gpu.GenA100, "ex1"), key(gpu.GenA100, "ex2"), key(gpu.GenA100, "ex3")}
	for _, k := range keys {
		if _, _, err := writer.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	perFile := writer.SpillBytes() / int64(len(keys))

	reg := obs.New()
	s, err := New(Options{
		Compute:       (&countingComputer{pad: 64}).compute,
		SpillDir:      dir,
		SpillMaxBytes: perFile + perFile/2, // room for one inherited file
		Obs:           reg.Scope("resultstore"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Scope("resultstore").Counter("evicted_spill").Value(); got != 2 {
		t.Errorf("adoption evicted %d files, want 2", got)
	}
	if got := s.SpillBytes(); got > perFile+perFile/2 {
		t.Errorf("adopted spill bytes %d exceed the %d budget", got, perFile+perFile/2)
	}
}

func TestKeyCanonicalForm(t *testing.T) {
	k := Key{GPU: gpu.GenV100, Exp: "fig1", Quick: false}
	if got := k.String(); got != "v100/fig1?quick=false" {
		t.Errorf("Key.String() = %q", got)
	}
	if a, b := k.ContentAddress(), (Key{GPU: gpu.GenV100, Exp: "fig1", Quick: true}).ContentAddress(); a == b {
		t.Error("quick and full keys share a content address")
	}
	if len(k.ContentAddress()) != 64 {
		t.Errorf("content address %q is not hex SHA-256", k.ContentAddress())
	}
}

// TestWarmRestartSkipsCorruptSpill is the crash-and-corrupt drill: a
// store restarts onto a spill directory holding a truncated file, a
// file whose content belongs to a different key than its address
// claims, and a stray temp file from a crashed atomic write. Every
// corrupt entry must be skipped with a spill_err tick — recomputed,
// never loaded, never a crash — and deleted so the accounting stays
// consistent when the recomputed entry re-spills to the same address.
func TestWarmRestartSkipsCorruptSpill(t *testing.T) {
	dir := t.TempDir()
	comp1 := &countingComputer{pad: 32}
	s1, err := New(Options{Compute: comp1.compute, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	kTrunc := key(gpu.GenV100, "fig1")
	kSwap := key(gpu.GenV100, "fig2")
	kGood := key(gpu.GenV100, "fig3")
	for _, k := range []Key{kTrunc, kSwap, kGood} {
		if _, _, err := s1.Get(k); err != nil {
			t.Fatal(err)
		}
	}

	// Corruption 1: truncate kTrunc's spill file mid-JSON.
	truncPath := filepath.Join(dir, kTrunc.ContentAddress()+".json")
	data, err := os.ReadFile(truncPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(truncPath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// Corruption 2: content-hash mismatch — kSwap's address holds bytes
	// that deserialize to kGood's entry (valid JSON, wrong identity).
	goodBytes, err := os.ReadFile(filepath.Join(dir, kGood.ContentAddress()+".json"))
	if err != nil {
		t.Fatal(err)
	}
	swapPath := filepath.Join(dir, kSwap.ContentAddress()+".json")
	if err := os.WriteFile(swapPath, goodBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	// Corruption 3: a stray temp file from a crashed atomic write.
	strayPath := filepath.Join(dir, "spill-crashed.tmp")
	if err := os.WriteFile(strayPath, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}

	comp2 := &countingComputer{pad: 32}
	reg := obs.New()
	s2, err := New(Options{Compute: comp2.compute, SpillDir: dir, Obs: reg.Scope("resultstore")})
	if err != nil {
		t.Fatalf("warm restart over a corrupt spill dir: %v", err)
	}
	if _, err := os.Stat(strayPath); !errors.Is(err, os.ErrNotExist) {
		t.Error("stray tmp file survived adoption")
	}

	// The truncated key recomputes (miss, not spill) and the corrupt file
	// is replaced by the fresh write.
	e, out, err := s2.Get(kTrunc)
	if err != nil || out != OutcomeMiss {
		t.Fatalf("Get(truncated) = (%s, %v), want recompute miss", out, err)
	}
	if !bytes.Equal(e.JSON, fakeEntry(kTrunc, 32).JSON) {
		t.Error("recomputed entry for the truncated key has wrong bytes")
	}
	// The mismatched key likewise recomputes — the imposter bytes must
	// never be served under kSwap's identity.
	e, out, err = s2.Get(kSwap)
	if err != nil || out != OutcomeMiss {
		t.Fatalf("Get(mismatched) = (%s, %v), want recompute miss", out, err)
	}
	if !bytes.Equal(e.JSON, fakeEntry(kSwap, 32).JSON) {
		t.Error("mismatched-address key served the imposter's bytes")
	}
	// The intact key still loads from spill.
	if _, out, err := s2.Get(kGood); err != nil || out != OutcomeSpill {
		t.Fatalf("Get(intact) = (%s, %v), want spill", out, err)
	}
	if got := reg.Scope("resultstore").Counter("spill_err").Value(); got != 2 {
		t.Errorf("spill_err = %d, want 2 (one truncated, one mismatched)", got)
	}
	if got := comp2.callCount(kGood); got != 0 {
		t.Errorf("intact key recomputed %d times, want 0", got)
	}

	// Accounting must match the directory byte-for-byte after the
	// corrupt files were discarded and the recomputes re-spilled.
	var onDisk int64
	dirents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range dirents {
		info, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		onDisk += info.Size()
	}
	if got := s2.SpillBytes(); got != onDisk {
		t.Errorf("spill accounting %d bytes, directory holds %d", got, onDisk)
	}
}
