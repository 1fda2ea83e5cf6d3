// Package resultstore is the serving layer's memory: a content-addressed
// cache of experiment results keyed by the canonical request tuple
// (GPU generation, experiment ID, quick flag). Every experiment in this
// repository is deterministic — the same tuple always renders the same
// bytes — so a result computed once can be served forever, and the store
// turns the characterization suite from a batch CLI into something that
// can sit behind heavy traffic:
//
//   - Singleflight deduplication: N concurrent requests for a cold key
//     trigger exactly one simulation. The fill runs on one store-owned
//     goroutine per cold key; every caller — the initiator included — is
//     a waiter on the in-flight call's channel and receives the
//     identical entry. Decoupling the fill from any one waiter is what
//     makes deadlines safe: GetContext waiters detach when their context
//     fires, and an abandoned fill still runs to completion and
//     populates the cache (and spill), so a timed-out request's work is
//     never wasted — the next request for the key is a hit. The fill
//     goroutine only executes one keyed computation whose result is
//     index-free and order-free, so it cannot leak scheduling order into
//     any output; the sweeps inside the computation still shard through
//     internal/parallel.
//   - Deadline propagation: fills run under Options.Base (the server's
//     shutdown context), handed to Options.Compute so a draining process
//     aborts in-flight simulations at their next sweep-row checkpoint
//     instead of simulating into the void.
//   - LRU with byte accounting: entries are bounded by a byte budget,
//     not a count, because artifact payloads span two orders of
//     magnitude. Eviction picks the least-recently-used entry and breaks
//     exact ties toward the smallest key, so a replayed request stream
//     always evicts identically.
//   - Optional disk spill: computed entries are also written to a spill
//     directory under their content address (SHA-256 of the canonical
//     key string), and cold keys check the spill before simulating, so a
//     restarted server warms from disk instead of recomputing the world.
//     The spill is byte-capped (Options.SpillMaxBytes): when a write
//     pushes the directory past the budget, the oldest spill files are
//     pruned first — write order for files created this run, (mtime,
//     name) order for files inherited from a previous process — so a
//     long-lived server cannot grow the spill without bound. Every
//     pruned file ticks the evicted_spill counter; the next request for
//     a pruned key simply recomputes (and re-spills) it.
//
// The store never reads the wall clock itself (noclint's determinism
// analyzer forbids it inside the model); callers inject a monotonic
// clock for the compute-latency histogram, exactly like
// core.ReportOptions.Stopwatch.
package resultstore

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"gpunoc/internal/gpu"
	"gpunoc/internal/obs"
)

// Key is the canonical request tuple. Two requests with equal Keys are
// guaranteed (by the simulators' determinism contract) to produce
// byte-identical results.
type Key struct {
	// GPU is the canonical generation name (gpu.GenV100 etc.).
	GPU gpu.Generation `json:"gpu"`
	// Exp is the experiment registry ID ("fig1", "table1", "ext3").
	Exp string `json:"exp"`
	// Quick mirrors nocchar -quick: reduced sample counts.
	Quick bool `json:"quick"`
}

// String renders the canonical form, e.g. "v100/fig1?quick=false". It is
// the content-addressing preimage, so its format is part of the spill
// on-disk contract.
func (k Key) String() string {
	return fmt.Sprintf("%s/%s?quick=%v", strings.ToLower(string(k.GPU)), k.Exp, k.Quick)
}

// ContentAddress returns the hex SHA-256 of the canonical key string.
// It is the key's identity everywhere identity matters: the spill
// file's basename on disk, and the shard key internal/cluster's
// rendezvous router hashes to pick the key's owning node — so routing,
// caching, and spill all agree on what "the same result" means.
func (k Key) ContentAddress() string {
	sum := sha256.Sum256([]byte(k.String()))
	return hex.EncodeToString(sum[:])
}

// less orders keys for deterministic tie-breaking in eviction.
func (k Key) less(other Key) bool { return k.String() < other.String() }

// Entry is one cached computation: every serving format pre-rendered, so
// a format change on a warm key costs zero simulations.
type Entry struct {
	Key Key `json:"key"`
	// JSON is byte-identical to `nocchar -gpu <g> -exp <e> -json` stdout.
	JSON []byte `json:"json"`
	// CSV is byte-identical to `nocchar -csv` stdout for the experiment.
	CSV []byte `json:"csv"`
	// Text is byte-identical to nocchar's default rendering.
	Text []byte `json:"text"`
	// Markdown is the report fragment for the run.
	Markdown []byte `json:"markdown"`
}

// Size returns the entry's byte footprint for LRU accounting.
func (e *Entry) Size() int64 {
	const overhead = 128 // struct, map slot, bookkeeping
	return int64(len(e.JSON)+len(e.CSV)+len(e.Text)+len(e.Markdown)) + overhead
}

// Outcome classifies how a Get was satisfied.
type Outcome int

const (
	// OutcomeMiss: this call ran the simulation.
	OutcomeMiss Outcome = iota
	// OutcomeHit: served from memory.
	OutcomeHit
	// OutcomeCoalesced: another in-flight call for the same key ran the
	// simulation; this call waited and shared its entry.
	OutcomeCoalesced
	// OutcomeSpill: served from the disk spill without simulating.
	OutcomeSpill
)

// String implements fmt.Stringer; the values double as X-Cache headers.
func (o Outcome) String() string {
	switch o {
	case OutcomeMiss:
		return "miss"
	case OutcomeHit:
		return "hit"
	case OutcomeCoalesced:
		return "coalesced"
	case OutcomeSpill:
		return "spill"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Options configures a Store.
type Options struct {
	// Compute runs the simulation for a cold key. Required. It must be
	// safe for concurrent invocation with distinct keys; the store
	// guarantees at most one in-flight invocation per key. The context
	// it receives is derived from Base, NOT from any individual waiter:
	// waiters detaching on their own deadlines leave the computation
	// running, and only cancelling Base (process shutdown) aborts it.
	Compute func(ctx context.Context, key Key) (*Entry, error)
	// Base, when non-nil, is the context every fill runs under;
	// cancelling it (server drain) makes in-flight computations abort at
	// their next cancellation checkpoint. Nil means context.Background():
	// fills always run to completion.
	Base context.Context
	// MaxBytes bounds the in-memory entries' total Size; <= 0 means
	// unbounded. An entry alone exceeding the budget is served but not
	// cached.
	MaxBytes int64
	// SpillDir, when non-empty, enables the disk spill.
	SpillDir string
	// SpillMaxBytes bounds the spill directory's total payload bytes;
	// <= 0 means unbounded. When a spill write pushes the directory past
	// the budget, the oldest spill files are removed first until it fits
	// again (the file just written is never its own victim). Files
	// already present at New — a previous process's spill — are adopted
	// into the accounting in (mtime, name) order, oldest first, and a
	// budget tighter than the inherited population prunes immediately.
	SpillMaxBytes int64
	// Obs receives the store's instruments (hit/miss/coalesced/...
	// counters, byte and entry gauges, compute-latency histogram); nil
	// disables collection at zero cost.
	Obs *obs.Registry
	// Clock, when non-nil, returns elapsed time from an origin of the
	// caller's choosing and enables the compute-latency histogram. The
	// store never reads the wall clock itself.
	Clock func() time.Duration
}

// call is one in-flight computation that waiters coalesce onto. The
// fill goroutine owns entry/outcome/err until it closes done; the close
// is the happens-before edge every waiter reads across.
type call struct {
	done    chan struct{}
	entry   *Entry
	outcome Outcome
	err     error
}

// cached is one resident entry with its recency stamp.
type cached struct {
	entry   *Entry
	lastUse uint64
}

// spillFile is one accounted spill-directory resident. The store keeps
// these oldest-first, so pruning always pops from the front.
type spillFile struct {
	name string // basename inside SpillDir
	size int64
}

// Store is the cache. It is safe for concurrent use.
type Store struct {
	opts Options
	base context.Context

	mu       sync.Mutex
	entries  map[Key]*cached
	inflight map[Key]*call
	tick     uint64
	bytes    int64
	fills    sync.WaitGroup

	// spillMu guards the spill directory's byte accounting separately
	// from s.mu: spill writes happen on fill goroutines outside the
	// entry-map lock, and pruning does file I/O that must never stall a
	// cache hit.
	spillMu    sync.Mutex
	spillBytes int64
	spillFiles []spillFile // oldest-first; pruning pops from the front

	hits, misses, coalesced  *obs.Counter
	evictions, oversize      *obs.Counter
	spillLoads, spillStores  *obs.Counter
	spillErrs, computeErrs   *obs.Counter
	canceled, evictedSpill   *obs.Counter
	bytesGauge, entriesGauge *obs.Gauge
	spillBytesGauge          *obs.Gauge
	computeMS                *obs.Histogram
}

// New builds a store.
func New(opts Options) (*Store, error) {
	if opts.Compute == nil {
		return nil, errors.New("resultstore: Options.Compute is required")
	}
	if opts.SpillDir != "" {
		if err := os.MkdirAll(opts.SpillDir, 0o755); err != nil {
			return nil, fmt.Errorf("resultstore: spill dir: %w", err)
		}
	}
	base := opts.Base
	if base == nil {
		base = context.Background()
	}
	s := &Store{
		opts:     opts,
		base:     base,
		entries:  map[Key]*cached{},
		inflight: map[Key]*call{},

		hits:         opts.Obs.Counter("hit"),
		misses:       opts.Obs.Counter("miss"),
		coalesced:    opts.Obs.Counter("coalesced"),
		evictions:    opts.Obs.Counter("eviction"),
		oversize:     opts.Obs.Counter("oversize"),
		spillLoads:   opts.Obs.Counter("spill_load"),
		spillStores:  opts.Obs.Counter("spill_store"),
		spillErrs:    opts.Obs.Counter("spill_err"),
		computeErrs:  opts.Obs.Counter("compute_err"),
		canceled:     opts.Obs.Counter("canceled"),
		evictedSpill: opts.Obs.Counter("evicted_spill"),
		bytesGauge:   opts.Obs.Gauge("bytes"),
		entriesGauge: opts.Obs.Gauge("entries"),

		spillBytesGauge: opts.Obs.Gauge("spill_bytes"),
		computeMS:       opts.Obs.Histogram("compute_ms", obs.LatencyBoundsMS()),
	}
	if opts.SpillDir != "" {
		if err := s.adoptSpillDir(); err != nil {
			return nil, fmt.Errorf("resultstore: spill dir scan: %w", err)
		}
	}
	return s, nil
}

// adoptSpillDir takes over accounting for spill files a previous process
// left behind: every *.json file in SpillDir is recorded in (mtime,
// name) order — the closest durable approximation of its original write
// order — and a byte budget tighter than the inherited population
// prunes the oldest files immediately, so a restart with a smaller
// -spill-max-bytes converges instead of inheriting an oversized spill
// forever. Stray temp files from a crashed atomic write are removed.
func (s *Store) adoptSpillDir() error {
	dirents, err := os.ReadDir(s.opts.SpillDir)
	if err != nil {
		return err
	}
	type aged struct {
		spillFile
		mod time.Time
	}
	var files []aged
	for _, de := range dirents {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		if strings.HasPrefix(name, "spill-") && strings.HasSuffix(name, ".tmp") {
			_ = os.Remove(filepath.Join(s.opts.SpillDir, name))
			continue
		}
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // raced with deletion; nothing to account
		}
		files = append(files, aged{spillFile{name: name, size: info.Size()}, info.ModTime()})
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mod.Equal(files[j].mod) {
			return files[i].mod.Before(files[j].mod)
		}
		return files[i].name < files[j].name
	})
	s.spillMu.Lock()
	defer s.spillMu.Unlock()
	for _, f := range files {
		s.spillFiles = append(s.spillFiles, f.spillFile)
		s.spillBytes += f.size
	}
	s.pruneSpillLocked()
	return nil
}

// Get returns the entry for key, computing it at most once no matter how
// many callers ask concurrently. The Outcome reports how this particular
// call was satisfied. Get never detaches: it waits for the fill however
// long it takes (GetContext with context.Background()).
func (s *Store) Get(key Key) (*Entry, Outcome, error) {
	return s.GetContext(context.Background(), key)
}

// GetContext is Get with a waiter deadline: when ctx is done before the
// entry is ready, this caller detaches and receives ctx.Err(), but the
// in-flight fill — shared with any other waiters — keeps running and
// still populates the cache, so the abandoned work is served to the
// next request for the key. Cancelling ctx never cancels the
// computation; only the store's Base context does that.
func (s *Store) GetContext(ctx context.Context, key Key) (*Entry, Outcome, error) {
	s.mu.Lock()
	if c, ok := s.entries[key]; ok {
		s.tick++
		c.lastUse = s.tick
		s.mu.Unlock()
		s.hits.Inc()
		return c.entry, OutcomeHit, nil
	}
	if fl, ok := s.inflight[key]; ok {
		// Coalesce: the fill goroutine owns the simulation; wait for its
		// channel close and share the entry it publishes.
		s.mu.Unlock()
		s.coalesced.Inc()
		return s.wait(ctx, fl, false)
	}
	fl := &call{done: make(chan struct{})}
	s.inflight[key] = fl
	s.fills.Add(1)
	s.mu.Unlock()
	// The fill is deliberately detached from every waiter so deadlines
	// can abandon it without killing it; it runs exactly one keyed,
	// order-free computation (whose sweeps shard through
	// internal/parallel), so no scheduling order can reach any output.
	//lint:ignore determinism the fill goroutine produces a single content-addressed entry with no cross-task ordering; waiter-detachable singleflight cannot run on the initiating caller's goroutine
	go s.runFill(key, fl)
	return s.wait(ctx, fl, true)
}

// wait parks one caller on an in-flight call until the fill publishes
// or the caller's context fires. The initiator takes the fill's own
// outcome (miss or spill); every other waiter reports coalesced.
func (s *Store) wait(ctx context.Context, fl *call, initiator bool) (*Entry, Outcome, error) {
	select {
	case <-fl.done:
	case <-ctx.Done():
		// Detach: give up on the result but leave the fill running. A
		// second chance below avoids reporting a spurious cancellation
		// when the fill and the deadline race.
		select {
		case <-fl.done:
		default:
			s.canceled.Inc()
			return nil, OutcomeCoalesced, ctx.Err()
		}
	}
	if !initiator && fl.err == nil {
		return fl.entry, OutcomeCoalesced, nil
	}
	return fl.entry, fl.outcome, fl.err
}

// runFill executes one cold key's fill on its own goroutine and
// publishes the result to every waiter. It runs under the store's Base
// context — never a waiter's — so abandoned fills complete and cache.
func (s *Store) runFill(key Key, fl *call) {
	defer s.fills.Done()
	entry, outcome, err := s.fill(key)

	s.mu.Lock()
	delete(s.inflight, key)
	if err == nil {
		s.insertLocked(key, entry)
	}
	s.mu.Unlock()

	// Publish to waiters only after the cache state is settled; the
	// channel close is the happens-before edge waiters read across.
	fl.entry, fl.outcome, fl.err = entry, outcome, err
	close(fl.done)
}

// Wait blocks until every in-flight fill has published. Shutdown paths
// use it (under their own deadline) to let abandoned fills finish
// caching; tests use it to prove no fill goroutine outlives its work.
func (s *Store) Wait() { s.fills.Wait() }

// fill produces the entry for a cold key: from the disk spill when
// possible, otherwise by running the simulation under the Base context.
func (s *Store) fill(key Key) (*Entry, Outcome, error) {
	if e, ok := s.loadSpill(key); ok {
		s.spillLoads.Inc()
		return e, OutcomeSpill, nil
	}
	s.misses.Inc()
	var start time.Duration
	if s.opts.Clock != nil {
		start = s.opts.Clock()
	}
	e, err := s.opts.Compute(s.base, key)
	if err != nil {
		s.computeErrs.Inc()
		return nil, OutcomeMiss, err
	}
	if e == nil {
		s.computeErrs.Inc()
		return nil, OutcomeMiss, fmt.Errorf("resultstore: compute for %s returned no entry", key)
	}
	if s.opts.Clock != nil {
		s.computeMS.Observe(int64((s.opts.Clock() - start) / time.Millisecond))
	}
	e.Key = key
	s.storeSpill(key, e)
	return e, OutcomeMiss, nil
}

// insertLocked caches an entry and evicts LRU entries past the byte
// budget. Caller holds s.mu.
func (s *Store) insertLocked(key Key, e *Entry) {
	size := e.Size()
	if s.opts.MaxBytes > 0 && size > s.opts.MaxBytes {
		// Caching it would evict everything else and still overflow;
		// serve uncached instead (the spill may still hold it).
		s.oversize.Inc()
		return
	}
	s.tick++
	s.entries[key] = &cached{entry: e, lastUse: s.tick}
	s.bytes += size
	for s.opts.MaxBytes > 0 && s.bytes > s.opts.MaxBytes && len(s.entries) > 1 {
		s.evictLocked()
	}
	s.bytesGauge.Set(s.bytes)
	s.entriesGauge.Set(int64(len(s.entries)))
}

// evictLocked removes the least-recently-used entry. Recency stamps are
// unique by construction (tick is monotonic under the lock), but exact
// ties — should a refactor ever batch stamps — resolve to the smallest
// key, mirroring the lowest-index rule of the L2 model's LRU and the
// profiler's argmax: eviction order is deterministic for any replayed
// request stream. The scan only accumulates a minimum, so map iteration
// order cannot leak into the choice.
func (s *Store) evictLocked() {
	var victim Key
	var vc *cached
	for k, c := range s.entries {
		if vc == nil || c.lastUse < vc.lastUse || (c.lastUse == vc.lastUse && k.less(victim)) {
			victim, vc = k, c
		}
	}
	if vc == nil {
		return
	}
	delete(s.entries, victim)
	s.bytes -= vc.entry.Size()
	s.evictions.Inc()
}

// Len returns the number of resident entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Bytes returns the resident entries' accounted size.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Contains reports residency without touching recency or counters.
func (s *Store) Contains(key Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// spillPath returns the content-addressed spill file for a key.
func (s *Store) spillPath(key Key) string {
	return filepath.Join(s.opts.SpillDir, key.ContentAddress()+".json")
}

// loadSpill reads a spilled entry, verifying the stored key matches the
// requested one (the address is a hash; trust but verify). A corrupt
// file — truncated write, bit rot, or content that hashes to a
// different key than its name claims — is counted, deleted, and dropped
// from the byte accounting, never loaded: leaving it in place would
// make every future cold request re-read and re-reject it, and its
// bytes would be double-counted when the recomputed entry re-spills to
// the same address.
func (s *Store) loadSpill(key Key) (*Entry, bool) {
	if s.opts.SpillDir == "" {
		return nil, false
	}
	data, err := os.ReadFile(s.spillPath(key))
	if err != nil {
		return nil, false
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil || e.Key != key {
		s.spillErrs.Inc()
		s.discardSpill(key)
		return nil, false
	}
	return &e, true
}

// discardSpill removes a corrupt spill file and forgets its accounting
// record. Best-effort: the file may already be gone.
func (s *Store) discardSpill(key Key) {
	name := key.ContentAddress() + ".json"
	if err := os.Remove(s.spillPath(key)); err != nil && !errors.Is(err, os.ErrNotExist) {
		s.spillErrs.Inc()
	}
	s.spillMu.Lock()
	defer s.spillMu.Unlock()
	for i, f := range s.spillFiles {
		if f.name == name {
			s.spillBytes -= f.size
			s.spillFiles = append(s.spillFiles[:i], s.spillFiles[i+1:]...)
			s.spillBytesGauge.Set(s.spillBytes)
			break
		}
	}
}

// storeSpill writes an entry to the spill, atomically via a temp file so
// a crashed writer never leaves a half-written content address. Spill is
// best-effort: failures are counted, not returned — the caller already
// holds a good in-memory entry.
func (s *Store) storeSpill(key Key, e *Entry) {
	if s.opts.SpillDir == "" {
		return
	}
	data, err := json.Marshal(e)
	if err != nil {
		s.spillErrs.Inc()
		return
	}
	tmp, err := os.CreateTemp(s.opts.SpillDir, "spill-*.tmp")
	if err != nil {
		s.spillErrs.Inc()
		return
	}
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		s.spillErrs.Inc()
		return
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		s.spillErrs.Inc()
		return
	}
	if err := os.Rename(tmp.Name(), s.spillPath(key)); err != nil {
		_ = os.Remove(tmp.Name())
		s.spillErrs.Inc()
		return
	}
	s.spillStores.Inc()
	s.recordSpillWrite(key.ContentAddress()+".json", int64(len(data)))
}

// recordSpillWrite accounts one completed spill write and prunes the
// oldest files while the directory exceeds the byte budget. A rewrite
// of an existing content address (a key recomputed after its spill was
// pruned elsewhere, or an overwrite with identical bytes) replaces the
// old record and moves the file to the newest position — it was just
// written, so it is the freshest thing in the directory.
func (s *Store) recordSpillWrite(name string, size int64) {
	s.spillMu.Lock()
	defer s.spillMu.Unlock()
	for i, f := range s.spillFiles {
		if f.name == name {
			s.spillBytes -= f.size
			s.spillFiles = append(s.spillFiles[:i], s.spillFiles[i+1:]...)
			break
		}
	}
	s.spillFiles = append(s.spillFiles, spillFile{name: name, size: size})
	s.spillBytes += size
	s.pruneSpillLocked()
}

// pruneSpillLocked removes oldest-first spill files until the directory
// fits the budget again, never victimizing the sole remaining (newest)
// file: a single entry larger than the budget is still worth keeping,
// exactly like insertLocked's oversize rule keeps serving working.
// Caller holds s.spillMu.
func (s *Store) pruneSpillLocked() {
	for s.opts.SpillMaxBytes > 0 && s.spillBytes > s.opts.SpillMaxBytes && len(s.spillFiles) > 1 {
		victim := s.spillFiles[0]
		s.spillFiles = s.spillFiles[1:]
		s.spillBytes -= victim.size
		if err := os.Remove(filepath.Join(s.opts.SpillDir, victim.name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			s.spillErrs.Inc()
		}
		s.evictedSpill.Inc()
	}
	s.spillBytesGauge.Set(s.spillBytes)
}

// SpillBytes returns the accounted size of the spill directory; 0 when
// the spill is disabled.
func (s *Store) SpillBytes() int64 {
	s.spillMu.Lock()
	defer s.spillMu.Unlock()
	return s.spillBytes
}
