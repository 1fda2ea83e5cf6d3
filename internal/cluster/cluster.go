// Package cluster shards the serving tier across nodes by result
// content key. Every experiment result in this repository is
// content-addressed and deterministic — the same (gpu, experiment,
// quick) tuple renders the same bytes on every node — so the natural
// way to scale nocserve past one process is to give each key exactly
// one owner and route requests there:
//
//   - Rendezvous (highest-random-weight) hashing assigns each shard key
//     to one owner given only the shared peer list: no coordination, no
//     routing table to replicate, and removing a peer remaps only the
//     keys that peer owned (every other key keeps its owner, so a
//     membership change cannot stampede the survivors' caches).
//   - Ownership is enforced by single-hop forwarding: a request landing
//     on a non-owner is forwarded once to the owner, and the
//     ForwardedHeader guard guarantees a forwarded request is served
//     where it lands — owner or not — so a routing-table disagreement
//     between nodes degrades to one mis-routed counter tick, never a
//     forwarding loop.
//   - Failure degrades, never fails: when the owner is unreachable or
//     marked unhealthy, the node computes the key locally (the result
//     is deterministic, so the bytes are identical — only the
//     exactly-once-per-cluster economy is lost) and the cluster behaves
//     as N independent nodes until the peer recovers.
//
// The package never reads the wall clock or spawns goroutines: health
// windows run on an injected monotonic clock and retry backoff on an
// injected sleep, exactly like internal/resultstore, so the whole
// routing layer is deterministic under test and clean under noclint's
// seedflow and determinism analyzers.
package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"time"

	"gpunoc/internal/obs"
)

// Router maps shard keys to owning peers with rendezvous hashing. It is
// immutable after construction and safe for concurrent use.
type Router struct {
	self  string
	peers []string // sorted, deduplicated, includes self
}

// NewRouter builds a router over the full cluster member list (self
// included). Every node must be constructed from the same peer set —
// order-insensitive — for ownership to agree cluster-wide.
func NewRouter(self string, peers []string) (*Router, error) {
	if len(peers) == 0 {
		return nil, errors.New("cluster: peer list is empty")
	}
	sorted := make([]string, 0, len(peers))
	seen := map[string]bool{}
	for _, p := range peers {
		if p == "" {
			return nil, errors.New("cluster: peer list contains an empty entry")
		}
		if seen[p] {
			return nil, fmt.Errorf("cluster: duplicate peer %q", p)
		}
		seen[p] = true
		sorted = append(sorted, p)
	}
	sort.Strings(sorted)
	if self == "" {
		return nil, errors.New("cluster: self is empty")
	}
	if !seen[self] {
		return nil, fmt.Errorf("cluster: self %q is not in the peer list %v", self, sorted)
	}
	return &Router{self: self, peers: sorted}, nil
}

// Owner returns the peer that owns key: the peer with the highest
// rendezvous score, ties broken toward the lexicographically smallest
// peer. The choice depends only on (key, peer set), never on which node
// evaluates it, so every correctly-configured node routes identically.
func (r *Router) Owner(key string) string {
	owner := r.peers[0]
	best := rendezvousScore(r.peers[0], key)
	for _, p := range r.peers[1:] {
		if s := rendezvousScore(p, key); s > best {
			owner, best = p, s
		}
	}
	return owner
}

// rendezvousScore hashes one (peer, key) pair. FNV-1a alone mixes too
// weakly for rendezvous — keys differing only in trailing bytes barely
// perturb the peer ordering — so the digest runs through a Murmur3-style
// 64-bit finalizer whose avalanche makes the per-peer scores effectively
// independent per key. Not cryptographic, but the shard key is already a
// SHA-256 content address, so an adversarial client cannot steer
// placement beyond choosing which tuple to request.
func rendezvousScore(peer, key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(peer))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Self returns this node's own peer identity.
func (r *Router) Self() string { return r.self }

// IsSelf reports whether peer is this node.
func (r *Router) IsSelf(peer string) bool { return peer == r.self }

// Peers returns the sorted member list (a copy).
func (r *Router) Peers() []string {
	out := make([]string, len(r.peers))
	copy(out, r.peers)
	return out
}

// Doer is the HTTP client seam; *http.Client satisfies it, tests
// substitute failures.
type Doer interface {
	Do(*http.Request) (*http.Response, error)
}

// Options configures a Cluster.
type Options struct {
	// Self is this node's base URL exactly as it appears in Peers.
	Self string
	// Peers is the full member list, Self included.
	Peers []string
	// Client performs forwarded requests; nil means a default
	// http.Client. There is deliberately no client-level timeout: a
	// forwarded cold key legitimately takes as long as the owner's
	// simulation, and the caller's request context already bounds the
	// wait when a deadline is configured.
	Client Doer
	// Retries is how many times a failed forward is retried before the
	// node falls back to computing locally; negative means 0.
	Retries int
	// Backoff is the sleep before the first retry, doubling per attempt;
	// <= 0 disables backoff sleeps.
	Backoff time.Duration
	// RetryAfter is how long a peer marked unhealthy stays skipped
	// before forwards probe it again; <= 0 means 30s.
	RetryAfter time.Duration
	// Clock returns elapsed monotonic time from an origin of the
	// caller's choosing (health windows, forward latency). Required.
	Clock func() time.Duration
	// Sleep waits between forward retries; nil disables backoff sleeps.
	// Commands pass time.Sleep, tests a recorder.
	Sleep func(time.Duration)
	// Obs receives the routing instruments (forwarded, mis_routed,
	// peer_unhealthy, fallback_local, forward_err counters and the
	// forward_ms histogram); nil disables collection.
	Obs *obs.Registry
}

// Cluster bundles the router, the health pool, and the forwarder with
// their shared instruments: everything one serving node needs to
// participate in a sharded tier.
type Cluster struct {
	Router *Router
	Pool   *Pool
	fwd    *forwarder
	clock  func() time.Duration

	// Forwarded counts requests this node proxied to their owner.
	Forwarded *obs.Counter
	// MisRouted counts already-forwarded requests that landed on a
	// non-owner (peer-set disagreement); they are served locally, never
	// re-forwarded.
	MisRouted *obs.Counter
	// FallbackLocal counts non-owner requests served by local
	// computation because the owner was unhealthy or the forward failed.
	FallbackLocal *obs.Counter
	// ForwardErrs counts forwards that exhausted their retries.
	ForwardErrs *obs.Counter
	// ForwardMS is the wall latency of successful forwards.
	ForwardMS *obs.Histogram
}

// New builds a Cluster.
func New(o Options) (*Cluster, error) {
	router, err := NewRouter(o.Self, o.Peers)
	if err != nil {
		return nil, err
	}
	if o.Clock == nil {
		return nil, errors.New("cluster: Options.Clock is required")
	}
	retryAfter := o.RetryAfter
	if retryAfter <= 0 {
		retryAfter = 30 * time.Second
	}
	c := &Cluster{
		Router: router,
		Pool: newPool(poolOptions{
			clock:      o.Clock,
			retryAfter: retryAfter,
			unhealthy:  o.Obs.Counter("peer_unhealthy"),
		}),
		fwd:           newForwarder(o),
		clock:         o.Clock,
		Forwarded:     o.Obs.Counter("forwarded"),
		MisRouted:     o.Obs.Counter("mis_routed"),
		FallbackLocal: o.Obs.Counter("fallback_local"),
		ForwardErrs:   o.Obs.Counter("forward_err"),
		ForwardMS:     o.Obs.Histogram("forward_ms", obs.LatencyBoundsMS()),
	}
	return c, nil
}
