package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gpunoc/internal/cluster"
	"gpunoc/internal/core"
	"gpunoc/internal/gpu"
	"gpunoc/internal/obs"
	"gpunoc/internal/resultstore"
)

// keyCounter counts compute invocations per key on one node.
type keyCounter struct {
	mu    sync.Mutex
	calls map[resultstore.Key]int
}

func (c *keyCounter) inc(key resultstore.Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.calls == nil {
		c.calls = map[resultstore.Key]int{}
	}
	c.calls[key]++
}

func (c *keyCounter) count(key resultstore.Key) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[key]
}

// clusterNode is one member of a test cluster.
type clusterNode struct {
	url   string
	ts    *httptest.Server
	sv    *server
	reg   *obs.Registry
	calls *keyCounter
}

// newTestClusterNodes starts n sharded nocserve nodes that know each
// other: listeners are bound first so every node's peer list names the
// final URLs, then each node gets its own store (wrapping compute with
// a per-node call counter), registry, and cluster router. The health
// clock is frozen at 0, so the 5 s retry window never expires and a
// peer marked down stays down for the test's duration.
func newTestClusterNodes(t *testing.T, n int, compute func(resultstore.Key) (*resultstore.Entry, error)) []*clusterNode {
	t.Helper()
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		node := &clusterNode{url: urls[i], calls: &keyCounter{}}
		counted := func(key resultstore.Key) (*resultstore.Entry, error) {
			node.calls.inc(key)
			return compute(key)
		}
		reg := obs.New()
		t0 := time.Now()
		store, err := resultstore.New(resultstore.Options{
			Compute: counted,
			Obs:     reg.Scope("resultstore"),
			Clock:   func() time.Duration { return time.Since(t0) },
		})
		if err != nil {
			t.Fatal(err)
		}
		sv := newServer(store, reg, serverConfig{})
		cl, err := cluster.New(cluster.Options{
			Self:  urls[i],
			Peers: urls,
			Clock: func() time.Duration { return 0 },
			Obs:   reg.Scope("cluster"),
		})
		if err != nil {
			t.Fatal(err)
		}
		sv.cluster = cl
		ts := httptest.NewUnstartedServer(sv.handler())
		if err := ts.Listener.Close(); err != nil {
			t.Fatal(err)
		}
		ts.Listener = listeners[i]
		ts.Start()
		t.Cleanup(ts.Close)
		node.ts, node.sv, node.reg = ts, sv, reg
		nodes[i] = node
	}
	return nodes
}

// ownerIndex resolves which node the cluster's routing assigns a key.
func ownerIndex(t *testing.T, nodes []*clusterNode, key resultstore.Key) int {
	t.Helper()
	owner := nodes[0].sv.cluster.Router.Owner(key.ContentAddress())
	for i, n := range nodes {
		if n.url == owner {
			return i
		}
	}
	t.Fatalf("owner %s is not a cluster member", owner)
	return -1
}

// stubCompute returns deterministic per-key bytes, so any node
// computing a key — owner or fallback — produces identical output. Each
// format's body names the format and the key, so a response shows which
// key and rendering the handler resolved.
func stubCompute(key resultstore.Key) (*resultstore.Entry, error) {
	body := func(format string) []byte { return []byte(format + " " + key.String() + "\n") }
	return &resultstore.Entry{JSON: body("json"), CSV: body("csv"), Text: body("text"), Markdown: body("md")}, nil
}

// TestClusterConformance is the acceptance drill for the sharded tier:
// the full supported experiment matrix fetched through randomly chosen
// entry nodes of a 3-shard cluster must be byte-identical to a fresh
// single-node core.RunResult, with exactly one simulation per cold key
// across the whole cluster, zero mis-routes, and zero fallbacks.
func TestClusterConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick matrix in -short mode")
	}
	nodes := newTestClusterNodes(t, 3, newComputer())
	rng := rand.New(rand.NewSource(42))

	type tuple struct {
		cfg gpu.Config
		exp *core.Experiment
	}
	var tuples []tuple
	for _, cfg := range gpu.AllConfigs() {
		for _, e := range core.All() {
			if e.SupportsGPU(cfg.Name) {
				tuples = append(tuples, tuple{cfg, e})
			}
		}
	}
	expectForwarded := 0
	for _, tu := range tuples {
		key := resultstore.Key{GPU: tu.cfg.Name, Exp: tu.exp.ID, Quick: true}
		entry := rng.Intn(len(nodes))
		if entry != ownerIndex(t, nodes, key) {
			expectForwarded++
		}
		url := fmt.Sprintf("%s/v1/%s/%s?quick=1", nodes[entry].url, strings.ToLower(string(tu.cfg.Name)), tu.exp.ID)

		ctx, err := core.NewContext(tu.cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		res, runErr := core.RunResult(ctx, tu.exp)
		status, cache, body := get(t, url)
		if runErr != nil {
			// Run-refused pairs surface the owner's 500 through the
			// forward unchanged.
			if status != http.StatusInternalServerError {
				t.Errorf("%s/%s: status %d for a run-refused pair, want 500", tu.cfg.Name, tu.exp.ID, status)
			}
			continue
		}
		if status != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", url, status, body)
		}
		if cache != "miss" {
			t.Errorf("%s/%s: first cluster fetch X-Cache = %q, want miss", tu.cfg.Name, tu.exp.ID, cache)
		}
		want, err := res.JSONBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("%s/%s: cluster-served JSON differs from single-node RunResult bytes", tu.cfg.Name, tu.exp.ID)
		}
	}

	// Exactly one simulation per cold key cluster-wide, and only on the
	// owner.
	for _, tu := range tuples {
		key := resultstore.Key{GPU: tu.cfg.Name, Exp: tu.exp.ID, Quick: true}
		owner := ownerIndex(t, nodes, key)
		total := 0
		for i, n := range nodes {
			c := n.calls.count(key)
			total += c
			if i != owner && c != 0 {
				t.Errorf("%s: non-owner node %d simulated it %d times", key, i, c)
			}
		}
		if total != 1 {
			t.Errorf("%s: %d simulations cluster-wide, want exactly 1", key, total)
		}
	}
	var forwarded, misRouted, fallback int64
	for _, n := range nodes {
		sc := n.reg.Scope("cluster")
		forwarded += sc.Counter("forwarded").Value()
		misRouted += sc.Counter("mis_routed").Value()
		fallback += sc.Counter("fallback_local").Value()
	}
	if forwarded != int64(expectForwarded) {
		t.Errorf("cluster forwarded %d requests, want %d (one per non-owner entry)", forwarded, expectForwarded)
	}
	if misRouted != 0 || fallback != 0 {
		t.Errorf("healthy cluster counted mis_routed=%d fallback_local=%d, want 0/0", misRouted, fallback)
	}
}

// TestClusterDegradesWhenPeerDies kills one shard mid-sweep: requests
// for its keys must keep answering 200 with identical bytes from the
// surviving nodes' local fallback, with no request errors anywhere.
func TestClusterDegradesWhenPeerDies(t *testing.T) {
	nodes := newTestClusterNodes(t, 3, stubCompute)

	var keys []resultstore.Key
	for _, e := range core.All() {
		if e.SupportsGPU(gpu.GenV100) {
			keys = append(keys, resultstore.Key{GPU: gpu.GenV100, Exp: e.ID, Quick: true})
		}
	}
	const victim = 2
	for i, key := range keys {
		if i == len(keys)/2 {
			// Mid-sweep failure: the victim's listener closes; every
			// forward to it from here on is refused at dial time.
			nodes[victim].ts.Close()
		}
		// Entry nodes are always survivors; the victim participates as an
		// owner only, which is what makes its death visible.
		entry := nodes[i%2]
		url := fmt.Sprintf("%s/v1/v100/%s?quick=1", entry.url, key.Exp)
		status, _, body := get(t, url)
		if status != http.StatusOK {
			t.Fatalf("GET %s after peer death: status %d: %s", url, status, body)
		}
		want, _ := stubCompute(key)
		if !bytes.Equal(body, want.JSON) {
			t.Errorf("%s: degraded-mode bytes differ from the deterministic result", key)
		}
	}
	// Second pass over every key the dead node owns, through both
	// survivors: forwarded responses are never cached on the entry node,
	// so each of these must be served by local fallback (or a fallback
	// already cached above) — deterministically exercising the degraded
	// path no matter how the sweep halves split the ownership.
	victimKeys := 0
	for _, key := range keys {
		if ownerIndex(t, nodes, key) != victim {
			continue
		}
		victimKeys++
		for i := 0; i < 2; i++ {
			url := fmt.Sprintf("%s/v1/v100/%s?quick=1", nodes[i].url, key.Exp)
			status, _, body := get(t, url)
			if status != http.StatusOK {
				t.Fatalf("GET %s (dead owner) = %d: %s", url, status, body)
			}
			want, _ := stubCompute(key)
			if !bytes.Equal(body, want.JSON) {
				t.Errorf("%s: dead-owner fallback bytes differ", key)
			}
		}
	}
	if victimKeys == 0 {
		t.Log("rendezvous assigned the victim no v100 keys this run; fallback exercised only if the sweep hit one")
	}

	var fallback, unhealthy, errorsSeen int64
	for i, n := range nodes {
		if i == victim {
			continue
		}
		fallback += n.reg.Scope("cluster").Counter("fallback_local").Value()
		unhealthy += n.reg.Scope("cluster").Counter("peer_unhealthy").Value()
		errorsSeen += n.reg.Scope("http").Counter("errors").Value()
	}
	if victimKeys > 0 && fallback == 0 {
		t.Error("no fallback_local ticks: the victim's keys were never served degraded")
	}
	if victimKeys > 0 && unhealthy == 0 {
		t.Error("no peer_unhealthy ticks: the dead peer was never marked down")
	}
	if errorsSeen != 0 {
		t.Errorf("survivors counted %d request errors, want 0 (degrade, don't fail)", errorsSeen)
	}
	// The dead peer must have been marked down — after the first failed
	// forward, later requests skip the dial and fall back immediately.
	for i, n := range nodes {
		if i == victim {
			continue
		}
		if !n.sv.cluster.Pool.Down(nodes[victim].url) {
			t.Errorf("node %d still considers the dead peer healthy", i)
		}
	}
}

// TestClusterSingleHopGuard: an already-forwarded request landing on a
// non-owner is served locally — counted as mis-routed, never forwarded
// again — so divergent peer sets cannot create forwarding loops.
func TestClusterSingleHopGuard(t *testing.T) {
	nodes := newTestClusterNodes(t, 2, stubCompute)
	key := resultstore.Key{GPU: gpu.GenV100, Exp: "fig1", Quick: true}
	owner := ownerIndex(t, nodes, key)
	nonOwner := nodes[1-owner]

	req, err := http.NewRequest(http.MethodGet, nonOwner.url+"/v1/v100/fig1?quick=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(cluster.ForwardedHeader, "http://elsewhere.invalid")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded request to non-owner: status %d, want 200", resp.StatusCode)
	}
	if got := nonOwner.reg.Scope("cluster").Counter("mis_routed").Value(); got != 1 {
		t.Errorf("mis_routed = %d, want 1", got)
	}
	if got := nonOwner.calls.count(key); got != 1 {
		t.Errorf("non-owner computed the key %d times, want 1 (served where it landed)", got)
	}
	if got := nodes[owner].calls.count(key); got != 0 {
		t.Errorf("owner computed the key %d times, want 0 (no second hop)", got)
	}

	// A normal (unforwarded) request to the non-owner forwards to the
	// owner, which computes it; the entry node computes nothing new.
	key2 := resultstore.Key{GPU: gpu.GenV100, Exp: "fig2", Quick: true}
	owner2 := ownerIndex(t, nodes, key2)
	entry := nodes[1-owner2]
	status, cache, _ := get(t, entry.url+"/v1/v100/fig2?quick=1")
	if status != http.StatusOK {
		t.Fatalf("forward via non-owner: status %d", status)
	}
	if cache != "miss" {
		t.Errorf("forwarded cold fetch X-Cache = %q, want the owner's miss", cache)
	}
	if got := nodes[owner2].calls.count(key2); got != 1 {
		t.Errorf("owner computed forwarded key %d times, want 1", got)
	}
	if got := entry.calls.count(key2); got != 0 {
		t.Errorf("entry node computed forwarded key %d times, want 0", got)
	}
	if got := entry.reg.Scope("cluster").Counter("forwarded").Value(); got != 1 {
		t.Errorf("entry node forwarded = %d, want 1", got)
	}
}
