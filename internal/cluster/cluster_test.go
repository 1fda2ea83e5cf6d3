package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gpunoc/internal/obs"
)

// testKeys returns n distinct shard keys shaped like the resultstore's
// content addresses (the production shard key).
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i+1)
	}
	return keys
}

// TestRouterDeterministicAcrossNodes: every node — whatever its own
// identity and whatever order its flag listed the peers in — must agree
// on the owner of every key, or forwarding would ping-pong.
func TestRouterDeterministicAcrossNodes(t *testing.T) {
	peers := []string{"http://n3:80", "http://n1:80", "http://n2:80", "http://n4:80"}
	reversed := []string{"http://n4:80", "http://n2:80", "http://n1:80", "http://n3:80"}
	routers := make([]*Router, 0, len(peers)*2)
	for _, self := range peers {
		a, err := NewRouter(self, peers)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewRouter(self, reversed)
		if err != nil {
			t.Fatal(err)
		}
		routers = append(routers, a, b)
	}
	for _, key := range testKeys(500) {
		want := routers[0].Owner(key)
		for i, r := range routers[1:] {
			if got := r.Owner(key); got != want {
				t.Fatalf("router %d (self=%s) owner(%s) = %s, want %s", i+1, r.self, key, got, want)
			}
		}
	}
}

// TestRouterRemovalRemapsOnlyVictim is the rendezvous property the
// whole design leans on: dropping one peer moves only the keys that
// peer owned. Keys owned by survivors must keep their owner, so a node
// failure cannot invalidate the survivors' caches.
func TestRouterRemovalRemapsOnlyVictim(t *testing.T) {
	peers := []string{"http://n1:80", "http://n2:80", "http://n3:80", "http://n4:80", "http://n5:80"}
	const victim = "http://n3:80"
	var survivors []string
	for _, p := range peers {
		if p != victim {
			survivors = append(survivors, p)
		}
	}
	full, err := NewRouter(peers[0], peers)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := NewRouter(peers[0], survivors)
	if err != nil {
		t.Fatal(err)
	}
	keys := testKeys(2000)
	owned := map[string]int{}
	remapped := 0
	for _, key := range keys {
		before := full.Owner(key)
		owned[before]++
		after := reduced.Owner(key)
		if before == victim {
			remapped++
			if after == victim {
				t.Fatalf("key %s still owned by removed peer", key)
			}
			continue
		}
		if after != before {
			t.Fatalf("key %s moved %s -> %s though its owner survived", key, before, after)
		}
	}
	if remapped != owned[victim] {
		t.Fatalf("remapped %d keys, victim owned %d", remapped, owned[victim])
	}
	// Sanity on balance: with 2000 keys over 5 peers, every peer must
	// own a meaningful share (rendezvous over FNV-1a is near-uniform).
	for _, p := range peers {
		if owned[p] < len(keys)/20 {
			t.Errorf("peer %s owns only %d of %d keys; rendezvous badly unbalanced", p, owned[p], len(keys))
		}
	}
}

// TestRouterValidation: misconfigurations every node must refuse at
// startup rather than route inconsistently at runtime.
func TestRouterValidation(t *testing.T) {
	cases := []struct {
		name  string
		self  string
		peers []string
	}{
		{"empty peers", "http://a", nil},
		{"self missing", "http://c", []string{"http://a", "http://b"}},
		{"empty self", "", []string{"http://a"}},
		{"duplicate peer", "http://a", []string{"http://a", "http://a"}},
		{"empty peer entry", "http://a", []string{"http://a", ""}},
	}
	for _, c := range cases {
		if _, err := NewRouter(c.self, c.peers); err == nil {
			t.Errorf("%s: NewRouter accepted an invalid configuration", c.name)
		}
	}
}

// TestPoolHealthWindow drives the passive health pool on an injected
// clock: down inside the 5 s window, probe-eligible after it, and the
// unhealthy counter ticks once per outage, not once per skip.
func TestPoolHealthWindow(t *testing.T) {
	var now time.Duration
	reg := obs.New()
	p := newPool(func() time.Duration { return now }, reg.Counter("peer_unhealthy"))
	const peer = "http://n1:80"
	if !p.Healthy(peer) {
		t.Fatal("fresh pool reports peer unhealthy")
	}
	p.MarkDown(peer)
	if p.Healthy(peer) || !p.Down(peer) {
		t.Fatal("peer healthy immediately after MarkDown")
	}
	p.MarkDown(peer) // losing probe restarts the window, no double count
	now = 4 * time.Second
	if p.Healthy(peer) {
		t.Fatal("peer healthy inside the retry window")
	}
	now = 5 * time.Second
	if !p.Healthy(peer) {
		t.Fatal("peer still unhealthy after the retry window expired")
	}
	if p.Down(peer) {
		t.Fatal("expired outage still reads as down")
	}
	if got := reg.Counter("peer_unhealthy").Value(); got != 1 {
		t.Errorf("peer_unhealthy = %d after one outage, want 1", got)
	}
	p.MarkDown(peer)
	p.MarkUp(peer)
	if !p.Healthy(peer) {
		t.Fatal("MarkUp did not clear the outage")
	}
	if got := reg.Counter("peer_unhealthy").Value(); got != 2 {
		t.Errorf("peer_unhealthy = %d after two outages, want 2", got)
	}
}

// flakyOwner is an httptest handler that fails its first n requests
// with the given status, then serves a fixed body.
type flakyOwner struct {
	failures int
	status   int
	requests int
	headers  []string // ForwardedHeader value per request
}

func (f *flakyOwner) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.requests++
	f.headers = append(f.headers, r.Header.Get(ForwardedHeader))
	if f.requests <= f.failures {
		w.WriteHeader(f.status)
		return
	}
	w.Header().Set("X-Cache", "hit")
	_, _ = w.Write([]byte("owner-body\n"))
}

// newTestCluster builds a 2-member cluster whose forwarder talks to the
// given owner URL, with a recording sleep.
func newTestCluster(t *testing.T, owner string, sleeps *[]time.Duration) *Cluster {
	t.Helper()
	c, err := New(Options{
		Self:  "http://self.invalid",
		Peers: []string{"http://self.invalid", owner},
		Clock: func() time.Duration { return 0 },
		Sleep: func(d time.Duration) { *sleeps = append(*sleeps, d) },
		Obs:   obs.New().Scope("cluster"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestForwardRetriesThenSucceeds: a 503 from the owner is retried with
// doubling backoff, the forwarded request carries the single-hop header
// with the forwarder's identity, and the owner's headers and body come
// back intact.
func TestForwardRetriesThenSucceeds(t *testing.T) {
	owner := &flakyOwner{failures: 2, status: http.StatusServiceUnavailable}
	ts := httptest.NewServer(owner)
	defer ts.Close()
	var sleeps []time.Duration
	c := newTestCluster(t, ts.URL, &sleeps)

	resp, err := c.Forward(context.Background(), ts.URL, "/v1/v100/fig1?quick=1")
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if resp.Status != http.StatusOK || string(resp.Body) != "owner-body\n" {
		t.Errorf("Forward = (%d, %q), want (200, owner-body)", resp.Status, resp.Body)
	}
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("forwarded X-Cache = %q, want hit", got)
	}
	if owner.requests != 3 {
		t.Errorf("owner saw %d requests, want 3 (two 503s + success)", owner.requests)
	}
	for i, h := range owner.headers {
		if h != "http://self.invalid" {
			t.Errorf("request %d: %s = %q, want the forwarder's identity", i, ForwardedHeader, h)
		}
	}
	if len(sleeps) != 2 || sleeps[0] != 100*time.Millisecond || sleeps[1] != 200*time.Millisecond {
		t.Errorf("backoff sleeps = %v, want [100ms 200ms]", sleeps)
	}
}

// TestForwardExhaustsRetries: a persistently failing owner yields an
// error (the caller then falls back to local compute) and ticks
// forward_err.
func TestForwardExhaustsRetries(t *testing.T) {
	owner := &flakyOwner{failures: 100, status: http.StatusBadGateway}
	ts := httptest.NewServer(owner)
	defer ts.Close()
	var sleeps []time.Duration
	c := newTestCluster(t, ts.URL, &sleeps)

	if _, err := c.Forward(context.Background(), ts.URL, "/v1/v100/fig1"); err == nil {
		t.Fatal("Forward succeeded against a 502-only owner")
	}
	if owner.requests != 3 {
		t.Errorf("owner saw %d requests, want 3 (initial + 2 retries)", owner.requests)
	}
	if got := c.ForwardErrs.Value(); got != 1 {
		t.Errorf("forward_err = %d, want 1", got)
	}
}

// TestForwardPassesThroughOwnerAnswers: statuses other than 502/503 —
// including the owner's own 504 deadline and a 500 run-refusal — are
// answers, not failures: retrying or falling back would duplicate the
// owner's in-flight work.
func TestForwardPassesThroughOwnerAnswers(t *testing.T) {
	for _, status := range []int{http.StatusOK, http.StatusNotFound, http.StatusInternalServerError, http.StatusGatewayTimeout} {
		owner := &flakyOwner{failures: 0, status: status}
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			owner.requests++
			w.WriteHeader(status)
		}))
		var sleeps []time.Duration
		c := newTestCluster(t, ts.URL, &sleeps)
		resp, err := c.Forward(context.Background(), ts.URL, "/v1/v100/fig1")
		if err != nil {
			t.Errorf("status %d: Forward errored: %v", status, err)
		} else if resp.Status != status {
			t.Errorf("Forward status = %d, want %d", resp.Status, status)
		}
		if owner.requests != 1 {
			t.Errorf("status %d: owner saw %d requests, want 1 (no retry)", status, owner.requests)
		}
		ts.Close()
	}
}

// TestForwardDeadPeer: a connection-refused owner errors out through
// the retry budget without panicking; the caller's context is honored.
func TestForwardDeadPeer(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ts.Close() // listener gone: every dial is refused
	var sleeps []time.Duration
	c := newTestCluster(t, ts.URL, &sleeps)
	if _, err := c.Forward(context.Background(), ts.URL, "/v1/v100/fig1"); err == nil {
		t.Fatal("Forward succeeded against a closed listener")
	}
	if len(sleeps) != 2 {
		t.Errorf("dead peer: %d backoff sleeps, want 2", len(sleeps))
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Forward(ctx, ts.URL, "/v1/v100/fig1")
	if err == nil {
		t.Fatal("Forward succeeded with a cancelled context")
	}
	if !errors.Is(err, context.Canceled) && err == nil {
		t.Errorf("cancelled forward error = %v", err)
	}
}
