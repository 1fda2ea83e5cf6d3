package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gpunoc/internal/resultstore"
)

// gatedComputer is a fault-injection stub: every compute blocks on the
// gate channel (close it to release all fills at once) and counts its
// invocations. The compute deliberately ignores its context — it models
// a wedged simulation that cannot be interrupted, the worst case the
// deadline machinery must absorb.
type gatedComputer struct {
	gate  chan struct{}
	calls atomic.Int64
}

func newGatedComputer() *gatedComputer {
	return &gatedComputer{gate: make(chan struct{})}
}

func (g *gatedComputer) compute(_ context.Context, key resultstore.Key) (*resultstore.Entry, error) {
	g.calls.Add(1)
	<-g.gate
	body := []byte(fmt.Sprintf("{\"key\":%q}\n", key))
	return &resultstore.Entry{JSON: body, CSV: body, Text: body, Markdown: body}, nil
}

// Test504OnRequestTimeout is the tentpole's acceptance path: a request
// against a wedged cold key times out with 504 WITHOUT killing the
// fill; once the fill unwedges it populates the cache, so the retry is
// a 200 hit with zero extra simulations, and /metricz records the
// timeout.
func Test504OnRequestTimeout(t *testing.T) {
	g := newGatedComputer()
	ts, store, _ := newConfiguredServer(t, serverConfig{requestTimeout: 30 * time.Millisecond}, g.compute)

	status, _, body := get(t, ts.URL+"/v1/v100/fig1?quick=1")
	if status != http.StatusGatewayTimeout {
		t.Fatalf("wedged cold key: status %d (%s), want 504", status, bytes.TrimSpace(body))
	}
	if !strings.Contains(string(body), "deadline exceeded") {
		t.Errorf("504 body %q does not explain the deadline", bytes.TrimSpace(body))
	}

	// The server must not be wedged: an unrelated cached path answers.
	if status, _, _ := get(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("healthz during a wedged fill: status %d", status)
	}

	// Release the fill; it must complete, cache, and leave no goroutine
	// behind (Wait returns). The retry is then a hit, and the single
	// compute call proves the 504'd request's work was reused, not
	// redone.
	close(g.gate)
	store.Wait()
	status2, cache, body2 := get(t, ts.URL+"/v1/v100/fig1?quick=1")
	if status2 != http.StatusOK || cache != "hit" {
		t.Fatalf("retry after fill completed: (status %d, X-Cache %q), want (200, hit)", status2, cache)
	}
	if !bytes.Contains(body2, []byte("fig1")) {
		t.Errorf("retry body %q lost the entry", bytes.TrimSpace(body2))
	}
	if n := g.calls.Load(); n != 1 {
		t.Errorf("%d simulations for one key across timeout and retry, want 1", n)
	}

	status3, _, metricz := get(t, ts.URL+"/metricz")
	if status3 != http.StatusOK {
		t.Fatalf("/metricz: status %d", status3)
	}
	for _, want := range []string{`"http/timed_out": 1`, `"resultstore/canceled": 1`} {
		if !strings.Contains(string(metricz), want) {
			t.Errorf("/metricz missing %q:\n%s", want, metricz)
		}
	}
}

// TestClientDisconnectDetachesWaiter: a client that hangs up mid-request
// (no server-side deadline configured) detaches its waiter via
// r.Context(), is counted as canceled rather than as a server error,
// and the fill still completes and caches.
func TestClientDisconnectDetachesWaiter(t *testing.T) {
	g := newGatedComputer()
	ts, store, reg := newConfiguredServer(t, serverConfig{}, g.compute)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/v100/fig1?quick=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	// Wait until the request has reached the compute before hanging up,
	// so the cancellation exercises a parked waiter, not a pre-dispatch
	// refusal.
	deadline := time.Now().Add(5 * time.Second)
	for g.calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("compute never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("client Do returned nil error after its context was cancelled")
	}
	// While the fill is still wedged, detaching on ctx.Done is the
	// waiter's only exit; once the counter ticks, the handler has
	// classified the hang-up. (Releasing the gate first would race the
	// detach against normal completion.)
	h := reg.Scope("http")
	for h.Counter("canceled").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("handler never recorded the disconnect")
		}
		time.Sleep(time.Millisecond)
	}

	close(g.gate)
	store.Wait()
	status, cache, _ := get(t, ts.URL+"/v1/v100/fig1?quick=1")
	if status != http.StatusOK || cache != "hit" {
		t.Fatalf("after disconnect: (status %d, X-Cache %q), want (200, hit)", status, cache)
	}
	if n := g.calls.Load(); n != 1 {
		t.Errorf("%d simulations across disconnect and retry, want 1", n)
	}
	if got := h.Counter("errors").Value(); got != 0 {
		t.Errorf("http/errors = %d after a client disconnect, want 0", got)
	}
}

// TestQueueOverflowSheds429: with one slot and no queue, a second
// request during a busy fill is shed immediately with 429 and a
// Retry-After header; after the fill drains, requests are admitted
// again.
func TestQueueOverflowSheds429(t *testing.T) {
	g := newGatedComputer()
	ts, store, reg := newConfiguredServer(t, serverConfig{maxInflight: 1, queueDepth: 0}, g.compute)

	// Occupy the single slot with a wedged fill.
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		status, _, _ := get(t, ts.URL+"/v1/v100/fig1?quick=1")
		if status != http.StatusOK {
			t.Errorf("slot-holding request: status %d, want 200", status)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for g.calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("compute never started")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/v1/v100/fig2?quick=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("429 Retry-After = %q, want \"1\"", got)
	}
	if got := reg.Scope("http").Counter("shed").Value(); got != 1 {
		t.Errorf("http/shed = %d, want 1", got)
	}

	close(g.gate)
	<-firstDone
	store.Wait()
	if status, _, _ := get(t, ts.URL+"/v1/v100/fig2?quick=1"); status != http.StatusOK {
		t.Errorf("post-drain request: status %d, want 200", status)
	}
}

// TestQueuedRequestAdmittedAfterRelease: a request that finds every
// slot busy but queue room available parks, then completes normally
// once the slot frees — queueing delays, it never drops.
func TestQueuedRequestAdmittedAfterRelease(t *testing.T) {
	g := newGatedComputer()
	ts, store, _ := newConfiguredServer(t, serverConfig{maxInflight: 1, queueDepth: 4}, g.compute)

	results := make(chan int, 2)
	for _, exp := range []string{"fig1", "fig2"} {
		go func(exp string) {
			status, _, _ := get(t, ts.URL+"/v1/v100/"+exp+"?quick=1")
			results <- status
		}(exp)
	}
	// Only one compute may start: the other request is parked in the
	// admission queue, not computing.
	deadline := time.Now().Add(5 * time.Second)
	for g.calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no compute started")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if n := g.calls.Load(); n != 1 {
		t.Fatalf("%d computes running with maxInflight=1, want 1", n)
	}

	close(g.gate)
	for i := 0; i < 2; i++ {
		if status := <-results; status != http.StatusOK {
			t.Errorf("queued request %d: status %d, want 200", i, status)
		}
	}
	store.Wait()
}

// TestIngressConfigPreservesBytes is the satellite byte-identity pin:
// the same (gpu, exp) tuple served with no ingress config and with a
// generous deadline + admission bound yields byte-identical bodies —
// the knobs shape scheduling, never content.
func TestIngressConfigPreservesBytes(t *testing.T) {
	fetch := func(cfg serverConfig) []byte {
		ts, _, _ := newConfiguredServer(t, cfg, newComputer(0))
		status, _, body := get(t, ts.URL+"/v1/v100/fig1?quick=1")
		if status != http.StatusOK {
			t.Fatalf("cfg %+v: status %d", cfg, status)
		}
		return body
	}
	plain := fetch(serverConfig{})
	guarded := fetch(serverConfig{requestTimeout: time.Minute, maxInflight: 4, queueDepth: 16})
	if !bytes.Equal(plain, guarded) {
		t.Error("ingress config changed the served bytes")
	}
}
