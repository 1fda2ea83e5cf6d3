package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gpunoc/internal/core"
	"gpunoc/internal/gpu"
	"gpunoc/internal/obs"
	"gpunoc/internal/resultstore"
)

// newTestServer wires a server over the given compute function with the
// zero serverConfig — no deadline, no admission — and returns it with
// its registry and a running httptest listener.
func newTestServer(t *testing.T, compute func(resultstore.Key) (*resultstore.Entry, error)) (*httptest.Server, *obs.Registry) {
	t.Helper()
	ts, _, reg := newConfiguredServer(t, serverConfig{}, compute)
	return ts, reg
}

// newConfiguredServer is the full-control variant: explicit ingress
// config, with the store exposed so tests can Wait() for detached fills.
func newConfiguredServer(t *testing.T, cfg serverConfig, compute func(resultstore.Key) (*resultstore.Entry, error)) (*httptest.Server, *resultstore.Store, *obs.Registry) {
	t.Helper()
	reg := obs.New()
	t0 := time.Now()
	store, err := resultstore.New(resultstore.Options{
		Compute: compute,
		Obs:     reg.Scope("resultstore"),
		Clock:   func() time.Duration { return time.Since(t0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(store, reg, cfg).handler())
	t.Cleanup(ts.Close)
	return ts, store, reg
}

// get fetches a URL and returns status, X-Cache header, and body.
func get(t *testing.T, url string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), body
}

// TestServeConcurrent is the load harness: hundreds of overlapping
// requests spread over a handful of cold keys, against a slow stub
// simulation. Exactly one simulation must run per key, and every
// response for a key must carry identical bytes. Run under -race this
// also exercises the store's publication ordering.
func TestServeConcurrent(t *testing.T) {
	var mu sync.Mutex
	calls := map[resultstore.Key]int{}
	compute := func(key resultstore.Key) (*resultstore.Entry, error) {
		mu.Lock()
		calls[key]++
		mu.Unlock()
		// Slow enough that the request wave piles onto the in-flight
		// call rather than finding a warm cache.
		time.Sleep(50 * time.Millisecond)
		body := []byte(fmt.Sprintf("{\"key\":%q}\n", key))
		return &resultstore.Entry{JSON: body, CSV: body, Text: body, Markdown: body}, nil
	}
	ts, reg := newTestServer(t, compute)

	exps := []string{"fig1", "fig2", "fig3", "table1"}
	const perKey = 75 // 4 keys x 75 = 300 overlapping requests
	type reply struct {
		exp   string
		cache string
		body  []byte
	}
	replies := make([]reply, len(exps)*perKey)
	var wg sync.WaitGroup
	for ki, exp := range exps {
		for j := 0; j < perKey; j++ {
			wg.Add(1)
			go func(slot int, exp string) {
				defer wg.Done()
				status, cache, body := get(t, ts.URL+"/v1/v100/"+exp+"?quick=1")
				if status != http.StatusOK {
					t.Errorf("GET %s: status %d: %s", exp, status, body)
				}
				replies[slot] = reply{exp: exp, cache: cache, body: body}
			}(ki*perKey+j, exp)
		}
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	for _, exp := range exps {
		key := resultstore.Key{GPU: gpu.GenV100, Exp: exp, Quick: true}
		if n := calls[key]; n != 1 {
			t.Errorf("%s: %d simulations for one cold key, want exactly 1", exp, n)
		}
		var want []byte
		outcomes := map[string]int{}
		for _, r := range replies {
			if r.exp != exp {
				continue
			}
			if want == nil {
				want = r.body
			} else if !bytes.Equal(r.body, want) {
				t.Errorf("%s: divergent response bodies for one key", exp)
			}
			outcomes[r.cache]++
		}
		if outcomes["miss"]+outcomes["hit"]+outcomes["coalesced"] != perKey {
			t.Errorf("%s: outcome split %v does not cover %d requests", exp, outcomes, perKey)
		}
		if outcomes["miss"] != 1 {
			t.Errorf("%s: %d misses, want exactly 1 (the computing request)", exp, outcomes["miss"])
		}
	}
	sc := reg.Scope("resultstore")
	if got := sc.Counter("miss").Value(); got != int64(len(exps)) {
		t.Errorf("miss counter = %d, want %d", got, len(exps))
	}
	total := sc.Counter("miss").Value() + sc.Counter("hit").Value() + sc.Counter("coalesced").Value()
	if want := int64(len(exps) * perKey); total != want {
		t.Errorf("outcome counters sum to %d, want %d", total, want)
	}
}

// TestServeMatrixByteIdentity is the acceptance check: for every
// supported (gpu, exp) pair, the served JSON body is byte-identical to
// what core.RunResult — the path behind `nocchar -json` — renders, and
// a second fetch is a cache hit with the same bytes.
func TestServeMatrixByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick matrix in -short mode")
	}
	ts, _, _ := newConfiguredServer(t, serverConfig{}, newComputer())
	for _, cfg := range gpu.AllConfigs() {
		for _, e := range core.All() {
			if !e.SupportsGPU(cfg.Name) {
				continue
			}
			url := fmt.Sprintf("%s/v1/%s/%s?quick=1", ts.URL, strings.ToLower(string(cfg.Name)), e.ID)

			ctx, err := core.NewContext(cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			// The registry lists only pairs that run, so a refusal is a
			// registry defect.
			res, err := core.RunResult(ctx, e)
			if err != nil {
				t.Fatalf("%s/%s: %v", cfg.Name, e.ID, err)
			}
			status, cache, body := get(t, url)
			if status != http.StatusOK {
				t.Fatalf("GET %s: status %d: %s", url, status, body)
			}
			if cache != "miss" {
				t.Errorf("%s/%s: first fetch X-Cache = %q, want miss", cfg.Name, e.ID, cache)
			}
			want, err := res.JSONBytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, want) {
				t.Errorf("%s/%s: served JSON differs from nocchar -json bytes", cfg.Name, e.ID)
			}

			status2, cache2, body2 := get(t, url)
			if status2 != http.StatusOK || cache2 != "hit" {
				t.Errorf("%s/%s: second fetch (status %d, X-Cache %q), want 200 hit", cfg.Name, e.ID, status2, cache2)
			}
			if !bytes.Equal(body2, body) {
				t.Errorf("%s/%s: warm bytes differ from cold bytes", cfg.Name, e.ID)
			}
		}
	}
}

// TestServeFormats checks each format selector returns the matching
// pre-rendered bytes and media type.
func TestServeFormats(t *testing.T) {
	entry := &resultstore.Entry{
		JSON: []byte("J\n"), CSV: []byte("C\n"), Text: []byte("T\n"), Markdown: []byte("M\n"),
	}
	ts, _ := newTestServer(t, func(resultstore.Key) (*resultstore.Entry, error) {
		e := *entry
		return &e, nil
	})
	cases := []struct {
		query, want, ctype string
	}{
		{"", "J\n", "application/json"},
		{"?format=json", "J\n", "application/json"},
		{"?format=csv", "C\n", "text/csv; charset=utf-8"},
		{"?format=text", "T\n", "text/plain; charset=utf-8"},
		{"?format=md", "M\n", "text/markdown; charset=utf-8"},
	}
	for _, c := range cases {
		resp, err := http.Get(ts.URL + "/v1/v100/fig1" + c.query)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(body) != c.want {
			t.Errorf("format %q: body %q, want %q", c.query, body, c.want)
		}
		if got := resp.Header.Get("Content-Type"); got != c.ctype {
			t.Errorf("format %q: Content-Type %q, want %q", c.query, got, c.ctype)
		}
	}
}

// TestServeRejectsBadTuples: invalid requests are refused before they
// can reach the simulation path.
func TestServeRejectsBadTuples(t *testing.T) {
	computed := false
	ts, _ := newTestServer(t, func(resultstore.Key) (*resultstore.Entry, error) {
		computed = true
		return &resultstore.Entry{JSON: []byte("{}\n")}, nil
	})
	cases := []struct {
		path string
		want int
	}{
		{"/v1/gtx480/fig1", http.StatusNotFound}, // unknown GPU
		{"/v1/v100/fig999", http.StatusNotFound}, // unknown experiment
		{"/v1/v100/fig1?format=xml", http.StatusBadRequest},
		{"/v1/v100/fig1?quick=yes", http.StatusBadRequest},
		{"/v2/v100/fig1", http.StatusNotFound}, // unknown API version
	}
	for _, c := range cases {
		status, _, body := get(t, ts.URL+c.path)
		if status != c.want {
			t.Errorf("GET %s: status %d (%s), want %d", c.path, status, bytes.TrimSpace(body), c.want)
		}
	}
	if computed {
		t.Error("a rejected request reached the compute path")
	}
}

// TestServeQuickForms: every strconv.ParseBool spelling of quick selects
// the same key, the form resultstore.Key.String writes (quick=true)
// included, and an absent or empty value means full fidelity.
func TestServeQuickForms(t *testing.T) {
	ts, _ := newTestServer(t, stubCompute)
	for _, c := range []struct {
		query string
		quick bool
	}{
		{"", false},
		{"?quick=", false},
		{"?quick=0", false},
		{"?quick=false", false},
		{"?quick=1", true},
		{"?quick=true", true},
		{"?quick=TRUE", true},
	} {
		want, _ := stubCompute(resultstore.Key{GPU: gpu.GenV100, Exp: "fig1", Quick: c.quick})
		status, _, body := get(t, ts.URL+"/v1/v100/fig1"+c.query)
		if status != http.StatusOK || !bytes.Equal(body, want.JSON) {
			t.Errorf("GET fig1%s = (%d, %q), want (200, %q)", c.query, status, body, want.JSON)
		}
	}
}

// TestServeList: the index enumerates supported pairs only, in
// deterministic registry order.
func TestServeList(t *testing.T) {
	ts, _ := newTestServer(t, func(resultstore.Key) (*resultstore.Entry, error) {
		return &resultstore.Entry{JSON: []byte("{}\n")}, nil
	})
	status, _, body := get(t, ts.URL+"/v1/")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/: status %d", status)
	}
	s := string(body)
	if !strings.Contains(s, `"/v1/V100/fig1"`) && !strings.Contains(s, `"/v1/v100/fig1"`) {
		t.Errorf("index is missing the v100/fig1 row:\n%.300s", s)
	}
	// A second fetch must be byte-identical (no map-order leakage).
	_, _, body2 := get(t, ts.URL+"/v1/")
	if !bytes.Equal(body, body2) {
		t.Error("index bytes differ between fetches")
	}
}

// TestMetricz: the endpoint exposes the store's counters in the
// nocchar -metrics JSON shape.
func TestMetricz(t *testing.T) {
	ts, _ := newTestServer(t, func(key resultstore.Key) (*resultstore.Entry, error) {
		b := []byte("{}\n")
		return &resultstore.Entry{JSON: b, CSV: b, Text: b, Markdown: b}, nil
	})
	get(t, ts.URL+"/v1/v100/fig1") // miss
	get(t, ts.URL+"/v1/v100/fig1") // hit
	status, _, body := get(t, ts.URL+"/metricz")
	if status != http.StatusOK {
		t.Fatalf("GET /metricz: status %d", status)
	}
	for _, want := range []string{
		`"resultstore/miss": 1`,
		`"resultstore/hit": 1`,
		`"http/requests": 2`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metricz missing %q:\n%s", want, body)
		}
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t, func(resultstore.Key) (*resultstore.Entry, error) {
		return &resultstore.Entry{}, nil
	})
	status, _, body := get(t, ts.URL+"/healthz")
	if status != http.StatusOK || string(body) != "ok\n" {
		t.Errorf("GET /healthz = (%d, %q), want (200, ok)", status, body)
	}
}

// TestHealthzDuringDrain is the balancer contract: the moment graceful
// drain begins, /healthz flips to 503 — before the listener closes — so
// load balancers stop routing new traffic into the drain window, while
// result requests already in flight (or stragglers racing the drain)
// are still answered. Regression test for the window where healthz
// stayed 200 until the listener closed.
func TestHealthzDuringDrain(t *testing.T) {
	reg := obs.New()
	store, err := resultstore.New(resultstore.Options{
		Compute: func(resultstore.Key) (*resultstore.Entry, error) {
			b := []byte("{}\n")
			return &resultstore.Entry{JSON: b, CSV: b, Text: b, Markdown: b}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sv := newServer(store, reg, serverConfig{})
	ts := httptest.NewServer(sv.handler())
	defer ts.Close()

	if status, _, _ := get(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("pre-drain /healthz = %d, want 200", status)
	}
	sv.beginDrain()
	sv.beginDrain() // idempotent
	status, _, body := get(t, ts.URL+"/healthz")
	if status != http.StatusServiceUnavailable {
		t.Errorf("draining /healthz = %d, want 503", status)
	}
	if !strings.Contains(string(body), "draining") {
		t.Errorf("draining /healthz body = %q, want it to say draining", body)
	}
	if got := reg.Scope("http").Gauge("draining").Value(); got != 1 {
		t.Errorf("http/draining gauge = %d, want 1", got)
	}
	// Stragglers inside the drain window are still served: only the
	// health probe refuses, not the result path.
	if status, _, _ := get(t, ts.URL+"/v1/v100/fig1?quick=1"); status != http.StatusOK {
		t.Errorf("result request during drain = %d, want 200", status)
	}
}
