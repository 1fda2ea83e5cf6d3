package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"gpunoc/internal/cluster"
	"gpunoc/internal/core"
	"gpunoc/internal/gpu"
	"gpunoc/internal/obs"
	"gpunoc/internal/resultstore"
)

// newComputer builds the store's cold-key path: one full experiment run
// through the same core.RunResult pipeline cmd/nocchar prints from, so
// every served byte is the CLI's byte. workers sizes each simulation's
// internal sweep pool. The context is the store's Base (server drain),
// never a request's: it reaches the experiment as core's Cancel, so a
// draining process stops simulating at the next sweep-row checkpoint
// while request deadlines never abort a shared fill.
func newComputer(workers int) func(context.Context, resultstore.Key) (*resultstore.Entry, error) {
	return func(cancel context.Context, key resultstore.Key) (*resultstore.Entry, error) {
		cfg, err := gpu.ByName(string(key.GPU))
		if err != nil {
			return nil, err
		}
		e, err := core.Lookup(key.Exp)
		if err != nil {
			return nil, err
		}
		ctx, err := core.NewContext(cfg, key.Quick)
		if err != nil {
			return nil, err
		}
		ctx.Workers = workers
		ctx.Cancel = cancel
		res, err := core.RunResult(ctx, e)
		if err != nil {
			return nil, err
		}
		return entryFromResult(res)
	}
}

// entryFromResult pre-renders every serving format once, at compute
// time, so a warm key answers any format without re-rendering.
func entryFromResult(res *core.Result) (*resultstore.Entry, error) {
	jsonBytes, err := res.JSONBytes()
	if err != nil {
		return nil, err
	}
	return &resultstore.Entry{
		JSON:     jsonBytes,
		CSV:      res.CSVBytes(),
		Text:     res.TextBytes(),
		Markdown: res.MarkdownBytes(),
	}, nil
}

// serverConfig carries the production-ingress knobs from main's flags.
// The zero value reproduces the pre-deadline behavior exactly: no
// request deadline, no admission bound.
type serverConfig struct {
	// requestTimeout bounds each result request's wall time, queue wait
	// included; 0 means no deadline. Expiry returns 504 and detaches the
	// waiter — the shared fill keeps running and still caches.
	requestTimeout time.Duration
	// maxInflight bounds concurrently admitted result requests; <= 0
	// means unlimited.
	maxInflight int
	// queueDepth bounds how many requests may wait for a slot when all
	// maxInflight are busy; overflow is shed with 429 + Retry-After.
	queueDepth int
}

// server is the HTTP serving layer over one result store.
type server struct {
	store *resultstore.Store
	// reg is the root registry /metricz renders; the store scopes itself
	// under "resultstore/", the handler under "http/".
	reg *obs.Registry
	cfg serverConfig
	adm *admission
	// cluster, when non-nil, shards the key space across peers: non-owner
	// requests forward one hop to the owner, falling back to local
	// computation when the owner is unhealthy. Nil means single-node.
	cluster *cluster.Cluster
	// draining flips when graceful shutdown begins; /healthz answers 503
	// from then on so balancers stop routing into the drain window while
	// in-flight and straggler requests still complete.
	draining atomic.Bool

	requests      *obs.Counter
	errors        *obs.Counter
	shed          *obs.Counter
	timedOut      *obs.Counter
	canceled      *obs.Counter
	drainingGauge *obs.Gauge
	latencyMS     *obs.Histogram
	queueWaitMS   *obs.Histogram
}

// newServer wires a server over a store and registry (both required by
// main; tests may pass a stub store and a fresh registry).
func newServer(store *resultstore.Store, reg *obs.Registry, cfg serverConfig) *server {
	h := reg.Scope("http")
	return &server{
		store:         store,
		reg:           reg,
		cfg:           cfg,
		adm:           newAdmission(cfg.maxInflight, cfg.queueDepth),
		requests:      h.Counter("requests"),
		errors:        h.Counter("errors"),
		shed:          h.Counter("shed"),
		timedOut:      h.Counter("timed_out"),
		canceled:      h.Counter("canceled"),
		drainingGauge: h.Gauge("draining"),
		latencyMS:     h.Histogram("latency_ms", obs.LatencyBoundsMS()),
		queueWaitMS:   h.Histogram("queue_wait_ms", obs.LatencyBoundsMS()),
	}
}

// beginDrain marks the server as draining: from this call on /healthz
// answers 503 so balancers take the node out of rotation, while result
// endpoints keep serving whatever still arrives until the listener
// closes. Idempotent.
func (s *server) beginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.drainingGauge.Set(1)
	}
}

// handler returns the route table. Result URLs are
// GET /v1/{gpu}/{exp}?format=json|csv|text|md&quick=1.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/{$}", s.handleList)
	mux.HandleFunc("GET /v1/{gpu}/{exp}", s.timed(s.handleResult))
	mux.HandleFunc("GET /metricz", s.handleMetricz)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// timed wraps a result handler with the request counter and the
// wall-latency histogram (cache hits land in the bottom bucket, cold
// full-fidelity simulations in the top ones).
func (s *server) timed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Inc()
		start := time.Now()
		h(w, r)
		s.latencyMS.Observe(time.Since(start).Milliseconds())
	}
}

// contentTypes maps the format query value to the served media type.
var contentTypes = map[string]string{
	"json": "application/json",
	"csv":  "text/csv; charset=utf-8",
	"text": "text/plain; charset=utf-8",
	"md":   "text/markdown; charset=utf-8",
}

// handleResult serves one (gpu, exp, quick) tuple in the requested
// format. The tuple is validated before it can reach the store, so a
// bad URL costs a map lookup, never a simulation slot.
func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	cfg, err := gpu.ByName(r.PathValue("gpu"))
	if err != nil {
		s.fail(w, http.StatusNotFound, err)
		return
	}
	e, err := core.Lookup(r.PathValue("exp"))
	if err != nil {
		s.fail(w, http.StatusNotFound, err)
		return
	}
	if !e.SupportsGPU(cfg.Name) {
		s.fail(w, http.StatusNotFound,
			fmt.Errorf("experiment %s does not apply to %s (supported: %v)", e.ID, cfg.Name, e.GPUs))
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "json"
	}
	ctype, ok := contentTypes[format]
	if !ok {
		s.fail(w, http.StatusBadRequest,
			fmt.Errorf("unknown format %q (want json, csv, text, or md)", format))
		return
	}
	quick := r.URL.Query().Get("quick") == "1"
	key := resultstore.Key{GPU: cfg.Name, Exp: e.ID, Quick: quick}

	// Request-scoped cancellation: the client's connection context,
	// tightened by the configured per-request deadline. It governs this
	// waiter only — a fired context detaches the request while the
	// shared fill keeps running under the store's Base and still caches.
	ctx := r.Context()
	if s.cfg.requestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.requestTimeout)
		defer cancel()
	}
	// Sharded tier: a non-owner key forwards one hop to its owner before
	// consuming a local admission slot — the simulation work (and its
	// admission accounting) belongs to the owner. Unreachable owners fall
	// through to the local path below: degraded, never down.
	if s.cluster != nil && s.forwardToOwner(ctx, w, r, key) {
		return
	}
	queuedAt := time.Now()
	if err := s.adm.acquire(ctx); err != nil {
		switch {
		case errors.Is(err, errShed):
			s.shed.Inc()
			w.Header().Set("Retry-After", "1")
			s.fail(w, http.StatusTooManyRequests, err)
		case errors.Is(err, context.DeadlineExceeded):
			s.timedOut.Inc()
			s.fail(w, http.StatusGatewayTimeout, fmt.Errorf("request deadline exceeded while queued (limit %s)", s.cfg.requestTimeout))
		default:
			// Client disconnected while queued; nobody reads a response.
			s.canceled.Inc()
		}
		return
	}
	defer s.adm.release()
	s.queueWaitMS.Observe(time.Since(queuedAt).Milliseconds())

	entry, outcome, err := s.store.GetContext(ctx, key)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.timedOut.Inc()
			s.fail(w, http.StatusGatewayTimeout, fmt.Errorf("request deadline exceeded (limit %s); the result keeps computing and a retry will hit the cache", s.cfg.requestTimeout))
		case errors.Is(err, context.Canceled):
			s.canceled.Inc()
		default:
			s.fail(w, http.StatusInternalServerError, err)
		}
		return
	}
	var body []byte
	switch format {
	case "json":
		body = entry.JSON
	case "csv":
		body = entry.CSV
	case "text":
		body = entry.Text
	case "md":
		body = entry.Markdown
	}
	w.Header().Set("Content-Type", ctype)
	w.Header().Set("X-Cache", outcome.String())
	w.Header().Set("Content-Length", fmt.Sprint(len(body)))
	_, _ = w.Write(body)
}

// listedExperiment is one row of the /v1 index.
type listedExperiment struct {
	GPU   string `json:"gpu"`
	Exp   string `json:"exp"`
	Title string `json:"title"`
	URL   string `json:"url"`
}

// handleList enumerates every servable (gpu, exp) pair in registry
// order — the same supported-pair filter the CLI's -all mode applies.
func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	var rows []listedExperiment
	for _, cfg := range gpu.AllConfigs() {
		for _, e := range core.All() {
			if !e.SupportsGPU(cfg.Name) {
				continue
			}
			name := string(cfg.Name)
			rows = append(rows, listedExperiment{
				GPU:   name,
				Exp:   e.ID,
				Title: e.Title,
				URL:   fmt.Sprintf("/v1/%s/%s", name, e.ID),
			})
		}
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, rows)
}

// handleMetricz renders the server's registry as the same sorted-key
// JSON document `nocchar -metrics` writes: the result store's cache,
// spill and compute-latency instruments under resultstore/, the HTTP
// layer's request, shed, timeout and latency instruments under http/,
// and, in cluster mode, the forwarding instruments under cluster/.
// Simulations run unobserved, so no per-simulation scope appears.
func (s *server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.reg.WriteMetrics(w); err != nil {
		s.errors.Inc()
	}
}

// forwardToOwner routes one validated result request through the shard
// router. It returns true when it wrote the response (a completed
// forward) and false when the request must be served locally: this node
// owns the key, the request already hopped once, or the owner is
// unhealthy/unreachable (fallback_local — the result is deterministic,
// so local bytes are identical and only the one-simulation-per-cluster
// economy is lost until the peer recovers).
func (s *server) forwardToOwner(ctx context.Context, w http.ResponseWriter, r *http.Request, key resultstore.Key) bool {
	c := s.cluster
	// The shard key is the result's content address: the same SHA-256
	// derivation the spill files are named by, so routing, caching, and
	// spill all agree on identity.
	owner := c.Router.Owner(key.ContentAddress())
	if c.Router.IsSelf(owner) {
		return false
	}
	if r.Header.Get(cluster.ForwardedHeader) != "" {
		// Single-hop rule: an already-forwarded request is served where
		// it lands even when this node disagrees about ownership, so
		// divergent peer sets mis-route at most once and can never loop.
		c.MisRouted.Inc()
		return false
	}
	if !c.Pool.Healthy(owner) {
		c.FallbackLocal.Inc()
		return false
	}
	resp, err := c.Forward(ctx, owner, r.URL.RequestURI())
	if err != nil {
		c.Pool.MarkDown(owner)
		c.FallbackLocal.Inc()
		return false
	}
	c.Pool.MarkUp(owner)
	c.Forwarded.Inc()
	for _, h := range []string{"Content-Type", "X-Cache"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Noc-Owner", owner)
	w.Header().Set("Content-Length", fmt.Sprint(len(resp.Body)))
	w.WriteHeader(resp.Status)
	_, _ = w.Write(resp.Body)
	return true
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = fmt.Fprintln(w, "draining")
		return
	}
	_, _ = fmt.Fprintln(w, "ok")
}

// writeJSON indents v onto the response; encode failures surface as a
// 500 because nothing has been written yet.
func writeJSON(w http.ResponseWriter, v interface{}) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, fmt.Sprintf("nocserve: %v", err), http.StatusInternalServerError)
		return
	}
	_, _ = w.Write(append(data, '\n'))
}

// fail writes a plain-text error body and counts it.
func (s *server) fail(w http.ResponseWriter, status int, err error) {
	s.errors.Inc()
	http.Error(w, fmt.Sprintf("nocserve: %v", err), status)
}
