// Command nocserve serves the characterization suite's experiment
// artifacts over HTTP, backed by a content-addressed result cache so
// each deterministic (gpu, experiment, quick) tuple is simulated at
// most once no matter how many clients ask.
//
// Usage:
//
//	nocserve -addr 127.0.0.1:8080
//	nocserve -addr :8080 -cache-bytes 268435456 -spill /var/cache/nocserve
//
// Endpoints:
//
//	GET /v1                         list every servable (gpu, exp) pair
//	GET /v1/{gpu}/{exp}             the experiment's artifacts
//	    ?format=json|csv|text|md    response rendering (default json)
//	    ?quick=1                    quick-mode run (nocchar -quick)
//	GET /metricz                    instruments as sorted-key JSON
//	GET /healthz                    liveness probe
//
// Response bodies are byte-identical to the corresponding nocchar
// stdout: format=json matches `nocchar -gpu G -exp E -json` (minus the
// CLI's three-line header), csv matches -csv, text the default mode.
// The X-Cache response header reports how the request was satisfied:
// miss (this request simulated), hit (memory), coalesced (shared an
// in-flight simulation), or spill (loaded from the -spill directory).
//
// Deadlines and admission control (all off by default):
//
//	-request-timeout D   per-request wall-time budget; expiry returns
//	                     504 while the in-flight simulation keeps
//	                     running and still populates the cache, so a
//	                     retry of the same tuple is a hit
//	-max-inflight N      concurrently admitted result requests
//	-queue-depth N       requests allowed to wait for a slot; overflow
//	                     is shed with 429 + Retry-After: 1
//	-read-timeout D      net/http ReadTimeout (full request read)
//	-idle-timeout D      net/http IdleTimeout (keep-alive connections)
//
// -drain bounds how long shutdown waits for in-flight requests
// and fills after SIGINT/SIGTERM; /healthz answers 503 from the moment
// drain begins so balancers stop routing before the listener closes.
//
// Sharded cluster mode (off by default):
//
//	-peers URL,URL,...   the full member list, this node included
//	-self URL            this node's base URL as it appears in -peers
//
// Each result key is owned by exactly one member (rendezvous hashing
// over the key's content address); a request landing on a non-owner
// forwards one hop to the owner (X-Noc-Forwarded guards against loops)
// so each cold key is simulated once cluster-wide. An unreachable or
// draining owner degrades the node to computing locally — identical
// bytes, counted as cluster/fallback_local — so the cluster behaves as
// N independent nodes rather than failing. Forward/mis-route/unhealthy
// counters and a forward-latency histogram appear under cluster/ on
// /metricz.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gpunoc/internal/cluster"
	"gpunoc/internal/obs"
	"gpunoc/internal/resultstore"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		cacheBytes  = flag.Int64("cache-bytes", 256<<20, "in-memory result-cache budget in bytes; <= 0 means unbounded")
		spillDir    = flag.String("spill", "", "directory for the disk spill; empty disables it")
		spillMax    = flag.Int64("spill-max-bytes", 0, "disk-spill byte budget; oldest spill files are pruned past it (evicted_spill on /metricz); <= 0 means unbounded")
		workers     = flag.Int("parallel", 0, "worker-pool size for each simulation's sweeps; 0 means GOMAXPROCS")
		drain       = flag.Duration("drain", 30*time.Second, "graceful-shutdown deadline for in-flight requests and fills")
		reqTimeout  = flag.Duration("request-timeout", 0, "per-request wall-time budget (504 on expiry; the fill keeps running); 0 disables")
		maxInflight = flag.Int("max-inflight", 0, "concurrently admitted result requests; 0 means unlimited")
		queueDepth  = flag.Int("queue-depth", 0, "requests allowed to wait for an admission slot; overflow gets 429")
		readTimeout = flag.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout (full request read); 0 disables")
		idleTimeout = flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections; 0 disables")
		peers       = flag.String("peers", "", "comma-separated base URLs of every cluster member, this node included; empty runs single-node")
		self        = flag.String("self", "", "this node's base URL exactly as listed in -peers; required with -peers")
	)
	flag.Parse()
	if (*peers == "") != (*self == "") {
		fatal(errors.New("-peers and -self must be set together"))
	}

	// The signal context is the store's Base: cancelling it (SIGINT,
	// SIGTERM) aborts in-flight simulations at their next sweep-row
	// checkpoint.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := obs.New()
	t0 := time.Now()
	store, err := resultstore.New(resultstore.Options{
		Compute:       newComputer(*workers),
		Base:          ctx,
		MaxBytes:      *cacheBytes,
		SpillDir:      *spillDir,
		SpillMaxBytes: *spillMax,
		Obs:           reg.Scope("resultstore"),
		Clock:         func() time.Duration { return time.Since(t0) },
	})
	if err != nil {
		fatal(err)
	}
	cfg := serverConfig{requestTimeout: *reqTimeout, maxInflight: *maxInflight, queueDepth: *queueDepth}
	sv := newServer(store, reg, cfg)
	if *peers != "" {
		cl, err := cluster.New(cluster.Options{
			Self:       *self,
			Peers:      strings.Split(*peers, ","),
			Retries:    2,
			Backoff:    100 * time.Millisecond,
			RetryAfter: 5 * time.Second,
			Clock:      func() time.Duration { return time.Since(t0) },
			Sleep:      time.Sleep,
			Obs:        reg.Scope("cluster"),
		})
		if err != nil {
			fatal(err)
		}
		sv.cluster = cl
		fmt.Fprintf(os.Stderr, "nocserve: cluster member %s of %v\n", *self, cl.Router.Peers())
	}
	srv := &http.Server{
		Handler: sv.handler(),
		// ReadHeaderTimeout alone closes the classic slowloris hole: a
		// client trickling header bytes can no longer pin a connection
		// (and its goroutine) forever. ReadTimeout then bounds the whole
		// request read, IdleTimeout reaps parked keep-alives, and the
		// header cap bounds per-connection memory. There is deliberately
		// no WriteTimeout: a cold full-fidelity simulation legitimately
		// takes longer than any fixed write budget, and -request-timeout
		// already bounds the handler.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       *idleTimeout,
		MaxHeaderBytes:    1 << 20,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// The resolved address (with the real port when -addr asked for :0)
	// goes to stderr so scripts can scrape it; stdout stays silent.
	fmt.Fprintf(os.Stderr, "nocserve: listening on %s\n", ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		// Serve only returns on listener failure here; Shutdown's
		// ErrServerClosed cannot arrive before a signal.
		fatal(err)
	case <-ctx.Done():
	}
	stop()
	// Flip /healthz to 503 before the listener starts refusing: balancers
	// polling health take the node out of rotation during the drain
	// window instead of discovering the closure by connection error.
	sv.beginDrain()
	fmt.Fprintf(os.Stderr, "nocserve: shutting down, draining for up to %s\n", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(fmt.Errorf("shutdown: %w", err))
	}
	// Detached fills (from timed-out or disconnected requests) may still
	// be publishing into the cache and spill; give them the remainder of
	// the drain budget. The Base context is already cancelled, so each
	// stops at its next sweep-row checkpoint rather than running long.
	fillsDone := make(chan struct{})
	go func() { store.Wait(); close(fillsDone) }()
	select {
	case <-fillsDone:
	case <-shutdownCtx.Done():
		fmt.Fprintln(os.Stderr, "nocserve: drain deadline reached with fills still unwinding")
	}
	fmt.Fprintln(os.Stderr, "nocserve: drained")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nocserve:", err)
	os.Exit(1)
}
