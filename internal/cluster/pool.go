package cluster

import (
	"sync"
	"time"

	"gpunoc/internal/obs"
)

// Pool tracks peer health passively: a peer is healthy until a forward
// to it fails, and an unhealthy peer is skipped (requests for its keys
// compute locally) until the retry window expires, at which point the
// next forward probes it — success marks it up, failure restarts the
// window. There is no background prober, so the pool needs no
// goroutines and no wall clock: health state advances only when
// requests flow, on the injected clock.
type Pool struct {
	mu    sync.Mutex
	clock func() time.Duration
	// downUntil maps an unhealthy peer to the injected-clock time at
	// which forwards may probe it again.
	downUntil map[string]time.Duration
	// unhealthy counts up->down transitions (a flapping peer ticks once
	// per outage, not once per skipped request).
	unhealthy *obs.Counter
}

// newPool builds a pool on the given clock, counting outages in
// unhealthy; every peer starts healthy.
func newPool(clock func() time.Duration, unhealthy *obs.Counter) *Pool {
	return &Pool{clock: clock, downUntil: map[string]time.Duration{}, unhealthy: unhealthy}
}

// Healthy reports whether forwards to peer are currently allowed. A
// peer whose retry window has expired reads as healthy again — the next
// forward is the probe, and its failure re-marks the peer down.
func (p *Pool) Healthy(peer string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	until, down := p.downUntil[peer]
	if !down {
		return true
	}
	if p.clock() < until {
		return false
	}
	// Window expired: forget the outage so the probing forward's own
	// failure (not a stale stamp) decides the next window.
	delete(p.downUntil, peer)
	return true
}

// MarkDown records a failed forward: peer is skipped until the retry
// window expires. Re-marking an already-down peer (a losing probe)
// restarts the window without re-counting the outage.
func (p *Pool) MarkDown(peer string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, down := p.downUntil[peer]; !down {
		p.unhealthy.Inc()
	}
	p.downUntil[peer] = p.clock() + retryAfter
}

// MarkUp records a successful forward, clearing any outage early.
func (p *Pool) MarkUp(peer string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.downUntil, peer)
}

// Down reports whether peer is currently inside an unexpired outage
// window, without the probe side effect Healthy has.
func (p *Pool) Down(peer string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	until, down := p.downUntil[peer]
	return down && p.clock() < until
}
