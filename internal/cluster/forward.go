package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"
)

// ForwardedHeader marks a request as already forwarded once. Its value
// is the forwarding node's peer identity. A node receiving a request
// with this header serves it locally no matter who the routing table
// says owns the key: one hop is the maximum, so disagreeing peer sets
// can mis-route but never loop.
const ForwardedHeader = "X-Noc-Forwarded"

// maxForwardBody caps a forwarded response body, so a misbehaving peer
// cannot make this node buffer without bound.
const maxForwardBody = 256 << 20

// Response is a completed forward: the owner's answer, body fully read.
type Response struct {
	Status int
	Header http.Header
	Body   []byte
}

// forwarder performs single-hop ownership forwards with bounded retry.
type forwarder struct {
	client Doer
	self   string
	sleep  func(time.Duration)
}

// newForwarder builds the forwarder from the cluster options.
func newForwarder(o Options) *forwarder {
	client := o.Client
	if client == nil {
		client = &http.Client{}
	}
	sleep := o.Sleep
	if sleep == nil {
		sleep = func(time.Duration) {}
	}
	return &forwarder{client: client, self: o.Self, sleep: sleep}
}

// Forward proxies requestURI (path plus query, e.g.
// "/v1/v100/fig1?quick=1") to the owner peer and returns its response,
// retrying transport failures and 502/503 answers with doubling backoff
// up to the retry budget. Any other status — 200, 404, 500, even the
// owner's own 504 deadline — is a real answer from the owner and is
// returned as-is: a 504 in particular means the owner accepted the key
// and its fill keeps computing, so falling back locally would duplicate
// the simulation the forward existed to dedupe. ctx bounds every
// attempt and the backoff waits between them.
func (c *Cluster) Forward(ctx context.Context, owner, requestURI string) (*Response, error) {
	start := c.clock()
	resp, err := c.fwd.forward(ctx, owner, requestURI)
	if err != nil {
		c.ForwardErrs.Inc()
		return nil, err
	}
	c.ForwardMS.Observe(int64((c.clock() - start) / time.Millisecond))
	return resp, nil
}

// forward is the retry loop behind Cluster.Forward.
func (f *forwarder) forward(ctx context.Context, owner, requestURI string) (*Response, error) {
	var lastErr error
	backoff := forwardBackoff
	for attempt := 0; attempt <= forwardRetries; attempt++ {
		if attempt > 0 {
			f.sleep(backoff)
			backoff *= 2
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		resp, err := f.attempt(ctx, owner, requestURI)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		// A fired caller context is terminal: more attempts cannot
		// succeed and the backoff would only delay the fallback answer.
		if ctx.Err() != nil {
			return nil, lastErr
		}
	}
	return nil, lastErr
}

// attempt performs one forwarded request. Transport errors and
// 502/503 — the owner refusing or mid-restart — are retryable errors;
// everything else is the owner's answer.
func (f *forwarder) attempt(ctx context.Context, owner, requestURI string) (*Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, owner+requestURI, nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: forward to %s: %w", owner, err)
	}
	req.Header.Set(ForwardedHeader, f.self)
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: forward to %s: %w", owner, err)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxForwardBody+1))
	_ = resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("cluster: forward to %s: reading body: %w", owner, err)
	}
	if len(body) > maxForwardBody {
		return nil, fmt.Errorf("cluster: forward to %s: body exceeds %d byte cap", owner, maxForwardBody)
	}
	if resp.StatusCode == http.StatusBadGateway || resp.StatusCode == http.StatusServiceUnavailable {
		return nil, fmt.Errorf("cluster: forward to %s: owner answered %d", owner, resp.StatusCode)
	}
	return &Response{Status: resp.StatusCode, Header: resp.Header, Body: body}, nil
}
