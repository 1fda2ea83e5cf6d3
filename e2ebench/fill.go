package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"gpunoc/internal/core"
	"gpunoc/internal/gpu"
	"gpunoc/internal/obs"
)

// fill is one cold fill of a key through the library path nocserve's
// newComputer and entryFromResult take, timed phase by phase from
// outside core: NewContext (setup), RunResult (run), the four
// Result renderers (render).
type fill struct {
	setup, run, render time.Duration
	// setupAt, runAt and renderAt are when each phase started.
	setupAt, runAt, renderAt time.Time
	// runAlloc is the bytes RunResult allocated; only measured when the
	// caller asks, because reading it stops the world.
	runAlloc uint64
	bodies   [4][]byte
	err      error
}

// coldFill runs k once. reg, when non-nil, is handed to the run as its
// observation scope so the simulated statistics can be read back.
func coldFill(k key, reg *obs.Registry, measureAlloc bool) fill {
	f := fill{setupAt: time.Now()}
	ctx, e, err := newContext(k)
	if err != nil {
		f.err = err
		return f
	}
	ctx.Obs = reg
	f.setup = time.Since(f.setupAt)

	var ms runtime.MemStats
	if measureAlloc {
		runtime.ReadMemStats(&ms)
	}
	allocBefore := ms.TotalAlloc
	f.runAt = time.Now()
	res, err := core.RunResult(ctx, e)
	f.run = time.Since(f.runAt)
	if measureAlloc {
		runtime.ReadMemStats(&ms)
		f.runAlloc = ms.TotalAlloc - allocBefore
	}
	if err != nil {
		f.err = err
		return f
	}

	f.renderAt = time.Now()
	jsonBytes, err := res.JSONBytes()
	if err != nil {
		f.err = err
		return f
	}
	f.bodies = [4][]byte{jsonBytes, res.CSVBytes(), res.TextBytes(), res.MarkdownBytes()}
	f.render = time.Since(f.renderAt)
	return f
}

// newContext is a fill's set-up: the key's experiment and a fresh
// context for its GPU and mode, built as nocserve's newComputer builds it.
func newContext(k key) (*core.Context, *core.Experiment, error) {
	cfg, err := gpu.ByName(string(k.GPU))
	if err != nil {
		return nil, nil, err
	}
	e, err := core.Lookup(k.Exp)
	if err != nil {
		return nil, nil, err
	}
	ctx, err := core.NewContext(cfg, k.Quick)
	if err != nil {
		return nil, nil, err
	}
	return ctx, e, nil
}

// simCounts are the simulated statistics one run's observation scope
// collected. They are a pure function of the code and the key.
type simCounts struct {
	FlitsEjected int64 `json:"noc.flits_ejected"`
	MCServed     int64 `json:"noc.mc_served"`
	StallCredit  int64 `json:"noc.stall_credit"`
	StallVOQFull int64 `json:"noc.stall_voq_full"`
	Probes       int64 `json:"microbench.probes"`
}

func (c *simCounts) add(o simCounts) {
	c.FlitsEjected += o.FlitsEjected
	c.MCServed += o.MCServed
	c.StallCredit += o.StallCredit
	c.StallVOQFull += o.StallVOQFull
	c.Probes += o.Probes
}

// countsOf sums the registry's counters by instrument name, whatever
// scope (narrow/, wide/, mesh-rr/, req/, ...) the experiment put them in.
func countsOf(reg *obs.Registry) (simCounts, error) {
	var buf bytes.Buffer
	if err := reg.WriteMetrics(&buf); err != nil {
		return simCounts{}, err
	}
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return simCounts{}, fmt.Errorf("parse metrics: %w", err)
	}
	var c simCounts
	for name, v := range doc.Counters {
		switch {
		case hasSuffix(name, "eject/flits"):
			c.FlitsEjected += v
		case hasSuffix(name, "mc/served"):
			c.MCServed += v
		case hasSuffix(name, "stall/credit"):
			c.StallCredit += v
		case hasSuffix(name, "stall/voq_full"):
			c.StallVOQFull += v
		case hasSuffix(name, "probes"):
			c.Probes += v
		}
	}
	return c, nil
}

// hasSuffix matches an instrument name or its scoped form ".../suffix".
func hasSuffix(name, suffix string) bool {
	return name == suffix || strings.HasSuffix(name, "/"+suffix)
}

// expectedEntry is the recorded outcome of one key: the SHA-256 and
// length of each rendering, and the simulated statistics of its run.
type expectedEntry struct {
	SHA256 [4]string `json:"sha256"`
	Bytes  [4]int    `json:"bytes"`
	Counts simCounts `json:"counts"`
}

// expected maps key.String() to its recorded outcome. The known defect
// has no entry: it has never produced bytes.
type expected map[string]*expectedEntry

func loadExpected(path string) (expected, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read expected outputs: %w", err)
	}
	var exp expected
	if err := json.Unmarshal(data, &exp); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return exp, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// entrySize is nocserve's LRU accounting of a key's cached entry
// (resultstore.Entry.Size: the four renderings plus 128 bytes).
func (e *expectedEntry) entrySize() int64 {
	n := int64(128)
	for _, b := range e.Bytes {
		n += int64(b)
	}
	return n
}

// check compares one rendering with its recorded digest and returns a
// description of the mismatch, or "" when the bytes are the recorded ones.
func (exp expected) check(k key, format int, body []byte) string {
	e, ok := exp[k.String()]
	if !ok {
		return fmt.Sprintf("%s: no recorded digest (%d bytes produced)", k, len(body))
	}
	if got := digest(body); got != e.SHA256[format] {
		return fmt.Sprintf("%s %s: sha256 %s, recorded %s", k, formats[format], got[:12], e.SHA256[format][:12])
	}
	return ""
}
