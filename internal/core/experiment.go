package core

import (
	"context"
	"fmt"
	"sort"

	"gpunoc/internal/bandwidth"
	"gpunoc/internal/gpu"
	"gpunoc/internal/obs"
)

// Context carries the resources an experiment needs.
type Context struct {
	// Device is the GPU under test.
	Device *gpu.Device
	// Engine solves bandwidth for the device.
	Engine *bandwidth.Engine
	// Quick trades statistical depth for speed (used by `go test -bench`
	// wrappers); experiments reduce sample counts under it.
	Quick bool
	// Workers bounds the worker pool of the experiment's internal sweeps
	// (parallel.Map shards); <= 0 selects the GOMAXPROCS-derived
	// default. Results are index-addressed, so any value yields
	// byte-identical artifacts.
	Workers int
	// Cancel, when non-nil, lets the caller abort the run early: a
	// timed-out HTTP request, a draining server, an interrupted sweep.
	// Experiments consult it only between sweep rows — via Interrupted
	// and the parallel runner's claim-boundary checks — never inside
	// simulator Step loops, so the hot paths stay context-free and a
	// never-cancelled run produces byte-identical artifacts to a nil
	// Cancel. A partially complete run returns the wrapped context
	// error and no artifacts.
	Cancel context.Context
	// Obs receives the experiment's instruments. Callers that enable
	// collection (nocchar -metrics/-trace, ReportOptions.Obs) hand each
	// experiment run its own scope; the nil default runs unobserved at
	// zero cost and leaves all stdout byte-identical.
	Obs *obs.Registry
}

// Interrupted reports whether the run's Cancel context has fired,
// wrapping its error for the experiment to return as-is. It is the
// sweep-row cancellation checkpoint: experiments call it between rows
// and between major phases, and a nil Cancel answers at zero cost, so
// sprinkling checkpoints is free for every non-serving caller.
func (c *Context) Interrupted() error {
	if c.Cancel == nil {
		return nil
	}
	if err := c.Cancel.Err(); err != nil {
		return fmt.Errorf("core: run canceled: %w", err)
	}
	return nil
}

// NewContext builds a context for a generation config.
func NewContext(cfg gpu.Config, quick bool) (*Context, error) {
	dev, err := gpu.New(cfg)
	if err != nil {
		return nil, err
	}
	eng, err := bandwidth.NewEngine(dev)
	if err != nil {
		return nil, err
	}
	return &Context{Device: dev, Engine: eng, Quick: quick}, nil
}

// iters returns full when not in quick mode, otherwise quick.
func (c *Context) iters(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// Experiment reproduces one table or figure of the paper.
type Experiment struct {
	// ID is the registry key, e.g. "fig1", "table1".
	ID string
	// Title is the figure caption.
	Title string
	// Paper summarizes what the paper reports, for EXPERIMENTS.md-style
	// comparisons.
	Paper string
	// GPUs lists applicable generations; empty means every generation.
	GPUs []gpu.Generation
	// Run executes the experiment.
	Run func(ctx *Context) ([]Artifact, error)
}

// SupportsGPU reports whether the experiment applies to a generation.
func (e *Experiment) SupportsGPU(g gpu.Generation) bool {
	if len(e.GPUs) == 0 {
		return true
	}
	for _, x := range e.GPUs {
		if x == g {
			return true
		}
	}
	return false
}

// registry holds all experiments by ID.
var registry = map[string]*Experiment{}

// register adds an experiment; duplicate IDs are programming errors.
func register(e *Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("core: duplicate experiment %q", e.ID))
	}
	registry[e.ID] = e
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (*Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("core: unknown experiment %q (use All to list)", id)
	}
	return e, nil
}

// All returns every experiment ordered by ID with tables first, then
// figures in numeric order.
func All() []*Experiment {
	out := make([]*Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return orderKey(out[i].ID) < orderKey(out[j].ID) })
	return out
}

// orderKey sorts "table1" before "fig1" and figures numerically.
func orderKey(id string) string {
	var kind string
	var n int
	if _, err := fmt.Sscanf(id, "table%d", &n); err == nil {
		kind = "a"
	} else if _, err := fmt.Sscanf(id, "fig%d", &n); err == nil {
		kind = "b"
	} else {
		return "z" + id
	}
	return fmt.Sprintf("%s%04d", kind, n)
}
