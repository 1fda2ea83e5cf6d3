package core

import (
	"fmt"
	"slices"

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
	// Obs receives the experiment's instruments. Run hands each
	// (experiment, generation) pair of an observed run its own scope;
	// the nil default runs unobserved at zero cost and leaves all stdout
	// byte-identical.
	Obs *obs.Registry
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

// registry holds all experiments by ID. ordered holds them in All's
// order and orderKeys their sort keys: init-time registration keeps both
// sorted, so listing parses no IDs.
var (
	registry  = map[string]*Experiment{}
	ordered   []*Experiment
	orderKeys []string
)

// register adds an experiment; duplicate IDs are programming errors.
func register(e *Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("core: duplicate experiment %q", e.ID))
	}
	registry[e.ID] = e
	key := orderKey(e.ID)
	i, _ := slices.BinarySearch(orderKeys, key)
	orderKeys = slices.Insert(orderKeys, i, key)
	ordered = slices.Insert(ordered, i, e)
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
// figures in numeric order. The slice is the caller's own.
func All() []*Experiment { return slices.Clone(ordered) }

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
