package core

import (
	"fmt"
	"strings"
	"time"

	"gpunoc/internal/gpu"
	"gpunoc/internal/obs"
	"gpunoc/internal/parallel"
)

// Result is the structured outcome of one experiment run on one GPU
// generation: the artifacts themselves plus renderers that produce the
// exact bytes cmd/nocchar prints for each output mode. Every consumer —
// the CLI, the nocserve result cache, the report writer — renders from
// the same Result, so a cached response is byte-identical to a freshly
// printed one by construction rather than by convention.
type Result struct {
	// GPU is the generation the experiment ran on.
	GPU gpu.Generation
	// Exp identifies the experiment (registry entry; immutable).
	Exp *Experiment
	// Artifacts are the experiment's outputs in emission order.
	Artifacts []Artifact
}

// RunResult executes e under ctx and wraps the artifacts in a Result.
// It refuses generations the experiment does not support, so callers
// holding untrusted (gpu, exp) tuples — the HTTP serving layer — get a
// typed refusal instead of an experiment-specific panic or nonsense run.
func RunResult(ctx *Context, e *Experiment) (*Result, error) {
	name := ctx.Device.Config().Name
	if !e.SupportsGPU(name) {
		return nil, fmt.Errorf("core: experiment %s does not apply to %s (supported: %v)", e.ID, name, e.GPUs)
	}
	arts, err := e.Run(ctx)
	if err != nil {
		return nil, err
	}
	return &Result{GPU: name, Exp: e, Artifacts: arts}, nil
}

// Outcome is one (experiment, generation) pair of a Run: its result or
// error, and its wall time.
type Outcome struct {
	Exp    *Experiment
	GPU    gpu.Generation
	Result *Result
	Err    error
	// Dur is the pair's RunResult wall time; zero without a clock.
	Dur time.Duration
}

// Run is the one (experiment, generation) fan-out behind nocchar -exp,
// -all and -report. It builds one Context per generation, runs RunResult
// for every pair whose generation the experiment supports on the
// deterministic parallel pool, and returns the outcomes in exps order,
// then cfgs order. A pair's own failure is its Outcome.Err; the returned
// error reports only a Context that could not be built.
//
// A non-nil reg gives each pair its own "<id>/<GPU>/" scope. A non-nil
// clock returns elapsed wall time since an origin of the caller's
// choosing and times each pair; this package never reads the clock
// itself.
func Run(cfgs []gpu.Config, exps []*Experiment, quick bool, reg *obs.Registry, clock func() time.Duration) ([]Outcome, error) {
	ctxs := map[gpu.Generation]*Context{}
	for _, cfg := range cfgs {
		ctx, err := NewContext(cfg, quick)
		if err != nil {
			return nil, err
		}
		ctxs[cfg.Name] = ctx
	}
	var pairs []Outcome
	for _, e := range exps {
		for _, cfg := range cfgs {
			if e.SupportsGPU(cfg.Name) {
				pairs = append(pairs, Outcome{Exp: e, GPU: cfg.Name})
			}
		}
	}
	return parallel.Map(len(pairs), func(i int) (Outcome, error) {
		o := pairs[i]
		// Shallow-copy the generation's shared context so each
		// concurrent pair observes into its own scope.
		ctx := *ctxs[o.GPU]
		ctx.Obs = reg.Scope(o.Exp.ID).Scope(string(o.GPU))
		var start time.Duration
		if clock != nil {
			start = clock()
		}
		o.Result, o.Err = RunResult(&ctx, o.Exp)
		if clock != nil {
			o.Dur = clock() - start
		}
		return o, nil
	})
}

// JSONBytes renders the artifacts as the MarshalArtifacts document plus
// a trailing newline: exactly the bytes `nocchar -json` writes to stdout
// for one experiment.
func (r *Result) JSONBytes() ([]byte, error) {
	data, err := MarshalArtifacts(r.Artifacts)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// CSVBytes renders every artifact as "# <title>\n<csv>\n": exactly the
// bytes `nocchar -csv` writes to stdout for one experiment.
func (r *Result) CSVBytes() []byte {
	var b strings.Builder
	for _, a := range r.Artifacts {
		fmt.Fprintf(&b, "# %s\n%s\n", a.Title(), a.CSV())
	}
	return []byte(b.String())
}

// TextBytes renders every artifact as its text rendering plus a newline:
// exactly the bytes nocchar's default mode writes to stdout for one
// experiment.
func (r *Result) TextBytes() []byte {
	var b strings.Builder
	for _, a := range r.Artifacts {
		b.WriteString(a.Render())
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// MarkdownBytes renders the run as a self-contained Markdown report
// fragment in the shape WriteReportOptions gives one experiment section,
// scoped to this result's single generation.
func (r *Result) MarkdownBytes() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s [%s]\n\n", r.Exp.ID, r.Exp.Title, r.GPU)
	fmt.Fprintf(&b, "*Paper:* %s\n\n", r.Exp.Paper)
	for _, a := range r.Artifacts {
		fmt.Fprintf(&b, "```\n%s```\n\n", ensureTrailingNewline(a.Render()))
	}
	return []byte(b.String())
}
