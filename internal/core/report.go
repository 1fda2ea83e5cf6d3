package core

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"gpunoc/internal/gpu"
	"gpunoc/internal/obs"
	"gpunoc/internal/parallel"
)

// ReportOptions configures WriteReportOptions.
type ReportOptions struct {
	// Quick trades statistical depth for speed.
	Quick bool
	// Now stamps the report header.
	Now time.Time
	// Workers bounds the (experiment, generation) fan-out pool and each
	// experiment's internal sweeps; <= 0 selects the GOMAXPROCS-derived
	// default. The report bytes are identical for every value.
	Workers int
	// Stopwatch, when non-nil, returns elapsed wall time since an origin
	// of the caller's choosing and enables the per-experiment timing
	// footer. Callers inject it (cmd/nocchar passes a time.Since
	// closure) so this package never reads the clock itself and reports
	// stay byte-comparable whenever Stopwatch is nil.
	Stopwatch func() time.Duration
	// Obs, when non-nil, collects simulator instruments during the run -
	// each (experiment, generation) job observes into its own
	// "<id>/<gpu>/" scope - and enables the metrics-summary footer. The
	// instruments are atomic and rendered in sorted order, so the footer
	// is byte-identical for every worker count. A nil Obs leaves the
	// report bytes exactly as before.
	Obs *obs.Registry
}

// WriteReportOptions runs every experiment applicable to the given
// generations and writes a self-contained Markdown report: per
// experiment, the paper's claim and the model's artifacts. It is the
// one-command regeneration of the paper's evaluation section. The
// (experiment, generation) pairs run concurrently on the deterministic
// parallel runner; results land in index-addressed slots and are
// rendered in registry order, so the output is byte-identical to a
// sequential run for every pool size.
func WriteReportOptions(w io.Writer, cfgs []gpu.Config, opts ReportOptions) error {
	if len(cfgs) == 0 {
		return fmt.Errorf("core: no generations to report on")
	}
	pw := &printer{w: w}
	pw.printf("# gpunoc characterization report\n\n")
	pw.printf("Generated %s; quick mode: %v.\n\n", opts.Now.Format("2006-01-02 15:04 MST"), opts.Quick)

	ctxs := map[gpu.Generation]*Context{}
	for _, cfg := range cfgs {
		ctx, err := NewContext(cfg, opts.Quick)
		if err != nil {
			return err
		}
		ctx.Workers = opts.Workers
		ctxs[cfg.Name] = ctx
	}

	// Fan the (experiment, generation) pairs out across the pool. An
	// experiment's own error is part of its result (it renders as "not
	// applicable"), so a worker never fails and no pair is skipped.
	type job struct {
		e   *Experiment
		cfg gpu.Config
	}
	var jobs []job
	for _, e := range All() {
		for _, cfg := range cfgs {
			if e.SupportsGPU(cfg.Name) {
				jobs = append(jobs, job{e: e, cfg: cfg})
			}
		}
	}
	type outcome struct {
		arts []Artifact
		err  error
		dur  time.Duration
	}
	results, err := parallel.Map(opts.Workers, len(jobs), func(i int) (outcome, error) {
		j := jobs[i]
		var start time.Duration
		if opts.Stopwatch != nil {
			start = opts.Stopwatch()
		}
		ctx := ctxs[j.cfg.Name]
		if opts.Obs != nil {
			// Shallow-copy the shared context so each concurrent job
			// observes into its own scope.
			c := *ctx
			c.Obs = opts.Obs.Scope(j.e.ID).Scope(string(j.cfg.Name))
			ctx = &c
		}
		res, err := RunResult(ctx, j.e)
		o := outcome{err: err}
		if err == nil {
			o.arts = res.Artifacts
		}
		if opts.Stopwatch != nil {
			o.dur = opts.Stopwatch() - start
		}
		return o, nil
	})
	if err != nil {
		return err
	}

	// Render in registry order; jobs were built in the same order.
	k := 0
	for _, e := range All() {
		pw.printf("## %s — %s\n\n", e.ID, e.Title)
		pw.printf("*Paper:* %s\n\n", e.Paper)
		ran := false
		for _, cfg := range cfgs {
			if !e.SupportsGPU(cfg.Name) {
				continue
			}
			r := results[k]
			k++
			if r.err != nil {
				pw.printf("`%s` on %s: not applicable (%v)\n\n", e.ID, cfg.Name, r.err)
				continue
			}
			ran = true
			for _, a := range r.arts {
				pw.printf("```\n%s```\n\n", ensureTrailingNewline(a.Render()))
			}
		}
		if !ran {
			pw.printf("_No selected generation supports this experiment._\n\n")
		}
	}

	// Close with the observation checklist.
	pw.printf("## Observations #1–#12\n\n")
	checks, err := CheckObservations()
	if err != nil {
		return err
	}
	for _, o := range checks {
		mark := "x"
		if !o.Pass {
			mark = " "
		}
		pw.printf("- [%s] #%d %s — %s\n", mark, o.ID, o.Text, o.Detail)
	}

	// Metrics-summary footer, only when the caller enabled collection:
	// the instrument values are deterministic at fixed seeds, so this
	// section stays byte-comparable across runs and worker counts.
	if opts.Obs != nil {
		pw.printf("\n## Metrics summary\n\n")
		rows := opts.Obs.SummaryRows()
		if len(rows) == 0 {
			pw.printf("_No instruments recorded._\n")
		}
		for _, r := range rows {
			pw.printf("- %s: %s\n", r.Name, r.Value)
		}
	}

	// Wall-time footer, only when the caller injected a clock: timings
	// are inherently nondeterministic, so they must never appear in a
	// byte-compared report.
	if opts.Stopwatch != nil {
		pw.printf("\n## Experiment wall times\n\n")
		k = 0
		for _, e := range All() {
			var total time.Duration
			any := false
			for _, cfg := range cfgs {
				if !e.SupportsGPU(cfg.Name) {
					continue
				}
				total += results[k].dur
				k++
				any = true
			}
			if any {
				pw.printf("- %s: %s\n", e.ID, total.Round(time.Millisecond))
			}
		}
		pw.printf("- total elapsed: %s\n", opts.Stopwatch().Round(time.Millisecond))
	}
	return pw.err
}

// printer wraps an io.Writer and remembers the first write error, so
// report generation can print unconditionally and report failure once.
type printer struct {
	w   io.Writer
	err error
}

// printf formats into the underlying writer unless a write already
// failed; later calls become no-ops so the first error is preserved.
func (p *printer) printf(format string, args ...interface{}) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func ensureTrailingNewline(s string) string {
	if len(s) == 0 || s[len(s)-1] != '\n' {
		return s + "\n"
	}
	return s
}

// ArtifactJSON is the portable encoding of one artifact.
type ArtifactJSON struct {
	Title string `json:"title"`
	Kind  string `json:"kind"`
	// CSV carries the tabular payload; Body carries free text.
	CSV  string `json:"csv,omitempty"`
	Body string `json:"body,omitempty"`
}

// MarshalArtifacts encodes artifacts as JSON for programmatic consumers.
func MarshalArtifacts(arts []Artifact) ([]byte, error) {
	out := make([]ArtifactJSON, 0, len(arts))
	for _, a := range arts {
		j := ArtifactJSON{Title: a.Title()}
		switch v := a.(type) {
		case *Series:
			j.Kind = "series"
			j.CSV = v.CSV()
		case *MultiSeries:
			j.Kind = "multiseries"
			j.CSV = v.CSV()
		case *Table:
			j.Kind = "table"
			j.CSV = v.CSV()
		case *Heatmap:
			j.Kind = "heatmap"
			j.CSV = v.CSV()
		case *Text:
			j.Kind = "text"
			j.Body = v.Body
		default:
			j.Kind = "unknown"
			j.CSV = a.CSV()
		}
		out = append(out, j)
	}
	return json.MarshalIndent(out, "", "  ")
}
