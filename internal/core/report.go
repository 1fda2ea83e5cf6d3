package core

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"gpunoc/internal/gpu"
	"gpunoc/internal/obs"
)

// ReportOptions configures WriteReportOptions.
type ReportOptions struct {
	// Quick trades statistical depth for speed.
	Quick bool
	// Now stamps the report header.
	Now time.Time
	// Stopwatch, when non-nil, is Run's clock and enables the
	// per-experiment timing footer. Callers inject it (cmd/nocchar passes
	// a time.Since closure) so this package never reads the clock itself
	// and reports stay byte-comparable whenever Stopwatch is nil.
	Stopwatch func() time.Duration
	// Obs, when non-nil, is Run's registry - each (experiment,
	// generation) pair observes into its own "<id>/<gpu>/" scope - and
	// enables the metrics-summary footer. The instruments are atomic and
	// rendered in sorted order, so the footer is byte-identical for every
	// pool size. A nil Obs leaves the report bytes exactly as before.
	Obs *obs.Registry
}

// WriteReportOptions runs every experiment applicable to the given
// generations through Run and writes a self-contained Markdown report:
// per experiment, the paper's claim and the model's artifacts. It is the
// one-command regeneration of the paper's evaluation section. Run's
// outcomes come back in registry order, so the output is byte-identical
// to a sequential run for every pool size.
func WriteReportOptions(w io.Writer, cfgs []gpu.Config, opts ReportOptions) error {
	if len(cfgs) == 0 {
		return fmt.Errorf("core: no generations to report on")
	}
	pw := &printer{w: w}
	pw.printf("# gpunoc characterization report\n\n")
	pw.printf("Generated %s; quick mode: %v.\n\n", opts.Now.Format("2006-01-02 15:04 MST"), opts.Quick)

	// An experiment's own error is part of its outcome (it renders as
	// "not applicable"), so no pair is skipped.
	outs, err := Run(cfgs, All(), opts.Quick, opts.Obs, opts.Stopwatch)
	if err != nil {
		return err
	}
	// byExp groups the outcomes per experiment, each group in cfgs order.
	byExp := map[*Experiment][]Outcome{}
	for _, o := range outs {
		byExp[o.Exp] = append(byExp[o.Exp], o)
	}
	for _, e := range All() {
		pw.printf("## %s — %s\n\n", e.ID, e.Title)
		pw.printf("*Paper:* %s\n\n", e.Paper)
		ran := false
		for _, o := range byExp[e] {
			if o.Err != nil {
				pw.printf("`%s` on %s: not applicable (%v)\n\n", e.ID, o.GPU, o.Err)
				continue
			}
			ran = true
			for _, a := range o.Result.Artifacts {
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
		for _, e := range All() {
			if len(byExp[e]) == 0 {
				continue
			}
			var total time.Duration
			for _, o := range byExp[e] {
				total += o.Dur
			}
			pw.printf("- %s: %s\n", e.ID, total.Round(time.Millisecond))
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
