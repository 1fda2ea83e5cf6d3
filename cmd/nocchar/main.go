// Command nocchar runs the GPU NoC characterization experiments: every
// table and figure of the reproduced paper, on any modelled GPU
// generation.
//
// Usage:
//
//	nocchar -list
//	nocchar -gpu v100 -exp fig1
//	nocchar -gpu a100 -exp fig12 -csv
//	nocchar -gpu h100 -all
//	nocchar -gpu h100 -all -parallel 8
//	nocchar -gpu v100 -all -quick -metrics metrics.json -trace trace.json
//	nocchar -observations
//
// -parallel N sizes the deterministic worker pool (default GOMAXPROCS):
// experiments of an -all run and the row sweeps inside each experiment
// fan out across it, with results landing in index-addressed slots, so
// the output is byte-identical for every N.
//
// -metrics FILE dumps every simulator instrument (counters, gauges,
// histograms) as sorted-key JSON; -trace FILE dumps the cycle-stamped
// event trace as Chrome trace-event JSON (load it in chrome://tracing or
// Perfetto). Both files are byte-identical across runs at a fixed seed
// and across -parallel values, and neither flag changes stdout.
//
// -report FILE writes every experiment the GPU (or, with -all, every
// GPU) supports as one Markdown report, so it refuses -exp, -csv and
// -json instead of silently ignoring them. -list, -observations and
// -implications are modes of their own and likewise refuse each other
// and every other mode flag.
//
// When an experiment's run fails, -exp and -all print its error to
// stderr, print every other experiment and write the -metrics/-trace
// files, then exit 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"gpunoc/internal/core"
	"gpunoc/internal/gpu"
	"gpunoc/internal/obs"
	"gpunoc/internal/parallel"
)

func main() {
	var (
		gpuName      = flag.String("gpu", "v100", "GPU generation: v100, a100, h100")
		expID        = flag.String("exp", "", "experiment id (fig1..fig23, table1)")
		runAll       = flag.Bool("all", false, "run every experiment supported by the GPU")
		list         = flag.Bool("list", false, "list experiments and exit")
		csv          = flag.Bool("csv", false, "emit CSV instead of text renderings")
		quick        = flag.Bool("quick", false, "reduce sample counts for a fast pass")
		observations = flag.Bool("observations", false, "check the paper's 12 observations")
		implications = flag.Bool("implications", false, "check the paper's 6 implications")
		report       = flag.String("report", "", "write a full Markdown report of every experiment to this file")
		jsonOut      = flag.Bool("json", false, "emit artifacts as JSON")
		workers      = flag.Int("parallel", 0, "worker-pool size for experiment fan-out and sweep sharding; 0 means GOMAXPROCS (output is byte-identical for every value)")
		metricsOut   = flag.String("metrics", "", "write collected instruments (counters, gauges, histograms) as deterministic JSON to this file")
		traceOut     = flag.String("trace", "", "write the cycle-stamped event trace as Chrome trace-event JSON to this file")
	)
	flag.Parse()

	if err := validateFlags(modeFlags{
		list: *list, observations: *observations, implications: *implications,
		report: *report, exp: *expID, all: *runAll, csv: *csv, json: *jsonOut,
	}); err != nil {
		fatal(err)
	}

	if *workers > 0 {
		// One knob drives both levels of parallelism: the explicit pool
		// arguments below and parallel.DefaultWorkers(), which reads
		// GOMAXPROCS for every sweep that is not handed a pool size.
		runtime.GOMAXPROCS(*workers)
	}

	if *list {
		for _, e := range core.All() {
			gpus := "all GPUs"
			if len(e.GPUs) > 0 {
				gpus = fmt.Sprint(e.GPUs)
			}
			fmt.Printf("%-8s %-10s %s\n         paper: %s\n", e.ID, gpus, e.Title, e.Paper)
		}
		return
	}

	if *observations || *implications {
		kind, checks, err := runChecks(*observations)
		if err != nil {
			fatal(err)
		}
		if failed := printChecks(os.Stdout, kind, checks); failed > 0 {
			fatal(fmt.Errorf("%d %s(s) failed", failed, strings.ToLower(kind)))
		}
		return
	}

	cfg, err := gpu.ByName(*gpuName)
	if err != nil {
		fatal(err)
	}

	// Collection is opt-in: without -metrics/-trace the registry stays
	// nil, every hook is a nil-safe no-op, and stdout is byte-identical
	// to an unobserved run.
	var reg *obs.Registry
	if *metricsOut != "" || *traceOut != "" {
		reg = obs.New()
	}

	if *report != "" {
		cfgs := []gpu.Config{cfg}
		if *runAll {
			cfgs = gpu.AllConfigs()
		}
		if err := writeReportFile(*report, cfgs, *quick, *workers, reg); err != nil {
			fatal(err)
		}
		fmt.Println("report written to", *report)
		if err := writeObsFiles(reg, *metricsOut, *traceOut); err != nil {
			fatal(err)
		}
		return
	}

	ctx, err := core.NewContext(cfg, *quick)
	if err != nil {
		fatal(err)
	}
	ctx.Workers = *workers

	var exps []*core.Experiment
	switch {
	case *runAll:
		for _, e := range core.All() {
			if e.SupportsGPU(cfg.Name) {
				exps = append(exps, e)
			}
		}
	case *expID != "":
		e, err := core.Lookup(*expID)
		if err != nil {
			fatal(err)
		}
		if !e.SupportsGPU(cfg.Name) {
			fatal(fmt.Errorf("experiment %s does not apply to %s (supported: %v)", e.ID, cfg.Name, e.GPUs))
		}
		exps = append(exps, e)
	default:
		fatal(fmt.Errorf("pass -exp <id>, -all, -report <file>, -list, -observations or -implications"))
	}

	// Fan the experiments out across the pool; results land in
	// index-addressed slots and are printed below in registry order, so
	// stdout is byte-identical to a sequential run. Wall times go to
	// stderr to keep it that way. The same core.RunResult path backs the
	// nocserve cache, whose responses are therefore byte-identical to
	// this stdout (the renderers are shared, not reimplemented).
	t0 := time.Now()
	results, err := parallel.Map(*workers, len(exps), func(i int) (outcome, error) {
		start := time.Since(t0)
		c := ctx
		if reg != nil {
			// Shallow-copy the shared context so each concurrent
			// experiment observes into its own scope.
			cc := *ctx
			cc.Obs = reg.Scope(exps[i].ID)
			c = &cc
		}
		res, err := core.RunResult(c, exps[i])
		return outcome{res: res, err: err, dur: time.Since(t0) - start}, nil
	})
	if err != nil {
		fatal(err)
	}
	failed := printOutcomes(os.Stdout, os.Stderr, cfg.Name, exps, results, *jsonOut, *csv)
	if err := writeObsFiles(reg, *metricsOut, *traceOut); err != nil {
		fatal(err)
	}
	if failed > 0 {
		fatal(fmt.Errorf("%d experiment(s) failed", failed))
	}
}

// outcome is one experiment's run: its result or error, and wall time.
type outcome struct {
	res *core.Result
	err error
	dur time.Duration
}

// printOutcomes writes each experiment's header and rendering to stdout
// in the order of exps, and its wall time and any run error to stderr.
// A failed run prints its header and error and the rest still print;
// the return value is how many failed.
func printOutcomes(stdout, stderr io.Writer, gen gpu.Generation, exps []*core.Experiment, outs []outcome, jsonOut, csv bool) int {
	failed := 0
	for i, e := range exps {
		mustWrite(fmt.Fprintf(stdout, "=== %s: %s [%s]\n", e.ID, e.Title, gen))
		mustWrite(fmt.Fprintf(stdout, "    paper: %s\n\n", e.Paper))
		res, runErr := outs[i].res, outs[i].err
		_, _ = fmt.Fprintf(stderr, "nocchar: %s wall time %s\n", e.ID, outs[i].dur.Round(time.Millisecond))
		if runErr != nil {
			_, _ = fmt.Fprintf(stderr, "    error: %v\n\n", runErr)
			failed++
			continue
		}
		switch {
		case jsonOut:
			data, err := res.JSONBytes()
			if err != nil {
				fatal(err)
			}
			mustWrite(stdout.Write(data))
		case csv:
			mustWrite(stdout.Write(res.CSVBytes()))
		default:
			mustWrite(stdout.Write(res.TextBytes()))
		}
	}
	return failed
}

// runChecks evaluates the paper's observations, or with observations
// false its implications, as one kind of check.
func runChecks(observations bool) (string, []core.CheckResult, error) {
	if observations {
		checks, err := core.CheckObservations()
		return "Observation", checks, err
	}
	checks, err := core.CheckImplications()
	return "Implication", checks, err
}

// printChecks writes a [PASS]/[FAIL] line and an indented detail line
// per check and returns how many failed.
func printChecks(w io.Writer, kind string, checks []core.CheckResult) int {
	failed := 0
	for _, c := range checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
			failed++
		}
		mustWrite(fmt.Fprintf(w, "[%s] %s #%d: %s\n       %s\n", status, kind, c.ID, c.Text, c.Detail))
	}
	return failed
}

// writeReportFile writes the full Markdown report to path, surfacing
// Close errors (a buffered flush can fail even when every write
// succeeded).
func writeReportFile(path string, cfgs []gpu.Config, quick bool, workers int, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// The stopwatch is injected here: internal/core never reads the
	// clock itself, keeping its output byte-comparable when no clock is
	// supplied (noclint's determinism analyzer enforces this split).
	t0 := time.Now()
	opts := core.ReportOptions{
		Quick:     quick,
		Now:       t0,
		Workers:   workers,
		Stopwatch: func() time.Duration { return time.Since(t0) },
		Obs:       reg,
	}
	if err := core.WriteReportOptions(f, cfgs, opts); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// writeObsFiles dumps the collected instruments and trace to the paths
// the user asked for; a nil registry or empty path is a no-op, and
// nothing is printed to stdout so observed and unobserved runs stay
// byte-comparable there.
func writeObsFiles(reg *obs.Registry, metricsPath, tracePath string) error {
	if reg == nil {
		return nil
	}
	write := func(path string, emit func(f *os.File) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "nocchar: wrote", path)
		return nil
	}
	if err := write(metricsPath, func(f *os.File) error { return reg.WriteMetrics(f) }); err != nil {
		return err
	}
	return write(tracePath, func(f *os.File) error { return reg.WriteTrace(f) })
}

// mustWrite surfaces stdout write failures (a closed pipe, a full disk
// behind a redirect) as a fatal exit instead of silently truncating.
func mustWrite(_ int, err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nocchar:", err)
	os.Exit(1)
}
