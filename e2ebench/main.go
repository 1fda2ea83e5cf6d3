// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload with a seed, measures it for a fixed time, checks every
// output byte against the SHA-256 digests recorded in expected.json, and
// prints one JSON result line:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run also records spans around each call into the system and reports
// the per-layer metrics instead. See README.md for the workloads, the
// metrics and the layer map. run.sh builds the binaries and runs it:
//
//	bash e2ebench/run.sh --workload matrix_quick --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// expected is the digest and simulated-statistics table.
	expected string
	// nocserve is the server binary serve_churn spawns.
	nocserve string
	// workdir holds the traces and the servers' spill directories.
	workdir string
	// sabotageBody alters one byte of one produced body: the gate's
	// self-test, which must fail.
	sabotageBody bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64) {
	m[name] = metric{Value: v, Unit: unitOf[name]}
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// tally counts operations. A fill or a request is one operation; it
// fails on an error, a non-200 reply or a byte mismatch. Every failure
// except the known defect's standing refusal is also a problem, and
// any problem makes the run incorrect.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	problems  []string
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

// standing counts the known defect's refusal: failed, but expected.
func (t *tally) standing() {
	t.mu.Lock()
	t.attempted++
	t.failed++
	t.mu.Unlock()
}

// fail counts a failed operation that is not the known defect.
func (t *tally) fail(msg string) {
	t.mu.Lock()
	t.attempted++
	t.failed++
	t.problems = append(t.problems, msg)
	t.mu.Unlock()
}

// incorrect records a check that failed outside any one operation.
func (t *tally) incorrect(msg string) {
	t.mu.Lock()
	t.problems = append(t.problems, msg)
	t.mu.Unlock()
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	// logf writes a diagnostic; a failed write to stderr changes nothing.
	logf := func(format string, args ...interface{}) {
		_, _ = fmt.Fprintf(stderr, "e2ebench: "+format+"\n", args...)
	}
	var o options
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: matrix_quick, noc_full or serve_churn")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 20, "seconds to measure")
	traceFlag := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	fs.StringVar(&o.expected, "expected", "e2ebench/expected.json", "recorded digests and simulated statistics")
	fs.StringVar(&o.nocserve, "nocserve", ".bench_build/bin/nocserve", "nocserve binary for serve_churn")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for traces and spill files")
	fs.BoolVar(&o.sabotageBody, "sabotage-body", false, "self-test: alter one byte of one produced body")
	record := fs.String("record", "", "record expected outputs to this file, cross-checked against -nocchar, and exit")
	nocchar := fs.String("nocchar", "", "nocchar binary for -record's cross-check")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *traceFlag == 1
	if *record != "" {
		if err := recordExpected(*record, *nocchar, stderr); err != nil {
			logf("%v", err)
			return 1
		}
		return 0
	}
	if o.seconds < 1 {
		logf("--seconds must be at least 1")
		return 2
	}

	var t tally
	var m metrics
	var err error
	switch o.workload {
	case "matrix_quick":
		m, err = runLibrary(o, quickKeys, &t)
	case "noc_full":
		m, err = runLibrary(o, nocFullKeys, &t)
	case "serve_churn":
		m, err = runServe(o, &t)
	default:
		err = fmt.Errorf("unknown --workload %q (want matrix_quick, noc_full or serve_churn)", o.workload)
	}
	if err != nil {
		logf("%v", err)
		return 1
	}
	names := endToEnd
	if o.trace {
		names = perLayer()
	}
	res := result{Correct: len(t.problems) == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics{}}
	for _, name := range names {
		v, ok := m[name]
		if !ok {
			// A layer the workload does not exercise did no work.
			v = metric{Value: 0, Unit: unitOf[name]}
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			logf("metric %s is %v", name, v.Value)
			return 1
		}
		res.Metrics[name] = v
	}
	if res.Attempted == 0 {
		logf("no operation was attempted")
		return 1
	}
	for i, p := range t.problems {
		if i == 20 {
			logf("... %d more problems", len(t.problems)-i)
			break
		}
		logf("FAIL %s", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		return 1
	}
	if _, err := fmt.Fprintf(stdout, "%s\n", line); err != nil {
		logf("write result: %v", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// endToEnd are the metrics a --trace 0 run reports, on every workload.
var endToEnd = []string{"setup_s", "pass_s", "alloc_mb", "req_p50_ms", "goodput_rps", "paper_checks_passed"}

// perLayer lists the metrics a --trace 1 run reports, on every workload.
// req_p99_ms is end-to-end but too host-sensitive to carry a bound, so it
// is reported here, unbounded.
func perLayer() []string {
	names := []string{
		"req_p99_ms",
		"core.setup_ms", "core.run_s", "core.render_ms", "core.coverage",
	}
	for _, f := range families {
		names = append(names, "engine."+f+"_s", "engine."+f+"_alloc_mb")
	}
	for _, id := range experimentIDs() {
		names = append(names, "exp."+id+"_ms")
	}
	return append(names,
		"noc.flits_ejected", "noc.mc_served", "noc.stall_credit", "noc.stall_voq_full", "microbench.probes", "noc.ns_per_flit",
		"serve.hit_local_ms", "serve.hit_forwarded_ms", "serve.spill_ms",
		"nocserve.queue_wait_ms", "nocserve.shed",
		"resultstore.hit_ratio", "resultstore.spill_load", "resultstore.eviction", "resultstore.miss", "resultstore.coalesced",
		"cluster.forwarded", "cluster.forward_share", "cluster.fallback_local", "cluster.forward_err",
		"setup.spawn_s", "setup.warm_s",
		"loadgen.late_p99_ms", "loadgen.sent", "loadgen.ok", "loadgen.failed",
		"trace.overhead_pct",
	)
}

// unitOf gives every metric's unit; names not listed are counts.
var unitOf = func() map[string]string {
	u := map[string]string{
		"setup_s": "s", "pass_s": "s", "alloc_mb": "MB", "req_p50_ms": "ms", "req_p99_ms": "ms",
		"goodput_rps": "1/s", "paper_checks_passed": "count",
		"core.setup_ms": "ms", "core.run_s": "s", "core.render_ms": "ms", "core.coverage": "ratio",
		"noc.ns_per_flit":    "ns",
		"serve.hit_local_ms": "ms", "serve.hit_forwarded_ms": "ms", "serve.spill_ms": "ms",
		"nocserve.queue_wait_ms": "ms", "resultstore.hit_ratio": "ratio", "cluster.forward_share": "ratio",
		"setup.spawn_s": "s", "setup.warm_s": "s", "loadgen.late_p99_ms": "ms", "trace.overhead_pct": "%",
	}
	for _, f := range families {
		u["engine."+f+"_s"] = "s"
		u["engine."+f+"_alloc_mb"] = "MB"
	}
	for _, id := range experimentIDs() {
		u["exp."+id+"_ms"] = "ms"
	}
	for _, name := range perLayer() {
		if _, ok := u[name]; !ok {
			u[name] = "count"
		}
	}
	return u
}()

// seconds converts a duration to float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }

// millis converts a duration to float milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (the mean of the middle two for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timeMedian returns the median of xs weighted by the values
// themselves: the x below which half of the sum lies. Each value spans
// its share of the sum, and the result is interpolated between the
// centres of the two values around the middle, so it moves smoothly
// when they move; 0 for none.
func timeMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var total float64
	for _, x := range s {
		total += x
	}
	var acc, prevMid, prev float64
	for i, x := range s {
		mid := (acc + x/2) / total
		if mid >= 0.5 {
			if i == 0 {
				return x
			}
			return prev + (x-prev)*(0.5-prevMid)/(mid-prevMid)
		}
		acc += x
		prevMid, prev = mid, x
	}
	return s[len(s)-1]
}

// rank returns the nearest-rank p-th percentile (0 < p <= 100) of xs;
// 0 for none.
func rank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := int(math.Ceil(p / 100 * float64(len(s))))
	if r < 1 {
		r = 1
	}
	return s[r-1]
}

// percentile is rank over durations, in milliseconds.
func percentile(ds []time.Duration, p float64) float64 {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = millis(d)
	}
	return rank(ms, p)
}
