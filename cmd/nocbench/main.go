// Command nocbench ratchets a recorded run of the root benchmarks
// against the committed baseline.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -count 3 -benchtime 100ms . >bench.txt
//	nocbench bench.txt                   check against bench.baseline.json
//	nocbench -write-baseline bench.txt   re-record the baseline's measurements
//
// The baseline (-baseline, default bench.baseline.json) is the gated
// list: each entry names one benchmark as `go test` prints it, without
// the -GOMAXPROCS suffix, and carries its noise budget. Benchmarks the
// baseline does not name are not gated. go test -count supplies the
// repeats; per benchmark, ns/op is the median of the repeats that
// survive Tukey-IQR outlier rejection, and B/op, allocs/op and any
// b.ReportMetric columns are plain medians.
//
// A check fails when a gated benchmark is missing from the output, when
// its ns/op exceeds the baseline's by more than max_ns_ratio, or when
// its allocs/op exceeds the baseline's by more than max_allocs_delta (0
// pins a zero-alloc hot path at exactly zero). -write-baseline replaces
// every entry's measurements and keeps its budget; to gate another
// benchmark, add an entry with its name and budget by hand, then
// re-record.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// schema is the baseline document version. Bump it only for
// incompatible shape changes; loadBaseline hard-fails on a mismatch
// rather than misreading fields.
const schema = 1

// measurement is one benchmark's repeats condensed to one row.
type measurement struct {
	Name string `json:"name"`
	// N is the iteration count of the last repeat, a sanity signal that
	// the benchmark ran long enough to mean something.
	N           int                `json:"n"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// budget is one gated benchmark's tolerated noise envelope.
type budget struct {
	// MaxNsRatio is the largest tolerated measured/baseline ns/op
	// ratio. It must stay below the 3x factor the CI smoke seeds, or
	// the gate cannot prove it bites.
	MaxNsRatio float64 `json:"max_ns_ratio"`
	// MaxAllocsDelta is how many allocations per op a run may add over
	// the baseline.
	MaxAllocsDelta int64 `json:"max_allocs_delta"`
}

// entry is one gated benchmark: its accepted measurement and budget.
type entry struct {
	measurement
	Budget budget `json:"budget"`
}

// baseline is the committed document (bench.baseline.json).
type baseline struct {
	Schema     int     `json:"schema"`
	Benchmarks []entry `json:"benchmarks"`
}

func main() {
	basePath := flag.String("baseline", "bench.baseline.json", "baseline file: the gated benchmarks with their budgets and accepted measurements")
	write := flag.Bool("write-baseline", false, "rewrite the baseline's measurements from the output, keeping its entries and budgets")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: nocbench [-baseline file] [-write-baseline] <go test -bench output>")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	got, err := parseBenchOutput(f)
	_ = f.Close() // read-only
	if err != nil {
		fatal(fmt.Errorf("%s: %w", flag.Arg(0), err))
	}
	base, err := loadBaseline(*basePath)
	if err != nil {
		fatal(err)
	}

	if *write {
		next, err := newBaseline(base, got)
		if err != nil {
			fatal(err)
		}
		if err := next.write(*basePath); err != nil {
			fatal(err)
		}
		fmt.Printf("nocbench: wrote %d benchmarks to %s\n", len(next.Benchmarks), *basePath)
		return
	}

	for _, e := range base.Benchmarks {
		if m, ok := got[e.Name]; ok {
			fmt.Printf("%-34s %14.1f -> %14.1f ns/op %5.2fx (max %.2fx)  %6d -> %6d allocs/op (max +%d)\n",
				e.Name, e.NsPerOp, m.NsPerOp, m.NsPerOp/e.NsPerOp, e.Budget.MaxNsRatio,
				e.AllocsPerOp, m.AllocsPerOp, e.Budget.MaxAllocsDelta)
		}
	}
	if problems := check(base, got); len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "nocbench: FAIL %s\n", p)
		}
		os.Exit(1)
	}
	fmt.Printf("nocbench: %d benchmarks within budget of %s\n", len(base.Benchmarks), *basePath)
}

// parseBenchOutput reads `go test -bench -benchmem` output and condenses
// each benchmark's repeats into one measurement, keyed by its name
// without the -GOMAXPROCS suffix. Only result lines, those with an
// ns/op column, count: headers, log lines, name-only lines and PASS or
// FAIL lines are skipped. A result line is the name, the iteration
// count, then value/unit pairs, b.ReportMetric's among them.
func parseBenchOutput(r io.Reader) (map[string]measurement, error) {
	type samples struct {
		n                 int
		ns, bytes, allocs []float64
		metrics           map[string][]float64
	}
	byName := map[string]*samples{}
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		f := strings.Fields(sc.Text())
		if !containsUnit(f, "ns/op") || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		n, err := strconv.Atoi(f[1])
		if err != nil || len(f)%2 != 0 {
			return nil, fmt.Errorf("line %d: malformed result line %q", line, sc.Text())
		}
		if !containsUnit(f, "allocs/op") {
			return nil, fmt.Errorf("line %d: %s has no allocs/op column; record with -benchmem", line, f[0])
		}
		name := trimProcs(f[0])
		s := byName[name]
		if s == nil {
			s = &samples{metrics: map[string][]float64{}}
			byName[name] = s
		}
		s.n = n
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: %s: bad %s value %q", line, name, f[i+1], f[i])
			}
			switch unit := f[i+1]; unit {
			case "ns/op":
				s.ns = append(s.ns, v)
			case "B/op":
				s.bytes = append(s.bytes, v)
			case "allocs/op":
				s.allocs = append(s.allocs, v)
			default:
				s.metrics[unit] = append(s.metrics[unit], v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]measurement, len(byName))
	for name, s := range byName {
		m := measurement{
			Name:        name,
			N:           s.n,
			NsPerOp:     median(rejectOutliersIQR(s.ns)),
			BytesPerOp:  int64(median(s.bytes)),
			AllocsPerOp: int64(median(s.allocs)),
		}
		if len(s.metrics) > 0 {
			m.Metrics = map[string]float64{}
			for k, vs := range s.metrics {
				m.Metrics[k] = median(vs)
			}
		}
		out[name] = m
	}
	return out, nil
}

// containsUnit reports whether a result line's fields carry unit in a
// unit position (after the name and iteration count), so it is false
// for a line of fewer than four fields, a blank one included.
func containsUnit(fields []string, unit string) bool {
	for i := 3; i < len(fields); i += 2 {
		if fields[i] == unit {
			return true
		}
	}
	return false
}

// trimProcs strips the -GOMAXPROCS suffix go test appends to a
// benchmark name when GOMAXPROCS is not 1.
func trimProcs(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// check ratchets the measured benchmarks against the baseline and
// returns one "name: reason" line per failure, in baseline order. Every
// baseline entry is gated, so one missing from the output fails;
// measured benchmarks the baseline does not name are ignored.
func check(base *baseline, got map[string]measurement) []string {
	var problems []string
	for _, e := range base.Benchmarks {
		m, ok := got[e.Name]
		if !ok {
			problems = append(problems, e.Name+": gated benchmark missing from the output (renamed, deleted or failed?)")
			continue
		}
		if ratio := e.Budget.MaxNsRatio; m.NsPerOp > e.NsPerOp*ratio {
			problems = append(problems, fmt.Sprintf("%s: ns/op regressed: %.1f vs baseline %.1f (%.2fx > budget %.2fx)",
				e.Name, m.NsPerOp, e.NsPerOp, m.NsPerOp/e.NsPerOp, ratio))
		}
		if m.AllocsPerOp > e.AllocsPerOp+e.Budget.MaxAllocsDelta {
			problems = append(problems, fmt.Sprintf("%s: allocs/op regressed: %d vs baseline %d (budget +%d)",
				e.Name, m.AllocsPerOp, e.AllocsPerOp, e.Budget.MaxAllocsDelta))
		}
	}
	return problems
}

// newBaseline re-records every entry of prev from got, keeping each
// entry's budget: a re-measurement must not silently loosen or tighten
// a hand-tuned budget. A gated benchmark missing from got is an error.
func newBaseline(prev *baseline, got map[string]measurement) (*baseline, error) {
	out := &baseline{Schema: schema}
	for _, e := range prev.Benchmarks {
		m, ok := got[e.Name]
		if !ok {
			return nil, fmt.Errorf("gated benchmark %s missing from the output", e.Name)
		}
		out.Benchmarks = append(out.Benchmarks, entry{measurement: m, Budget: e.Budget})
	}
	return out, nil
}

// loadBaseline reads a baseline file, rejecting schema mismatches.
func loadBaseline(path string) (*baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if b.Schema != schema {
		return nil, fmt.Errorf("%s: schema %d, this binary speaks %d", path, b.Schema, schema)
	}
	return &b, nil
}

// write writes the baseline sorted by name with two-space indentation.
func (b *baseline) write(path string) error {
	sort.Slice(b.Benchmarks, func(i, j int) bool {
		return b.Benchmarks[i].Name < b.Benchmarks[j].Name
	})
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// median returns the middle value of xs (the mean of the middle two for
// even lengths); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quantile returns the q-quantile of sorted xs with linear
// interpolation between order statistics.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// rejectOutliersIQR drops values outside [Q1 - 1.5*IQR, Q3 + 1.5*IQR],
// the standard Tukey fence. It never returns an empty slice: with fewer
// than 4 samples the fence is meaningless and xs is returned as-is.
// The typical victim is a first repeat inflated by cold caches or a
// background process stealing the core mid-measurement.
func rejectOutliersIQR(xs []float64) []float64 {
	if len(xs) < 4 {
		return xs
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, q3 := quantile(s, 0.25), quantile(s, 0.75)
	iqr := q3 - q1
	lo, hi := q1-1.5*iqr, q3+1.5*iqr
	kept := s[:0]
	for _, v := range s {
		if v >= lo && v <= hi {
			kept = append(kept, v)
		}
	}
	if len(kept) == 0 {
		return xs
	}
	return kept
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nocbench:", err)
	os.Exit(1)
}
