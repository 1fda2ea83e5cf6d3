package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file is the only place obs state leaves the process. Everything
// here iterates instrument tables through sortedKeys and buffers into a
// strings.Builder before one Write, so a metrics or trace file is a
// pure function of the collected values - byte-identical across runs
// and across worker-pool sizes (noclint's determinism analyzer flags
// any raw map iteration in this package's emit paths).

// WriteMetrics emits every instrument as deterministic sorted-key JSON:
//
//	{"counters":{...},"gauges":{...},"histograms":{name:{"bounds":[...],
//	"buckets":[...],"count":N,"sum":N}}}
//
// A nil registry emits the empty document (all three tables present but
// empty) so downstream tooling never special-cases disabled runs.
func (r *Registry) WriteMetrics(w io.Writer) error {
	var b strings.Builder
	b.WriteString("{\n  \"counters\": {")
	if r != nil {
		r.root.mu.Lock()
		defer r.root.mu.Unlock()
		writeScalars(&b, r.root.counters, (*Counter).Value)
		b.WriteString("},\n  \"gauges\": {")
		writeScalars(&b, r.root.gauges, (*Gauge).Value)
		b.WriteString("},\n  \"histograms\": {")
		names := sortedKeys(r.root.hists)
		for i, name := range names {
			if i > 0 {
				b.WriteByte(',')
			}
			h := r.root.hists[name]
			b.WriteString("\n    ")
			b.WriteString(strconv.Quote(name))
			b.WriteString(": {\"bounds\": ")
			writeInts(&b, h.bounds)
			b.WriteString(", \"buckets\": ")
			writeInts(&b, h.BucketCounts())
			fmt.Fprintf(&b, ", \"count\": %d, \"sum\": %d}", h.Count(), h.Sum())
		}
		if len(names) > 0 {
			b.WriteString("\n  ")
		}
	} else {
		b.WriteString("},\n  \"gauges\": {")
		b.WriteString("},\n  \"histograms\": {")
	}
	b.WriteString("}\n}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// writeScalars renders one sorted name->int64 table body (between the
// caller's braces).
func writeScalars[T any](b *strings.Builder, m map[string]*T, value func(*T) int64) {
	names := sortedKeys(m)
	for i, name := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("\n    ")
		b.WriteString(strconv.Quote(name))
		fmt.Fprintf(b, ": %d", value(m[name]))
	}
	if len(names) > 0 {
		b.WriteString("\n  ")
	}
}

// writeInts renders an int64 slice as a JSON array.
func writeInts(b *strings.Builder, vs []int64) {
	b.WriteByte('[')
	for i, v := range vs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(v, 10))
	}
	b.WriteByte(']')
}

// WriteTrace emits every scope's buffered events as Chrome trace-event
// JSON (the object form: {"traceEvents":[...]}), loadable in
// chrome://tracing and Perfetto. Each scope becomes one trace process
// (pid assigned in sorted-scope order, named via process_name
// metadata); within a scope, events keep their buffered simulation
// order, so the file is byte-identical regardless of how many workers
// collected it. Cycle stamps map directly onto the trace "ts"
// microsecond field: 1 cycle renders as 1us.
func (r *Registry) WriteTrace(w io.Writer) error {
	var b strings.Builder
	b.WriteString("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [")
	first := true
	sep := func() {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString("\n")
	}
	if r != nil {
		r.root.mu.Lock()
		defer r.root.mu.Unlock()
		scopes := sortedKeys(r.root.tracers)
		for pid, scope := range scopes {
			t := r.root.tracers[scope]
			name := strings.TrimSuffix(scope, "/")
			if name == "" {
				name = "root"
			}
			sep()
			fmt.Fprintf(&b, `{"name": "process_name", "ph": "M", "pid": %d, "args": {"name": %s}}`,
				pid, strconv.Quote(name))
			for i := range t.events {
				e := &t.events[i]
				sep()
				fmt.Fprintf(&b, `{"name": %s, "cat": %s, "ph": "%c", "ts": %d, "pid": %d, "tid": %d`,
					strconv.Quote(e.name), strconv.Quote(e.cat), e.ph, e.ts, pid, e.tid)
				switch e.ph {
				case phaseComplete:
					fmt.Fprintf(&b, `, "dur": %d, "args": {"v": %d}}`, e.dur, e.arg)
				default:
					fmt.Fprintf(&b, `, "s": "t", "args": {"v": %d}}`, e.arg)
				}
			}
			if t.dropped > 0 {
				sep()
				fmt.Fprintf(&b, `{"name": "dropped_events", "cat": "obs", "ph": "C", "ts": 0, "pid": %d, "tid": 0, "args": {"v": %d}}`,
					pid, t.dropped)
			}
		}
	}
	b.WriteString("\n]}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// SummaryRow is one line of the report-footer metrics table.
type SummaryRow struct {
	Name  string
	Value string
}

// SummaryRows condenses the registry for the report footer: every
// counter and gauge with its value, and every histogram as
// count/mean/max-bucket. Rows come back sorted by instrument name
// (counters, then gauges, then histograms).
func (r *Registry) SummaryRows() []SummaryRow {
	if r == nil {
		return nil
	}
	r.root.mu.Lock()
	defer r.root.mu.Unlock()
	var rows []SummaryRow
	for _, name := range sortedKeys(r.root.counters) {
		rows = append(rows, SummaryRow{Name: name,
			Value: strconv.FormatInt(r.root.counters[name].Value(), 10)})
	}
	for _, name := range sortedKeys(r.root.gauges) {
		rows = append(rows, SummaryRow{Name: name,
			Value: strconv.FormatInt(r.root.gauges[name].Value(), 10)})
	}
	for _, name := range sortedKeys(r.root.hists) {
		h := r.root.hists[name]
		n := h.Count()
		mean := 0.0
		if n > 0 {
			mean = float64(h.Sum()) / float64(n)
		}
		rows = append(rows, SummaryRow{Name: name,
			Value: fmt.Sprintf("n=%d mean=%.2f", n, mean)})
	}
	return rows
}
