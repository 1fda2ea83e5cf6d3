package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Spans of one fill or one request share ID; Parent
// is the index of the span that caused this one, -1 for a root.
type span struct {
	Name   string        `json:"name"`
	ID     int64         `json:"id"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Attr carries the span's classification: the engine family of a
	// core.run, the X-Cache outcome and entry node of a request.
	Attr string `json:"attr,omitempty"`
}

// tracer keeps spans in memory and writes them when the run ends. A nil
// tracer records nothing, so untraced passes pay no cost.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// ids numbers the requests of a serving run.
	ids atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span that ran from start for d and returns its
// index, for children to name as their parent.
func (t *tracer) add(name string, id int64, parent int, start time.Time, d time.Duration, attr string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := start.Sub(t.t0)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: s, End: s + d, Attr: attr})
	return len(t.spans) - 1
}

// finish sets the end of a span added with a zero duration before its
// children were known.
func (t *tracer) finish(i int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = end.Sub(t.t0)
}

// write saves the spans as JSON to <workdir>/traces/<workload>-seed<n>.json.
func (t *tracer) write(workdir, workload string, seed int64) error {
	if t == nil {
		return nil
	}
	dir := filepath.Join(workdir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)), data, 0o644)
}
