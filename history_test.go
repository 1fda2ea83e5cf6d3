package gpunoc_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// historyFields are the keys every bench.history.jsonl record carries:
// the change's number, the BENCHMARK.json workload and metric, the
// parent's and the change's medians, and the metric's unit.
var historyFields = []string{"pr", "workload", "metric", "parent", "change", "unit"}

// checkHistory validates a bench.history.jsonl stream: one JSON object
// per non-blank line with exactly historyFields, a positive integer pr,
// numeric parent and change, and a workload, metric and unit named in
// BENCHMARK.json (workloads and metrics) with the unit it declares.
func checkHistory(r io.Reader, workloads map[string]bool, units map[string]string) error {
	sc := bufio.NewScanner(r)
	records := 0
	for n := 1; sc.Scan(); n++ {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec map[string]json.RawMessage
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("line %d: %v", n, err)
		}
		if len(rec) != len(historyFields) {
			return fmt.Errorf("line %d: %d fields, want exactly %v", n, len(rec), historyFields)
		}
		for _, k := range historyFields {
			if _, ok := rec[k]; !ok {
				return fmt.Errorf("line %d: missing field %q", n, k)
			}
		}
		var pr int
		if err := json.Unmarshal(rec["pr"], &pr); err != nil || pr <= 0 {
			return fmt.Errorf("line %d: pr %s is not a positive integer", n, rec["pr"])
		}
		for _, k := range []string{"parent", "change"} {
			var v *float64 // JSON null decodes as nil, not an error
			if err := json.Unmarshal(rec[k], &v); err != nil || v == nil {
				return fmt.Errorf("line %d: %s %s is not a number", n, k, rec[k])
			}
		}
		var workload, metric, unit string
		for _, f := range []struct {
			key string
			dst *string
		}{{"workload", &workload}, {"metric", &metric}, {"unit", &unit}} {
			if err := json.Unmarshal(rec[f.key], f.dst); err != nil {
				return fmt.Errorf("line %d: %s %s is not a string", n, f.key, rec[f.key])
			}
		}
		if !workloads[workload] {
			return fmt.Errorf("line %d: workload %q is not in BENCHMARK.json", n, workload)
		}
		want, ok := units[metric]
		if !ok {
			return fmt.Errorf("line %d: metric %q is not in BENCHMARK.json", n, metric)
		}
		if unit != want {
			return fmt.Errorf("line %d: metric %q in %q, BENCHMARK.json says %q", n, metric, unit, want)
		}
		records++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if records == 0 {
		return fmt.Errorf("no records")
	}
	return nil
}

// benchmarkNames reads BENCHMARK.json's workload names and its metric
// units (end-to-end and per-layer).
func benchmarkNames(t *testing.T) (map[string]bool, map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	workloads := map[string]bool{}
	for _, w := range spec.Workloads {
		workloads[w.Name] = true
	}
	units := map[string]string{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		units[m.Name] = m.Unit
	}
	return workloads, units
}

// TestBenchHistoryWellFormed keeps the committed benchmark trajectory
// parseable, so a broken append fails CI instead of the next reader.
func TestBenchHistoryWellFormed(t *testing.T) {
	workloads, units := benchmarkNames(t)
	f, err := os.Open("bench.history.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := checkHistory(f, workloads, units); err != nil {
		t.Errorf("bench.history.jsonl: %v", err)
	}

	good := `{"pr": 1, "workload": "matrix_quick", "metric": "pass_s", "parent": 7.1, "change": 5.4, "unit": "s"}`
	bad := map[string]string{
		"missing field":   `{"pr": 1, "workload": "matrix_quick", "metric": "pass_s", "parent": 7.1, "unit": "s"}`,
		"string value":    `{"pr": 1, "workload": "matrix_quick", "metric": "pass_s", "parent": "7.1", "change": 5.4, "unit": "s"}`,
		"null value":      `{"pr": 1, "workload": "matrix_quick", "metric": "pass_s", "parent": 7.1, "change": null, "unit": "s"}`,
		"fractional pr":   `{"pr": 1.5, "workload": "matrix_quick", "metric": "pass_s", "parent": 7.1, "change": 5.4, "unit": "s"}`,
		"extra field":     `{"pr": 1, "workload": "matrix_quick", "metric": "pass_s", "parent": 7.1, "change": 5.4, "unit": "s", "x": 1}`,
		"unknown metric":  `{"pr": 1, "workload": "matrix_quick", "metric": "pass_ms", "parent": 7.1, "change": 5.4, "unit": "s"}`,
		"wrong unit":      `{"pr": 1, "workload": "matrix_quick", "metric": "pass_s", "parent": 7.1, "change": 5.4, "unit": "ms"}`,
		"truncated write": `{"pr": 1, "workload": "matrix_quick", "metric": "pass_s", "par`,
	}
	if err := checkHistory(strings.NewReader(good), workloads, units); err != nil {
		t.Errorf("well-formed record rejected: %v", err)
	}
	for name, line := range bad {
		if err := checkHistory(strings.NewReader(good+"\n"+line+"\n"), workloads, units); err == nil {
			t.Errorf("%s: record accepted: %s", name, line)
		}
	}
}
