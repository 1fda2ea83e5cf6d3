package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"gpunoc/internal/core"
	"gpunoc/internal/gpu"
)

func TestPrintChecks(t *testing.T) {
	checks := []core.CheckResult{
		{ID: 1, Text: "first", Pass: true, Detail: "spread 1.00x"},
		{ID: 2, Text: "second", Pass: false, Detail: "ratio 0.50"},
		{ID: 3, Text: "third", Pass: false, Detail: ""},
	}
	var buf bytes.Buffer
	failed := printChecks(&buf, "Implication", checks)
	want := "[PASS] Implication #1: first\n       spread 1.00x\n" +
		"[FAIL] Implication #2: second\n       ratio 0.50\n" +
		"[FAIL] Implication #3: third\n       \n"
	if got := buf.String(); got != want {
		t.Errorf("printChecks output =\n%q\nwant\n%q", got, want)
	}
	if failed != 2 {
		t.Errorf("printChecks failed count = %d, want 2", failed)
	}

	buf.Reset()
	if failed := printChecks(&buf, "Observation", nil); failed != 0 || buf.Len() != 0 {
		t.Errorf("printChecks(nil) = %d failed, %q; want 0 and no output", failed, buf.String())
	}
}

func TestPrintOutcomes(t *testing.T) {
	exps := []*core.Experiment{
		{ID: "a", Title: "first", Paper: "p1"},
		{ID: "b", Title: "second", Paper: "p2"},
		{ID: "c", Title: "third", Paper: "p3"},
	}
	outs := []outcome{
		{res: &core.Result{}},
		{err: errors.New("refused")},
		{res: &core.Result{}},
	}
	var stdout, stderr bytes.Buffer
	failed := printOutcomes(&stdout, &stderr, gpu.GenV100, exps, outs, false, false)
	if failed != 1 {
		t.Errorf("printOutcomes failed count = %d, want 1", failed)
	}
	// The failed run keeps its header and the runs after it still print.
	want := "=== a: first [V100]\n    paper: p1\n\n" +
		"=== b: second [V100]\n    paper: p2\n\n" +
		"=== c: third [V100]\n    paper: p3\n\n"
	if got := stdout.String(); got != want {
		t.Errorf("stdout =\n%q\nwant\n%q", got, want)
	}
	if got := stderr.String(); !strings.Contains(got, "nocchar: b wall time") || !strings.Contains(got, "    error: refused\n") {
		t.Errorf("stderr lacks b's wall time or error:\n%s", got)
	}

	stdout.Reset()
	if failed := printOutcomes(&stdout, &stderr, gpu.GenV100, exps[:1], outs[:1], false, false); failed != 0 {
		t.Errorf("printOutcomes over a successful run = %d failed, want 0", failed)
	}
}
