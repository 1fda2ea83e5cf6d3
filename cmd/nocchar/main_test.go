package main

import (
	"bytes"
	"testing"

	"gpunoc/internal/core"
)

func TestPrintChecks(t *testing.T) {
	checks := []core.ObservationResult{
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
