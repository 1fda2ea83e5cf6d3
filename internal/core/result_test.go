package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"gpunoc/internal/gpu"
)

// TestRunResultRendersCLIBytes pins the Result renderers to the exact
// byte shapes cmd/nocchar prints: text mode is Render()+"\n" per
// artifact, CSV mode is "# title\ncsv\n" per artifact, and JSON mode is
// the MarshalArtifacts document plus a trailing newline. The nocserve
// cache serves these bytes verbatim, so this equivalence is what makes
// cached responses byte-identical to CLI output.
func TestRunResultRendersCLIBytes(t *testing.T) {
	ctx, err := NewContext(gpu.V100(), true)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Lookup("fig1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunResult(ctx, e)
	if err != nil {
		t.Fatal(err)
	}
	if res.GPU != gpu.GenV100 || res.Exp != e {
		t.Errorf("result identity = (%s, %s), want (V100, fig1)", res.GPU, res.Exp.ID)
	}
	if len(res.Artifacts) == 0 {
		t.Fatal("fig1 produced no artifacts")
	}

	var text, csv bytes.Buffer
	for _, a := range res.Artifacts {
		fmt.Fprintln(&text, a.Render())
		fmt.Fprintf(&csv, "# %s\n%s\n", a.Title(), a.CSV())
	}
	if !bytes.Equal(res.TextBytes(), text.Bytes()) {
		t.Error("TextBytes differs from the per-artifact Println rendering")
	}
	if !bytes.Equal(res.CSVBytes(), csv.Bytes()) {
		t.Error("CSVBytes differs from the per-artifact CSV rendering")
	}

	data, err := MarshalArtifacts(res.Artifacts)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := append(data, '\n')
	gotJSON, err := res.JSONBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("JSONBytes differs from MarshalArtifacts plus newline")
	}

	md := string(res.MarkdownBytes())
	if !strings.HasPrefix(md, "## fig1 — ") || !strings.Contains(md, "*Paper:*") || !strings.Contains(md, "```\n") {
		t.Errorf("MarkdownBytes fragment malformed:\n%s", md[:120])
	}
}

// TestRunResultRefusesUnsupportedGPU: the serving layer hands RunResult
// untrusted tuples; an unsupported pair must be a typed error.
func TestRunResultRefusesUnsupportedGPU(t *testing.T) {
	ctx, err := NewContext(gpu.V100(), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range All() {
		if e.SupportsGPU(gpu.GenV100) {
			continue
		}
		if _, err := RunResult(ctx, e); err == nil {
			t.Errorf("RunResult(V100, %s) = nil error, want unsupported-generation refusal", e.ID)
		}
		return
	}
	t.Skip("every experiment supports V100; nothing to refuse")
}

// TestRunResultDeterministic: two runs of the same (gpu, exp, quick)
// tuple produce byte-identical renderings — the property that makes the
// result cacheable at all.
func TestRunResultDeterministic(t *testing.T) {
	e, err := Lookup("fig1")
	if err != nil {
		t.Fatal(err)
	}
	render := func() []byte {
		ctx, err := NewContext(gpu.V100(), true)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunResult(ctx, e)
		if err != nil {
			t.Fatal(err)
		}
		j, err := res.JSONBytes()
		if err != nil {
			t.Fatal(err)
		}
		return append(append(j, res.CSVBytes()...), res.TextBytes()...)
	}
	if !bytes.Equal(render(), render()) {
		t.Error("identical (gpu, exp, quick) tuples rendered different bytes")
	}
}
