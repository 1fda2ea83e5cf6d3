package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name           string
		csv, json, all bool
		exp, report    string
		wantErr        bool
	}{
		{name: "defaults", exp: ""},
		{name: "csv alone", csv: true},
		{name: "json alone", json: true},
		{name: "exp alone", exp: "fig1"},
		{name: "all alone", all: true},
		{name: "csv with exp", csv: true, exp: "fig1"},
		{name: "json with all", json: true, all: true},
		{name: "csv and json", csv: true, json: true, wantErr: true},
		{name: "all and exp", all: true, exp: "fig1", wantErr: true},
		{name: "everything wrong", csv: true, json: true, all: true, exp: "fig1", wantErr: true},
		{name: "report alone", report: "r.md"},
		{name: "report with all", all: true, report: "r.md"},
		{name: "report and exp", exp: "fig1", report: "r.md", wantErr: true},
		{name: "report and csv", csv: true, report: "r.md", wantErr: true},
		{name: "report and json", json: true, report: "r.md", wantErr: true},
	}
	for _, c := range cases {
		err := validateFlags(c.csv, c.json, c.all, c.exp, c.report)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: validateFlags(csv=%v, json=%v, all=%v, exp=%q, report=%q) = %v, wantErr=%v",
				c.name, c.csv, c.json, c.all, c.exp, c.report, err, c.wantErr)
		}
	}
}

// TestCLIFlagConflicts runs the real binary: conflicting flags must
// print to stderr, write nothing to stdout, and exit non-zero before
// any simulation starts.
func TestCLIFlagConflicts(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary build in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "nocchar")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-gpu", "v100", "-exp", "fig1", "-csv", "-json"},
		{"-gpu", "v100", "-exp", "fig1", "-all"},
		{"-gpu", "v100", "-report", filepath.Join(t.TempDir(), "r.md"), "-exp", "fig1"},
	} {
		cmd := exec.Command(bin, args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if err == nil {
			t.Errorf("nocchar %v: want non-zero exit", args)
			continue
		}
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() == 0 {
			t.Errorf("nocchar %v: exit error = %v, want non-zero exit code", args, err)
		}
		if !strings.Contains(stderr.String(), "mutually exclusive") {
			t.Errorf("nocchar %v: stderr = %q, want a mutually-exclusive diagnostic", args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("nocchar %v: stdout = %q, want empty (fail before any output)", args, stdout.String())
		}
	}
}
