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
		name    string
		f       modeFlags
		wantErr bool
	}{
		{name: "defaults"},
		{name: "csv alone", f: modeFlags{csv: true}},
		{name: "json alone", f: modeFlags{json: true}},
		{name: "exp alone", f: modeFlags{exp: "fig1"}},
		{name: "all alone", f: modeFlags{all: true}},
		{name: "csv with exp", f: modeFlags{csv: true, exp: "fig1"}},
		{name: "json with all", f: modeFlags{json: true, all: true}},
		{name: "csv and json", f: modeFlags{csv: true, json: true}, wantErr: true},
		{name: "all and exp", f: modeFlags{all: true, exp: "fig1"}, wantErr: true},
		{name: "everything wrong", f: modeFlags{csv: true, json: true, all: true, exp: "fig1"}, wantErr: true},
		{name: "report alone", f: modeFlags{report: "r.md"}},
		{name: "report with all", f: modeFlags{all: true, report: "r.md"}},
		{name: "report and exp", f: modeFlags{exp: "fig1", report: "r.md"}, wantErr: true},
		{name: "report and csv", f: modeFlags{csv: true, report: "r.md"}, wantErr: true},
		{name: "report and json", f: modeFlags{json: true, report: "r.md"}, wantErr: true},
		{name: "list alone", f: modeFlags{list: true}},
		{name: "observations alone", f: modeFlags{observations: true}},
		{name: "implications alone", f: modeFlags{implications: true}},
		{name: "list and report", f: modeFlags{list: true, report: "r.md"}, wantErr: true},
		{name: "list and exp", f: modeFlags{list: true, exp: "fig1"}, wantErr: true},
		{name: "list and all", f: modeFlags{list: true, all: true}, wantErr: true},
		{name: "list and csv", f: modeFlags{list: true, csv: true}, wantErr: true},
		{name: "list and json", f: modeFlags{list: true, json: true}, wantErr: true},
		{name: "list and observations", f: modeFlags{list: true, observations: true}, wantErr: true},
		{name: "observations and implications", f: modeFlags{observations: true, implications: true}, wantErr: true},
		{name: "observations and report", f: modeFlags{observations: true, report: "r.md"}, wantErr: true},
		{name: "observations and all", f: modeFlags{observations: true, all: true}, wantErr: true},
		{name: "implications and exp", f: modeFlags{implications: true, exp: "fig1"}, wantErr: true},
		{name: "implications and csv", f: modeFlags{implications: true, csv: true}, wantErr: true},
		{name: "implications and json", f: modeFlags{implications: true, json: true}, wantErr: true},
	}
	for _, c := range cases {
		err := validateFlags(c.f)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: validateFlags(%+v) = %v, wantErr=%v", c.name, c.f, err, c.wantErr)
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
		{"-list", "-report", filepath.Join(t.TempDir(), "r.md")},
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
