package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"

	"gpunoc/internal/core"
	"gpunoc/internal/gpu"
	"gpunoc/internal/obs"
)

// recordExpected fills every key of the three workloads once, records
// the digests, lengths and simulated statistics, cross-checks the json,
// csv and text digests against the nocchar binary's stdout, and writes
// the table to path. It is how expected.json was made:
//
//	go build -o nocchar gpunoc/cmd/nocchar
//	go run . -record expected.json -nocchar ./nocchar
func recordExpected(path, nocchar string, log io.Writer) error {
	if nocchar == "" {
		return errors.New("-record needs -nocchar for the cross-check")
	}
	exp := expected{}
	for _, k := range append(quickKeys(), nocFullKeys()...) {
		reg := obs.New()
		f := coldFill(k, reg, false)
		if f.err != nil {
			if isKnownRefusal(k, f.err.Error()) {
				_, _ = fmt.Fprintf(log, "e2ebench: %s refused (the known defect): %v\n", k, f.err)
				continue
			}
			return fmt.Errorf("%s: %w", k, f.err)
		}
		e := &expectedEntry{}
		for i, b := range f.bodies {
			e.SHA256[i] = digest(b)
			e.Bytes[i] = len(b)
		}
		counts, err := countsOf(reg)
		if err != nil {
			return fmt.Errorf("%s: %w", k, err)
		}
		e.Counts = counts
		exp[k.String()] = e
	}
	checked, err := crossCheck(exp, nocchar)
	if err != nil {
		return err
	}
	_, _ = fmt.Fprintf(log, "e2ebench: %d keys recorded; %d renderings match nocchar stdout\n", len(exp), checked)
	data, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// nocchar's output modes and the rendering each one prints.
var noccharModes = []struct {
	format int
	flags  []string
}{{0, []string{"-json"}}, {1, []string{"-csv"}}, {2, nil}}

// crossCheck runs nocchar for every recorded key in json, csv and text
// mode and compares each experiment's section of stdout with the
// recorded digest. It returns how many renderings it compared.
func crossCheck(exp expected, nocchar string) (int, error) {
	checked := 0
	compare := func(gen gpu.Generation, quick bool, args []string, exps []*core.Experiment, format int) error {
		out, err := exec.Command(nocchar, args...).Output()
		if err != nil {
			return fmt.Errorf("nocchar %v: %w", args, err)
		}
		bodies, err := splitSections(out, gen, exps)
		if err != nil {
			return fmt.Errorf("nocchar %v: %w", args, err)
		}
		for i, e := range exps {
			k := key{GPU: gen, Exp: e.ID, Quick: quick}
			if _, ok := exp[k.String()]; !ok {
				if len(bodies[i]) != 0 {
					return fmt.Errorf("%s: nocchar printed %d bytes for a key with no recorded output", k, len(bodies[i]))
				}
				continue
			}
			if msg := exp.check(k, format, bodies[i]); msg != "" {
				return fmt.Errorf("nocchar disagrees: %s", msg)
			}
			checked++
		}
		return nil
	}
	for _, cfg := range gpu.AllConfigs() {
		var exps []*core.Experiment
		for _, e := range core.All() {
			if e.SupportsGPU(cfg.Name) {
				exps = append(exps, e)
			}
		}
		for _, m := range noccharModes {
			args := append([]string{"-gpu", string(cfg.Name), "-quick", "-all"}, m.flags...)
			if err := compare(cfg.Name, true, args, exps, m.format); err != nil {
				return checked, err
			}
		}
	}
	for _, k := range nocFullKeys() {
		e, err := core.Lookup(k.Exp)
		if err != nil {
			return checked, err
		}
		for _, m := range noccharModes {
			args := append([]string{"-gpu", string(k.GPU), "-exp", k.Exp}, m.flags...)
			if err := compare(k.GPU, false, args, []*core.Experiment{e}, m.format); err != nil {
				return checked, err
			}
		}
	}
	return checked, nil
}

// splitSections cuts nocchar stdout into one body per experiment. Each
// experiment's output starts with the header nocchar prints for it; the
// body runs to the next header. A refused experiment prints a header only.
func splitSections(out []byte, gen gpu.Generation, exps []*core.Experiment) ([][]byte, error) {
	header := func(e *core.Experiment) []byte {
		return []byte(fmt.Sprintf("=== %s: %s [%s]\n    paper: %s\n\n", e.ID, e.Title, gen, e.Paper))
	}
	bodies := make([][]byte, len(exps))
	pos := 0
	for i, e := range exps {
		h := header(e)
		if !bytes.HasPrefix(out[pos:], h) {
			return nil, fmt.Errorf("missing header for %s/%s at byte %d", gen, e.ID, pos)
		}
		start := pos + len(h)
		end := len(out)
		if i+1 < len(exps) {
			n := bytes.Index(out[start:], header(exps[i+1]))
			if n < 0 {
				return nil, fmt.Errorf("missing header for %s/%s", gen, exps[i+1].ID)
			}
			end = start + n
		}
		bodies[i] = out[start:end]
		pos = end
	}
	return bodies, nil
}
