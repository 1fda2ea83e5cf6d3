package main

import (
	"errors"
	"fmt"
)

// modeFlags are the flags that choose what a nocchar run does or how it
// renders.
type modeFlags struct {
	list, observations, implications bool
	report, exp                      string
	all, csv, json                   bool
}

// validateFlags rejects flag combinations whose precedence used to be
// silently undefined: -csv and -json name two different renderings of
// the same artifacts, -exp with -all both try to choose the experiment
// set, -report writes every experiment as Markdown, so -exp, -csv and
// -json have nothing to choose there, and -list, -observations and
// -implications are modes of their own that ignore every other mode
// flag. A script must get a loud non-zero exit, not whichever flag the
// code happened to test first.
func validateFlags(f modeFlags) error {
	set := []struct {
		name string
		on   bool
	}{
		{"-list", f.list},
		{"-observations", f.observations},
		{"-implications", f.implications},
		{"-report", f.report != ""},
		{"-exp", f.exp != ""},
		{"-all", f.all},
		{"-csv", f.csv},
		{"-json", f.json},
	}
	// The first three run alone: each refuses every flag listed after it.
	for i, m := range set[:3] {
		if !m.on {
			continue
		}
		for _, o := range set[i+1:] {
			if o.on {
				return fmt.Errorf("%s and %s are mutually exclusive: %s is a mode of its own", m.name, o.name, m.name)
			}
		}
	}
	if f.csv && f.json {
		return errors.New("-csv and -json are mutually exclusive: pick one output encoding")
	}
	if f.all && f.exp != "" {
		return fmt.Errorf("-all and -exp %q are mutually exclusive: -all runs every experiment, -exp runs one", f.exp)
	}
	if f.report != "" && f.exp != "" {
		return fmt.Errorf("-report and -exp %q are mutually exclusive: -report writes every experiment", f.exp)
	}
	if f.report != "" && (f.csv || f.json) {
		return errors.New("-report and -csv/-json are mutually exclusive: -report writes Markdown")
	}
	return nil
}
