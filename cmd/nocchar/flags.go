package main

import (
	"errors"
	"fmt"
)

// validateFlags rejects flag combinations whose precedence used to be
// silently undefined: -csv and -json name two different renderings of
// the same artifacts, -exp with -all both try to choose the experiment
// set, and -report writes every experiment as Markdown, so -exp, -csv
// and -json have nothing to choose there. A script must get a loud
// non-zero exit, not whichever flag the switch statement happened to
// test first.
func validateFlags(csv, json, all bool, exp, report string) error {
	if csv && json {
		return errors.New("-csv and -json are mutually exclusive: pick one output encoding")
	}
	if all && exp != "" {
		return fmt.Errorf("-all and -exp %q are mutually exclusive: -all runs every experiment, -exp runs one", exp)
	}
	if report != "" && exp != "" {
		return fmt.Errorf("-report and -exp %q are mutually exclusive: -report writes every experiment", exp)
	}
	if report != "" && (csv || json) {
		return errors.New("-report and -csv/-json are mutually exclusive: -report writes Markdown")
	}
	return nil
}
