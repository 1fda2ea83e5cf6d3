// Command noclint runs the gpunoc static-analysis suite (see
// internal/lint): the per-package analyzers (determinism, seedflow,
// unit safety, ordered output, registry completeness, error hygiene)
// and the ones built on a module-local call graph (hotpathalloc, the
// determinism reachability pass, atomicmix, staleignore). It is a gate:
// it exits 1 when any finding survives suppression and 2 on a hard
// error (a package that cannot be loaded).
//
// Usage:
//
//	noclint ./...
//	noclint ./internal/core
//	noclint -list
//
// Findings print as file:line: [analyzer] message. Suppress one with a
// `//lint:ignore <analyzer> <reason>` comment on or directly above the
// offending line. staleignore runs only when the patterns cover the
// whole module.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gpunoc/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, modulePath, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	dirs, err := expandPatterns(patterns)
	if err != nil {
		fatal(err)
	}
	loader := lint.NewLoader(root, modulePath)
	var pkgs []*lint.Package
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			fatal(fmt.Errorf("%s: %v", dir, err))
		}
		pkgs = append(pkgs, pkg)
	}
	prog := lint.NewProgram(pkgs)
	prog.FullModule, err = coversModule(root, dirs)
	if err != nil {
		fatal(err)
	}
	diags := lint.CheckProgram(prog)

	// Report paths relative to the working directory, like go vet.
	for i := range diags {
		if rel, err := filepath.Rel(cwd, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = rel
		}
	}
	lint.SortDiagnostics(diags)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// coversModule reports whether the loaded directory set includes every
// package directory of the module — the precondition for the
// whole-program staleignore verdict.
func coversModule(root string, dirs []string) (bool, error) {
	all, err := expandPatterns([]string{root + "/..."})
	if err != nil {
		return false, err
	}
	loaded := map[string]bool{}
	for _, d := range dirs {
		loaded[d] = true
	}
	for _, d := range all {
		if !loaded[d] {
			return false, nil
		}
	}
	return true, nil
}

// expandPatterns resolves CLI arguments into package directories. A
// trailing /... walks the tree; testdata, vendor and hidden directories
// are skipped (lint fixtures are intentionally broken).
func expandPatterns(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	addIfPackage := func(dir string) error {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return err
		}
		if seen[abs] {
			return nil
		}
		entries, err := os.ReadDir(abs)
		if err != nil {
			return err
		}
		for _, e := range entries {
			name := e.Name()
			if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
				seen[abs] = true
				dirs = append(dirs, abs)
				return nil
			}
		}
		return nil
	}
	for _, pat := range patterns {
		if base, ok := strings.CutSuffix(pat, "/..."); ok {
			if base == "" {
				base = "."
			}
			err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if name == "testdata" || name == "vendor" || (strings.HasPrefix(name, ".") && path != base) {
					return filepath.SkipDir
				}
				return addIfPackage(path)
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		if err := addIfPackage(pat); err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "noclint:", err)
	os.Exit(2)
}
