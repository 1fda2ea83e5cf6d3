// Package lint is a domain-aware static-analysis suite enforcing the
// simulator's cross-cutting invariants: determinism (no unseeded
// randomness or wall-clock reads in the model), unit safety (no
// laundering between Cycles/GBps/Bytes), ordered output (no report or
// API output driven by map iteration order), registry completeness
// (every experiment registered and documented), and error hygiene (no
// silently dropped errors).
//
// The suite is built purely on the standard library (go/ast, go/parser,
// go/token, go/types); cmd/noclint is the CLI front end. Findings can be
// suppressed with a
//
//	//lint:ignore <analyzer> <reason>
//
// comment on the offending line or the line directly above it; the
// reason is mandatory.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding, addressed by file position.
type Diagnostic struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string
}

// String renders the canonical file:line: [analyzer] message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.File, d.Line, d.Analyzer, d.Message)
}

// Analyzer is one invariant checker. Run inspects a whole Program (all
// loaded packages plus their shared call graph) and returns its
// findings; suppressions are applied by CheckProgram.
type Analyzer struct {
	// Name is the identifier used in output and //lint:ignore comments.
	Name string
	// Doc is a one-line description for -list output.
	Doc string
	// Run executes the analyzer over the program. It is nil for
	// staleignore, which CheckProgram evaluates itself: it needs the
	// suppression-usage information only CheckProgram has.
	Run func(prog *Program) []Diagnostic
}

// Analyzers returns the suite in a fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer(),
		SeedFlowAnalyzer(),
		UnitSafetyAnalyzer(),
		OrderedOutputAnalyzer(),
		RegistryAnalyzer(),
		ErrCheckAnalyzer(),
		HotPathAllocAnalyzer(),
		AtomicMixAnalyzer(),
		StaleIgnoreAnalyzer(),
	}
}

// perPackage lifts a single-package check into an Analyzer.Run that
// applies it to every package of the program in load order.
func perPackage(run func(p *Package) []Diagnostic) func(prog *Program) []Diagnostic {
	return func(prog *Program) []Diagnostic {
		var diags []Diagnostic
		for _, p := range prog.Packages {
			diags = append(diags, run(p)...)
		}
		return diags
	}
}

// StaleIgnoreAnalyzer reports //lint:ignore directives that no longer
// suppress anything: the finding they silenced was fixed (or never
// existed), so the directive is dead weight that would mask a future
// regression at the same position. It has no Run of its own — it is
// evaluated inside CheckProgram after suppression matching, because
// only CheckProgram knows which directives were actually consulted,
// and only on full-module Programs (a partial load cannot distinguish
// "stale" from "suppresses an interprocedural finding rooted in a
// package outside this load").
func StaleIgnoreAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "staleignore",
		Doc:  "report //lint:ignore directives that no longer suppress anything (full-module runs only)",
	}
}

// CheckProgram runs the suite over the program and applies
// //lint:ignore suppression across the whole diagnostic set at once (an
// interprocedural finding can be suppressed at its position like any
// other). On full-module Programs, directives that suppressed nothing
// are reported under the staleignore analyzer.
func CheckProgram(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, a := range Analyzers() {
		if a.Run != nil {
			diags = append(diags, a.Run(prog)...)
		}
	}
	var sups []suppression
	for _, p := range prog.Packages {
		ps, malformed := collectSuppressions(p)
		sups = append(sups, ps...)
		diags = append(diags, malformed...)
	}
	diags, used := applySuppressions(diags, sups)
	if prog.FullModule {
		for i, s := range sups {
			if !used[i] {
				diags = append(diags, Diagnostic{
					File: s.file, Line: s.line, Col: s.col,
					Analyzer: "staleignore",
					Message: fmt.Sprintf("//lint:ignore %s directive suppresses nothing; the finding was fixed — delete the directive so it cannot mask a future regression",
						s.names),
				})
			}
		}
	}
	SortDiagnostics(diags)
	return diags
}

// SortDiagnostics orders findings by file, line, column and analyzer so
// output is stable across runs.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// diag builds a Diagnostic for a position within the package.
func (p *Package) diag(pos token.Pos, analyzer, format string, args ...interface{}) Diagnostic {
	position := p.Fset.Position(pos)
	return Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	}
}

// suppression is one parsed //lint:ignore directive.
type suppression struct {
	file      string
	line      int
	col       int
	names     string // the analyzer list as written, for staleignore reports
	analyzers map[string]bool
}

// collectSuppressions parses the //lint:ignore directives of a package,
// also validating //lint:hotpath directives (both require a free-text
// reason). Malformed directives are returned as diagnostics so
// suppressions and hot-root annotations stay auditable.
func collectSuppressions(p *Package) ([]suppression, []Diagnostic) {
	var sups []suppression
	var malformed []Diagnostic
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				pos := p.Fset.Position(c.Pos())
				if strings.HasPrefix(text, hotAnnotation) {
					if len(strings.Fields(text)) < 2 {
						malformed = append(malformed, Diagnostic{
							File: pos.Filename, Line: pos.Line, Col: pos.Column,
							Analyzer: "lint",
							Message:  "malformed //lint:hotpath directive: want `//lint:hotpath <reason>`",
						})
					}
					continue
				}
				if !strings.HasPrefix(text, "lint:ignore") {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) < 3 {
					malformed = append(malformed, Diagnostic{
						File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Analyzer: "lint",
						Message:  "malformed //lint:ignore directive: want `//lint:ignore <analyzer> <reason>`",
					})
					continue
				}
				names := map[string]bool{}
				for _, n := range strings.Split(fields[1], ",") {
					names[n] = true
				}
				sups = append(sups, suppression{
					file: pos.Filename, line: pos.Line, col: pos.Column,
					names: fields[1], analyzers: names,
				})
			}
		}
	}
	return sups, malformed
}

// applySuppressions drops diagnostics covered by directives. A
// directive covers findings on its own line and on the line directly
// below it (the comment-above-statement idiom). The returned slice
// records, per directive, whether it suppressed at least one finding.
func applySuppressions(diags []Diagnostic, sups []suppression) ([]Diagnostic, []bool) {
	used := make([]bool, len(sups))
	if len(sups) == 0 {
		return diags, used
	}
	var out []Diagnostic
	for _, d := range diags {
		suppressed := false
		for i, s := range sups {
			if d.File == s.file && (d.Line == s.line || d.Line == s.line+1) &&
				(s.analyzers[d.Analyzer] || s.analyzers["*"]) {
				suppressed = true
				used[i] = true
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	return out, used
}

// walkFiles applies fn to every node of every file in the package.
func (p *Package) walkFiles(fn func(file *ast.File, n ast.Node) bool) {
	for _, f := range p.Files {
		file := f
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			return fn(file, n)
		})
	}
}
