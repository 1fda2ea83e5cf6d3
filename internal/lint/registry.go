package lint

import (
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// RegistryAnalyzer enforces experiment-registry completeness for
// packages holding exp_*.go files (internal/core and its fixtures):
// every Experiment composite literal must be passed to register() (so it
// reaches All() and the CLI), IDs must be unique, every registered
// entry must set a Run function (an entry without one is dead weight:
// nocchar -all cannot execute it and nocserve cannot serve it), and
// every registered ID must be mentioned in the nearest EXPERIMENTS.md.
// Doc matching tolerates humanized forms: "fig12" matches "Fig 12",
// "Figure 12" or "fig12"; "table1" matches "Table I" (roman numerals)
// or "Table 1".
func RegistryAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "registry",
		Doc:  "flag unregistered experiment constructors, unservable entries, and IDs missing from EXPERIMENTS.md",
		Run:  perPackage(runRegistry),
	}
}

func runRegistry(p *Package) []Diagnostic {
	var diags []Diagnostic
	type reg struct {
		id     string
		pos    ast.Node
		hasRun bool
	}
	var registered []reg
	sawExpFile := false
	for _, file := range p.Files {
		name := filepath.Base(p.Fset.Position(file.Pos()).Filename)
		if !strings.HasPrefix(name, "exp_") {
			continue
		}
		sawExpFile = true
		// Composite literals inside register(...) calls are registered;
		// any other Experiment literal with an ID never reaches All().
		inRegister := map[*ast.CompositeLit]bool{}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "register" {
				return true
			}
			for _, arg := range call.Args {
				if u, ok := arg.(*ast.UnaryExpr); ok {
					arg = u.X
				}
				if cl, ok := arg.(*ast.CompositeLit); ok {
					inRegister[cl] = true
				}
			}
			return true
		})
		ast.Inspect(file, func(n ast.Node) bool {
			cl, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			id := experimentID(cl)
			if id == "" {
				return true
			}
			if inRegister[cl] {
				registered = append(registered, reg{id: id, pos: cl, hasRun: experimentHasRun(cl)})
			} else {
				diags = append(diags, p.diag(cl.Pos(), "registry",
					"experiment %q is constructed but never passed to register(); it will not appear in All()", id))
			}
			return true
		})
	}
	if !sawExpFile {
		return diags
	}

	seen := map[string]bool{}
	for _, r := range registered {
		if seen[r.id] {
			diags = append(diags, p.diag(r.pos.Pos(), "registry",
				"experiment ID %q registered more than once", r.id))
		}
		seen[r.id] = true
		if !r.hasRun {
			diags = append(diags, p.diag(r.pos.Pos(), "registry",
				"experiment %q is registered without a Run function; nocchar and nocserve cannot execute it", r.id))
		}
	}

	docPath, doc, err := findExperimentsDoc(p.Dir, p.ModuleRoot)
	if err != nil {
		diags = append(diags, p.diag(p.Files[0].Pos(), "registry",
			"package registers experiments but no EXPERIMENTS.md found between %s and the module root", p.Dir))
		return diags
	}
	rel, rerr := filepath.Rel(p.ModuleRoot, docPath)
	if rerr != nil {
		rel = docPath
	}
	for _, r := range registered {
		if !docMentions(doc, r.id) {
			diags = append(diags, p.diag(r.pos.Pos(), "registry",
				"experiment %q is not mentioned in %s", r.id, rel))
		}
	}
	return diags
}

// experimentID extracts the ID field of an Experiment composite
// literal, or "" when cl is not one.
func experimentID(cl *ast.CompositeLit) string {
	if id, ok := cl.Type.(*ast.Ident); !ok || id.Name != "Experiment" {
		if sel, ok := cl.Type.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Experiment" {
			return ""
		}
	}
	for _, el := range cl.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || key.Name != "ID" {
			continue
		}
		lit, ok := kv.Value.(*ast.BasicLit)
		if !ok {
			continue
		}
		return strings.Trim(lit.Value, `"`)
	}
	return ""
}

// experimentHasRun reports whether the literal sets a non-nil Run
// field — the servability requirement for registered experiments.
func experimentHasRun(cl *ast.CompositeLit) bool {
	for _, el := range cl.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Run" {
			if v, ok := kv.Value.(*ast.Ident); ok && v.Name == "nil" {
				return false
			}
			return true
		}
	}
	return false
}

// findExperimentsDoc walks from dir up to the module root looking for
// EXPERIMENTS.md, so fixtures can carry their own copy.
func findExperimentsDoc(dir, root string) (string, string, error) {
	for d := dir; ; d = filepath.Dir(d) {
		path := filepath.Join(d, "EXPERIMENTS.md")
		if data, err := os.ReadFile(path); err == nil {
			return path, string(data), nil
		}
		if d == root || filepath.Dir(d) == d {
			return "", "", fmt.Errorf("lint: no EXPERIMENTS.md above %s", dir)
		}
	}
}

// docMentions reports whether the documentation names the experiment ID
// in any humanized form.
func docMentions(doc, id string) bool {
	for _, form := range idForms(id) {
		re := regexp.MustCompile(`(?i)\b` + regexp.QuoteMeta(form) + `\b`)
		if re.MatchString(doc) {
			return true
		}
	}
	return false
}

// idForms expands an experiment ID into the spellings accepted in docs.
func idForms(id string) []string {
	forms := []string{id}
	add := func(prefix string, aliases ...string) bool {
		num, err := strconv.Atoi(strings.TrimPrefix(id, prefix))
		if err != nil || !strings.HasPrefix(id, prefix) {
			return false
		}
		for _, a := range aliases {
			forms = append(forms, fmt.Sprintf("%s %d", a, num))
		}
		if r := roman(num); r != "" {
			for _, a := range aliases {
				forms = append(forms, a+" "+r)
			}
		}
		return true
	}
	if !add("fig", "fig", "figure", "fig.") {
		add("table", "table")
	}
	return forms
}

// roman renders 1..30 as a roman numeral (enough for paper tables).
func roman(n int) string {
	if n <= 0 || n > 30 {
		return ""
	}
	tens := []string{"", "x", "xx", "xxx"}
	ones := []string{"", "i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix"}
	return tens[n/10] + ones[n%10]
}
