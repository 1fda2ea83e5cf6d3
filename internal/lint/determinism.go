package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeterminismAnalyzer flags scheduling- and order-dependent constructs
// that would make simulation results irreproducible: raw go statements
// inside internal packages, and unordered map iteration in obs emission
// paths. Concurrency belongs in internal/parallel, whose index-addressed
// worker pool keeps reduction order independent of goroutine
// scheduling; a bare goroutine anywhere else in the model invites
// scheduling-order-dependent results. (Entropy-source checks — global
// math/rand, wall-clock and environment reads — moved to the seedflow
// analyzer in noclint v2; the interprocedural half of this analyzer
// lives in DeterminismReachAnalyzer.)
//
// Inside the obs package - the one place instrument state leaves the
// process - the analyzer additionally flags every range over a map
// except the collect-then-sort idiom (append keys to a slice the
// function hands to sort.*). Metrics and trace files promise to be
// byte-identical run to run, and the orderedoutput analyzer's
// heuristics (writer fed, returned slice built) are too narrow to
// guard a promise that strong: any map-order walk in an emission path
// is a bug there even when its output looks commutative today.
func DeterminismAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "determinism",
		Doc:  "flag raw goroutines inside the model and map-order walks in obs emission paths",
		Run:  runDeterminism,
	}
}

// randConstructors are the math/rand package-level names that build or
// feed an explicit source rather than drawing from the global one
// (shared with the seedflow analyzer).
var randConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// clockFuncs are the time package functions that read the wall clock
// (shared with the seedflow analyzer).
var clockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
}

func runDeterminism(p *Package) []Diagnostic {
	internal := strings.Contains(p.ImportPath+"/", "/internal/")
	inCmd := strings.Contains(p.ImportPath+"/", "/cmd/")
	// internal/parallel is the one sanctioned home for goroutines: its
	// runner is what makes them deterministic for everyone else.
	inParallel := strings.HasSuffix(p.ImportPath, "internal/parallel")
	var diags []Diagnostic
	p.walkFiles(func(file *ast.File, n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			if internal && !inCmd && !inParallel {
				diags = append(diags, p.diag(g.Pos(), "determinism",
					"go statement spawns a raw goroutine inside the model; shard through parallel.Map so results stay index-addressed and scheduling-independent"))
			}
			return true
		}
		return true
	})
	if packageNamed(p, "obs") {
		diags = append(diags, emissionMapOrderDiags(p, obsMapOrderMsg)...)
	}
	if packageNamed(p, "simcheck") {
		diags = append(diags, emissionMapOrderDiags(p, simcheckMapOrderMsg)...)
	}
	return diags
}

// Emission-path map-order messages. obs promises byte-identical metrics
// and traces; simcheck promises byte-identical violation reports and
// fuzz reproducers (a counterexample that renders differently run to
// run cannot be diffed against a ledgered one).
const (
	obsMapOrderMsg      = "range over map in an obs emission path iterates in nondeterministic order; collect the keys, sort them, and iterate the sorted slice so metrics and traces stay byte-identical"
	simcheckMapOrderMsg = "range over map in a simcheck audit path iterates in nondeterministic order; collect the keys, sort them, and iterate the sorted slice so violation reports and reproducers stay byte-identical"
)

// packageNamed reports whether the package clause names the package
// name (fixtures live under synthetic import paths, so the clause - not
// the directory - is the identity that matters).
func packageNamed(p *Package, name string) bool {
	for _, f := range p.Files {
		if f.Name != nil && f.Name.Name == name {
			return true
		}
	}
	return false
}

// emissionMapOrderDiags flags raw map iteration in a package whose
// output promises byte-identical runs (obs, simcheck). The one
// sanctioned shape is collect-then-sort: a loop whose whole body
// appends the key to a slice the function passes to a sort.* call.
func emissionMapOrderDiags(p *Package, msg string) []Diagnostic {
	var diags []Diagnostic
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			sorted := sortedIdents(p, fn.Body)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := p.Info.Types[rng.X]
				if !ok || tv.Type == nil {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				if isCollectForSort(rng, sorted) {
					return true
				}
				diags = append(diags, p.diag(rng.Pos(), "determinism", msg))
				return true
			})
			return true
		})
	}
	return diags
}

// isCollectForSort recognizes the exempt idiom: the range body is the
// single statement `xs = append(xs, k)` where xs reaches a sort.* call
// in the same function.
func isCollectForSort(rng *ast.RangeStmt, sorted map[string]bool) bool {
	if len(rng.Body.List) != 1 {
		return false
	}
	as, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	fun, ok := call.Fun.(*ast.Ident)
	if !ok || fun.Name != "append" {
		return false
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	return ok && sorted[id.Name]
}

// packagePathOf resolves the package a selector's qualifier refers to,
// returning "" when it is not a package reference. Type information is
// used when available, falling back to matching the file's imports so
// the analyzer still works on fixtures that do not type-check.
func (p *Package) packagePathOf(file *ast.File, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if obj, ok := p.Info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path()
		}
		return ""
	}
	// Fallback: an unresolved identifier matching an import's name.
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == id.Name {
			return path
		}
	}
	return ""
}
