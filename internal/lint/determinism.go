package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeterminismAnalyzer flags scheduling- and order-dependent constructs
// that would make simulation results irreproducible, in two passes.
// (Entropy sources — global math/rand, wall-clock and environment
// reads — are the seedflow analyzer's.)
//
// The per-package pass flags raw go statements inside internal
// packages: concurrency belongs in internal/parallel, whose
// index-addressed worker pool keeps reduction order independent of
// goroutine scheduling. Inside the obs and simcheck packages - where
// instrument state and audit reports leave the process - it also flags
// every range over a map except the collect-then-sort idiom (append
// keys to a slice the function hands to sort.*). Metrics, traces and
// violation reports promise to be byte-identical run to run, and the
// orderedoutput analyzer's heuristics (writer fed, returned slice
// built) are too narrow to guard a promise that strong.
//
// The reachability pass flags the same two constructs in any function
// transitively reachable from a simulation hot root, even in a helper
// package the per-package pass waves through (a cmd/ package, or a
// non-obs package whose map walk feeds a simulator decision). It
// subtracts the per-package pass's coverage rather than duplicating
// it: go statements only where goInModel is false, map ranges only
// outside packages named obs or simcheck. Collect-then-sort stays
// exempt there too.
func DeterminismAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "determinism",
		Doc:  "flag raw goroutines and map-order walks inside the model, in emission paths, or reachable from simulation entry points",
		Run: func(prog *Program) []Diagnostic {
			return append(perPackage(runDeterminism)(prog), prog.hotDiags(reachDeterminismDiags)...)
		},
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
	var diags []Diagnostic
	if goInModel(p) {
		p.walkFiles(func(_ *ast.File, n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				diags = append(diags, p.diag(g.Pos(), "determinism",
					"go statement spawns a raw goroutine inside the model; shard through parallel.Map so results stay index-addressed and scheduling-independent"))
			}
			return true
		})
	}
	if msg := emissionMapOrderMsg(p); msg != "" {
		diags = append(diags, emissionMapOrderDiags(p, msg)...)
	}
	return diags
}

// emissionMapOrderMsg returns the map-order message for a package whose
// output promises byte-identical runs (obs, simcheck), and "" for any
// other package.
func emissionMapOrderMsg(p *Package) string {
	switch {
	case packageNamed(p, "obs"):
		return obsMapOrderMsg
	case packageNamed(p, "simcheck"):
		return simcheckMapOrderMsg
	}
	return ""
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
				if unorderedMapRange(p, rng, sorted) {
					diags = append(diags, p.diag(rng.Pos(), "determinism", msg))
				}
				return true
			})
			return true
		})
	}
	return diags
}

// goInModel reports whether the per-package pass flags go statements
// in p: internal packages outside cmd/ and internal/parallel, the one
// sanctioned home for goroutines (its runner is what makes them
// deterministic for everyone else).
func goInModel(p *Package) bool {
	path := p.ImportPath + "/"
	return strings.Contains(path, "/internal/") && !strings.Contains(path, "/cmd/") &&
		!strings.HasSuffix(p.ImportPath, "internal/parallel")
}

// reachDeterminismDiags flags the scheduling- and order-dependent
// constructs of one hot function that the per-package pass leaves
// alone.
func reachDeterminismDiags(p *Package, fn *ast.FuncDecl, root string) []Diagnostic {
	goCovered := goInModel(p)
	perPkgMapRule := emissionMapOrderMsg(p) != ""
	sorted := sortedIdents(p, fn.Body)
	var diags []Diagnostic
	ast.Inspect(fn.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.GoStmt:
			if !goCovered {
				diags = append(diags, p.diag(x.Pos(), "determinism",
					"go statement spawns a raw goroutine on a simulation path (reachable from %s); results become scheduling-dependent — shard through parallel.Map", root))
			}
		case *ast.RangeStmt:
			if !perPkgMapRule && unorderedMapRange(p, x, sorted) {
				diags = append(diags, p.diag(x.Pos(), "determinism",
					"range over map on a simulation path (reachable from %s) iterates in nondeterministic order; collect the keys, sort them, and iterate the sorted slice", root))
			}
		}
		return true
	})
	return diags
}

// unorderedMapRange reports whether rng walks a map in iteration order:
// its operand is a map and the loop is not the collect-then-sort idiom.
func unorderedMapRange(p *Package, rng *ast.RangeStmt, sorted map[string]bool) bool {
	tv, ok := p.Info.Types[rng.X]
	if !ok || tv.Type == nil {
		return false
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return false
	}
	return !isCollectForSort(rng, sorted)
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
