package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeterminismReachAnalyzer is the determinism analyzer's interprocedural
// half: raw go statements and unordered map iteration are flagged in any
// function transitively reachable from a simulation hot root, even when
// the function lives in a helper package the per-package pass would wave
// through (a cmd/ package, or a non-obs package whose map walk feeds a
// simulator decision). It reports under the same "determinism" analyzer
// name, so one //lint:ignore vocabulary covers both halves.
//
// Overlap with the per-package pass is subtracted, not duplicated:
//
//   - go statements are only flagged here where the per-package rule is
//     silent (cmd/ packages, internal/parallel, non-internal packages);
//     inside the model the per-package rule already fires.
//   - map ranges in packages named obs or simcheck are left to the
//     per-package emission rules.
//
// The collect-then-sort idiom (append keys to a slice handed to sort.*)
// stays exempt here exactly as in the obs rule.
func DeterminismReachAnalyzer() *ProgramAnalyzer {
	return &ProgramAnalyzer{
		Name: "determinism",
		Doc:  "transitively flag raw goroutines and unordered map iteration reachable from simulation entry points",
		Run:  runDeterminismReach,
	}
}

func runDeterminismReach(prog *Program) []Diagnostic {
	var diags []Diagnostic
	reach := prog.Reachable(prog.HotRoots())
	for _, id := range sortedKeys(reach) {
		n := prog.nodes[id]
		diags = append(diags, reachDeterminismDiags(n, shortID(reach[id]))...)
	}
	return diags
}

// reachDeterminismDiags flags the scheduling- and order-dependent
// constructs of one hot function.
func reachDeterminismDiags(n *cgNode, root string) []Diagnostic {
	p := n.pkg
	internal := strings.Contains(p.ImportPath+"/", "/internal/")
	inCmd := strings.Contains(p.ImportPath+"/", "/cmd/")
	inParallel := strings.HasSuffix(p.ImportPath, "internal/parallel")
	// The per-package determinism pass already flags go statements in
	// internal model packages; only the gaps need the transitive rule.
	goCovered := internal && !inCmd && !inParallel
	// obs and simcheck get their own per-package map-order rules; the
	// transitive rule stands down there to avoid double-flagging.
	perPkgMapRule := packageNamed(p, "obs") || packageNamed(p, "simcheck")

	sorted := sortedIdents(p, n.decl.Body)
	var diags []Diagnostic
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.GoStmt:
			if !goCovered {
				diags = append(diags, p.diag(x.Pos(), "determinism",
					"go statement spawns a raw goroutine on a simulation path (reachable from %s); results become scheduling-dependent — shard through parallel.Map", root))
			}
		case *ast.RangeStmt:
			if perPkgMapRule {
				return true
			}
			tv, ok := p.Info.Types[x.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if isCollectForSort(x, sorted) {
				return true
			}
			diags = append(diags, p.diag(x.Pos(), "determinism",
				"range over map on a simulation path (reachable from %s) iterates in nondeterministic order; collect the keys, sort them, and iterate the sorted slice", root))
		}
		return true
	})
	return diags
}
