package lint

import (
	"go/ast"
	"strings"
)

// SeedFlowAnalyzer enforces that all entropy in the model provably flows
// from the injected seed: no draws from the process-global math/rand
// source anywhere, and no wall-clock reads (time.Now, time.Since) or
// environment reads (os.Getenv and friends) inside internal non-cmd
// packages. Command packages may read the clock for report timestamps
// and the environment for flags-by-env; the model itself must not —
// an environment variable is just as much an unrecorded input as a
// clock read, and both make a "same config, same seed" run
// irreproducible.
//
// These checks lived inside the determinism analyzer in noclint v1;
// they are split out so //lint:ignore directives can distinguish
// "entropy source" findings from "scheduling/order" findings, and so
// the determinism analyzer stays focused on the latter.
func SeedFlowAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "seedflow",
		Doc:  "flag global math/rand draws, wall-clock reads, and env reads that bypass the injected seed",
		Run:  perPackage(runSeedFlow),
	}
}

// envFuncs are the os package functions that read the process
// environment.
var envFuncs = map[string]bool{
	"Getenv":    true,
	"LookupEnv": true,
	"Environ":   true,
}

func runSeedFlow(p *Package) []Diagnostic {
	internal := strings.Contains(p.ImportPath+"/", "/internal/")
	inCmd := strings.Contains(p.ImportPath+"/", "/cmd/")
	var diags []Diagnostic
	p.walkFiles(func(file *ast.File, n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch p.packagePathOf(file, sel) {
		case "math/rand":
			if !randConstructors[sel.Sel.Name] {
				diags = append(diags, p.diag(call.Pos(), "seedflow",
					"rand.%s draws from the process-global source; route randomness through a seeded *rand.Rand",
					sel.Sel.Name))
			}
		case "time":
			if clockFuncs[sel.Sel.Name] && internal && !inCmd {
				diags = append(diags, p.diag(call.Pos(), "seedflow",
					"time.%s reads the wall clock inside the model; pass timestamps in from the caller",
					sel.Sel.Name))
			}
		case "os":
			if envFuncs[sel.Sel.Name] && internal && !inCmd {
				diags = append(diags, p.diag(call.Pos(), "seedflow",
					"os.%s reads the environment inside the model; environment state is an unrecorded input — plumb it through the config instead",
					sel.Sel.Name))
			}
		}
		return true
	})
	return diags
}
