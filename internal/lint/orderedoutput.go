package lint

import (
	"go/ast"
	"go/types"
)

// OrderedOutputAnalyzer flags range statements over maps whose body
// produces externally visible, order-sensitive output: writing to an
// io.Writer (or any Write/Print-style sink), or appending to a slice the
// enclosing function returns. Go randomizes map iteration order, so such
// loops make reports and API results differ run to run; iterate sorted
// keys instead. Loops that only accumulate commutative state (sums,
// maxima) are fine and not flagged, and neither is the collect-then-sort
// idiom: appending to a returned slice is exempt when the function also
// passes that slice to a sort.* function.
func OrderedOutputAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "orderedoutput",
		Doc:  "flag map-order-dependent output (writers fed or returned slices built inside range-over-map)",
		Run:  perPackage(runOrderedOutput),
	}
}

// sinkMethodNames are method names treated as order-sensitive sinks.
var sinkMethodNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Print": true, "Printf": true, "Println": true,
}

// fmtOutputFuncs are fmt package functions that emit formatted output.
var fmtOutputFuncs = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
}

func runOrderedOutput(p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			returned := returnedIdents(fn.Body)
			for name := range sortedIdents(p, fn.Body) {
				delete(returned, name)
			}
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
				if verb := orderSensitiveUse(p, file, rng.Body, returned); verb != "" {
					diags = append(diags, p.diag(rng.Pos(), "orderedoutput",
						"range over map %s in nondeterministic order; iterate sorted keys", verb))
				}
				return true
			})
			return true
		})
	}
	return diags
}

// returnedIdents collects the names of identifiers appearing in the
// function body's return statements.
func returnedIdents(body *ast.BlockStmt) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if id, ok := res.(*ast.Ident); ok {
				out[id.Name] = true
			}
		}
		return true
	})
	return out
}

// sortedIdents collects identifiers the function passes to a sort.*
// call: slices built in map order but sorted before use are
// deterministic.
func sortedIdents(p *Package, body *ast.BlockStmt) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || (pkg.Name != "sort" && pkg.Name != "slices") {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok {
				out[id.Name] = true
			}
		}
		return true
	})
	return out
}

// orderSensitiveUse scans a range body for output-order dependence and
// describes the offending use, or returns "".
func orderSensitiveUse(p *Package, file *ast.File, body *ast.BlockStmt, returned map[string]bool) string {
	verb := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if verb != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if p.packagePathOf(file, sel) == "fmt" && fmtOutputFuncs[sel.Sel.Name] {
				verb = "writes output"
				return false
			}
			// A method call named like a sink on a non-package receiver.
			if p.packagePathOf(file, sel) == "" && sinkMethodNames[sel.Sel.Name] {
				verb = "writes output"
				return false
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				fun, ok := call.Fun.(*ast.Ident)
				if !ok || fun.Name != "append" || i >= len(n.Lhs) {
					continue
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok && returned[id.Name] {
					verb = "appends to the returned slice " + id.Name
					return false
				}
			}
		}
		return true
	})
	return verb
}
