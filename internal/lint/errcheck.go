package lint

import (
	"go/ast"
	"go/types"
)

// ErrCheckAnalyzer flags calls whose error result is silently dropped:
// an expression statement, defer or go statement invoking a function
// whose last result is error. Writes that structurally cannot fail are
// allowlisted: fmt.Print* (stdout), and fmt.Fprint* into a
// strings.Builder, bytes.Buffer, os.Stdout or os.Stderr. Deliberate
// discards must be spelled `_ = f()` or carry a //lint:ignore comment,
// keeping every dropped error auditable.
func ErrCheckAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "errcheck",
		Doc:  "flag silently dropped error returns",
		Run:  perPackage(runErrCheck),
	}
}

func runErrCheck(p *Package) []Diagnostic {
	var diags []Diagnostic
	check := func(file *ast.File, call *ast.CallExpr, how string) {
		if call == nil || !returnsError(p, call) || allowlistedCall(p, file, call) {
			return
		}
		diags = append(diags, p.diag(call.Pos(), "errcheck",
			"%s drops the error returned by %s; handle it or discard explicitly with _ =", how, callName(call)))
	}
	p.walkFiles(func(file *ast.File, n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				check(file, call, "statement")
			}
		case *ast.DeferStmt:
			check(file, n.Call, "defer")
		case *ast.GoStmt:
			check(file, n.Call, "go statement")
		}
		return true
	})
	return diags
}

// returnsError reports whether the call's last result is error.
func returnsError(p *Package, call *ast.CallExpr) bool {
	tv, ok := p.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// allowlistedCall recognizes calls whose error can never meaningfully
// fire.
func allowlistedCall(p *Package, file *ast.File, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if p.packagePathOf(file, sel) == "fmt" {
		switch sel.Sel.Name {
		case "Print", "Printf", "Println":
			return true
		case "Fprint", "Fprintf", "Fprintln":
			return len(call.Args) > 0 && infallibleWriter(p, call.Args[0])
		}
		return false
	}
	// Methods on strings.Builder / bytes.Buffer (WriteString et al.)
	// document that they always return a nil error.
	if tv, ok := p.Info.Types[sel.X]; ok && tv.Type != nil {
		if isInfallibleSinkType(tv.Type) {
			return true
		}
	}
	return false
}

// infallibleWriter reports whether the writer expression is a
// strings.Builder, bytes.Buffer, os.Stdout or os.Stderr.
func infallibleWriter(p *Package, w ast.Expr) bool {
	if sel, ok := w.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == "os" {
			if sel.Sel.Name == "Stdout" || sel.Sel.Name == "Stderr" {
				return true
			}
		}
	}
	tv, ok := p.Info.Types[w]
	if !ok || tv.Type == nil {
		return false
	}
	return isInfallibleSinkType(tv.Type)
}

// isInfallibleSinkType matches types whose error-returning methods
// document that the error is always nil: strings.Builder, bytes.Buffer
// and math/rand.Rand (its Read never fails), as values or pointers.
func isInfallibleSinkType(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case "strings.Builder", "bytes.Buffer", "math/rand.Rand":
		return true
	}
	return false
}

// callName renders a short name for the called function.
func callName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return "(...)." + fun.Sel.Name
	}
	return "call"
}
