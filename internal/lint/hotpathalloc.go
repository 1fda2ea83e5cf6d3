package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathAllocAnalyzer flags allocation-causing constructs in any
// function transitively reachable from a simulation hot root (a
// parameterless Step method, an Inject/Pop method, or a
// //lint:hotpath-annotated function; see Program.HotRoots). The
// AllocsPerRun regression tests sample this property pointwise at a few
// configurations; the analyzer enforces it structurally over every hot
// function at once.
//
// Flagged constructs: append growth, make, new, map/slice composite
// literals, closure (func) literals, fmt.* calls, the standard-library
// growth calls in stdGrowthFuncs, and interface boxing of
// non-pointer-shaped values at call sites. Struct literals are NOT
// flagged: creating a model object (&Packet{...}) is the one intended
// allocation of an admission path, while the constructs above are the
// incidental ones that creep in.
//
// Two idioms are exempt:
//
//   - Scratch reset: appends (and slices.Grow/Insert calls) on a slice
//     the same function resets with `x = x[:0]` are amortized-zero (the
//     Mesh.Step move scratch).
//   - Validation exit: constructs inside an if/case body whose last
//     statement is a return, in a function whose final result is an
//     error, are input-validation exits (fmt.Errorf and friends), not
//     steady-state work. This can mask an allocation on a non-error
//     early return — a deliberate conservatism trade documented in
//     DESIGN.md.
func HotPathAllocAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "hotpathalloc",
		Doc:  "flag allocation-causing constructs reachable from Step/Inject/Pop or //lint:hotpath roots",
		Run:  func(prog *Program) []Diagnostic { return prog.hotDiags(hotFuncDiags) },
	}
}

// hotFuncDiags flags the allocating constructs of one hot function.
func hotFuncDiags(n *cgNode, root string) []Diagnostic {
	p, body := n.pkg, n.decl.Body
	resets := scratchResets(body)
	exits := validationExits(n.decl)
	exempt := func(pos token.Pos) bool {
		for _, r := range exits {
			if r[0] <= pos && pos < r[1] {
				return true
			}
		}
		return false
	}
	var diags []Diagnostic
	ast.Inspect(body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.FuncLit:
			if !exempt(x.Pos()) {
				diags = append(diags, p.diag(x.Pos(), "hotpathalloc",
					"closure literal allocates in a hot path (reachable from %s); hoist it out of the per-cycle flow", root))
			}
			return true
		case *ast.CompositeLit:
			if exempt(x.Pos()) {
				return true
			}
			if tv, ok := p.Info.Types[x]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					diags = append(diags, p.diag(x.Pos(), "hotpathalloc",
						"map literal allocates in a hot path (reachable from %s); preallocate it at construction time", root))
				case *types.Slice:
					diags = append(diags, p.diag(x.Pos(), "hotpathalloc",
						"slice literal allocates in a hot path (reachable from %s); preallocate it at construction time", root))
				}
			}
			return true
		case *ast.CallExpr:
			diags = append(diags, hotCallDiags(p, x, root, resets, exempt)...)
			return true
		}
		return true
	})
	return diags
}

// stdGrowthFuncs are the standard-library calls that allocate or grow a
// backing store, keyed by types.Func full name. The value marks the ones
// that grow their first argument in place, which take the scratch-reset
// exemption like append; a clone or concatenation allocates a fresh
// array whatever its inputs.
var stdGrowthFuncs = map[string]bool{
	"slices.Grow":             true,
	"slices.Insert":           true,
	"slices.Clone":            false,
	"slices.Concat":           false,
	"maps.Clone":              false,
	"(*strings.Builder).Grow": false,
	"(*bytes.Buffer).Grow":    false,
}

// hotCallDiags classifies one call expression in a hot function.
func hotCallDiags(p *Package, call *ast.CallExpr, root string, resets map[string]bool, exempt func(token.Pos) bool) []Diagnostic {
	if exempt(call.Pos()) {
		return nil
	}
	var diags []Diagnostic
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch fun.Name {
		case "append":
			if len(call.Args) > 0 && resets[types.ExprString(call.Args[0])] {
				return nil // scratch-reset idiom: amortized-zero
			}
			diags = append(diags, p.diag(call.Pos(), "hotpathalloc",
				"append may grow its backing array in a hot path (reachable from %s); reuse a preallocated buffer or document the amortization with //lint:ignore", root))
			return diags
		case "make", "new":
			diags = append(diags, p.diag(call.Pos(), "hotpathalloc",
				"%s allocates in a hot path (reachable from %s); hoist the allocation to construction time", fun.Name, root))
			return diags
		}
	case *ast.SelectorExpr:
		if fn, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			if inPlace, grows := stdGrowthFuncs[fn.FullName()]; grows {
				if inPlace && len(call.Args) > 0 && resets[types.ExprString(call.Args[0])] {
					return nil // scratch-reset idiom: amortized-zero
				}
				return []Diagnostic{p.diag(call.Pos(), "hotpathalloc",
					"%s may allocate or grow a backing array in a hot path (reachable from %s); reuse a preallocated buffer or document the amortization with //lint:ignore", fn.FullName(), root)}
			}
		}
		if file := fileOf(p, call.Pos()); file != nil && p.packagePathOf(file, fun) == "fmt" {
			diags = append(diags, p.diag(call.Pos(), "hotpathalloc",
				"fmt.%s formats (and allocates) in a hot path (reachable from %s); move formatting off the per-cycle flow", fun.Sel.Name, root))
			return diags
		}
	}
	diags = append(diags, boxingDiags(p, call, root)...)
	return diags
}

// boxingDiags flags call arguments whose concrete non-pointer-shaped
// values are converted to interface parameters — each such conversion
// heap-allocates the boxed copy. Pointer-shaped values (pointers, maps,
// channels, funcs, unsafe pointers) fit in the interface word and are
// exempt; nil and untyped nil arguments never box.
func boxingDiags(p *Package, call *ast.CallExpr, root string) []Diagnostic {
	tv, ok := p.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	if tv.IsType() {
		// Conversion: T(x) boxes when T is an interface and x is not.
		if len(call.Args) == 1 && types.IsInterface(tv.Type) && boxes(p, call.Args[0]) {
			return []Diagnostic{p.diag(call.Pos(), "hotpathalloc",
				"conversion to interface boxes a value in a hot path (reachable from %s)", root)}
		}
		return nil
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	var diags []Diagnostic
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // a ...spread passes the slice through unboxed
			}
			sl, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = sl.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if types.IsInterface(pt) && boxes(p, arg) {
			diags = append(diags, p.diag(arg.Pos(), "hotpathalloc",
				"passing a concrete value to an interface parameter boxes it in a hot path (reachable from %s)", root))
		}
	}
	return diags
}

// boxes reports whether converting the argument to an interface
// allocates: its static type is concrete and not pointer-shaped.
func boxes(p *Package, arg ast.Expr) bool {
	tv, ok := p.Info.Types[arg]
	if !ok || tv.Type == nil || tv.IsNil() {
		return false
	}
	t := tv.Type
	if types.IsInterface(t) {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return false
	case *types.Basic:
		if t.Underlying().(*types.Basic).Kind() == types.UntypedNil {
			return false
		}
	}
	return true
}

// scratchResets collects the rendered expressions a function resets to
// zero length (`x = x[:0]`); appends to them are amortized scratch.
func scratchResets(body *ast.BlockStmt) map[string]bool {
	resets := map[string]bool{}
	ast.Inspect(body, func(node ast.Node) bool {
		as, ok := node.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		sl, ok := as.Rhs[0].(*ast.SliceExpr)
		if !ok || sl.Low != nil || sl.Max != nil {
			return true
		}
		high, ok := sl.High.(*ast.BasicLit)
		if !ok || high.Value != "0" {
			return true
		}
		lhs := types.ExprString(as.Lhs[0])
		if lhs == types.ExprString(sl.X) {
			resets[lhs] = true
		}
		return true
	})
	return resets
}

// validationExits returns the position ranges of if/case bodies whose
// last statement is a return, in functions whose final result is an
// error — the shape of input-validation exits.
func validationExits(fn *ast.FuncDecl) [][2]token.Pos {
	if !fnReturnsError(fn) {
		return nil
	}
	var exits [][2]token.Pos
	record := func(list []ast.Stmt, pos, end token.Pos) {
		if len(list) == 0 {
			return
		}
		if _, ok := list[len(list)-1].(*ast.ReturnStmt); ok {
			exits = append(exits, [2]token.Pos{pos, end})
		}
	}
	ast.Inspect(fn.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.IfStmt:
			record(x.Body.List, x.Body.Pos(), x.Body.End())
		case *ast.CaseClause:
			record(x.Body, x.Pos(), x.End())
		}
		return true
	})
	return exits
}

// fnReturnsError reports whether the function's last result is an
// error (errcheck.go's returnsError answers the same question for call
// expressions).
func fnReturnsError(fn *ast.FuncDecl) bool {
	res := fn.Type.Results
	if res == nil || len(res.List) == 0 {
		return false
	}
	last := res.List[len(res.List)-1].Type
	id, ok := last.(*ast.Ident)
	return ok && id.Name == "error"
}

// fileOf finds the parsed file containing a position.
func fileOf(p *Package, pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}
