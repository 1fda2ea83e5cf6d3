package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// AtomicMixAnalyzer flags struct fields that are accessed both through
// sync/atomic calls (atomic.AddInt64(&s.f, 1)) and by plain load/store
// (s.f++, v := s.f) anywhere in the program. Mixing the two is the
// classic observability-layer footgun: the plain access races with the
// atomic one, and on weakly ordered hardware a torn or stale read
// silently corrupts a counter the report then treats as ground truth.
// Fields of the atomic wrapper types (atomic.Int64 etc.) cannot be
// accessed plainly and need no check — which is exactly why internal/obs
// uses them.
//
// The analysis is cross-package: field identity is keyed by declaration
// position (one shared FileSet positions every package of a Program), so
// an exported field mutated atomically in its home package and read
// plainly from a neighbour is still caught.
func AtomicMixAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "atomicmix",
		Doc:  "flag struct fields accessed both via sync/atomic and by plain load/store",
		Run:  runAtomicMix,
	}
}

// atomicFuncs are the sync/atomic package-level functions whose first
// argument addresses the word they operate on.
func isAtomicAccessor(name string) bool {
	for _, prefix := range []string{"Add", "Load", "Store", "Swap", "CompareAndSwap", "And", "Or"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

func runAtomicMix(prog *Program) []Diagnostic {
	// First pass: find fields passed by address to sync/atomic accessors.
	// Keyed by the field's declaration position, which is stable across
	// the Program's shared FileSet; the set of selector nodes consumed by
	// atomic calls is remembered so the second pass skips them.
	atomicFields := map[string]string{} // decl-position key -> display name
	inAtomicCall := map[*ast.SelectorExpr]bool{}
	for _, p := range prog.Packages {
		p.walkFiles(func(file *ast.File, node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || p.packagePathOf(file, sel) != "sync/atomic" || !isAtomicAccessor(sel.Sel.Name) {
				return true
			}
			if len(call.Args) == 0 {
				return true
			}
			un, ok := call.Args[0].(*ast.UnaryExpr)
			if !ok || un.Op.String() != "&" {
				return true
			}
			fsel, ok := un.X.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if fv, ok := fieldObject(p, fsel); ok {
				atomicFields[fieldKey(p, fv)] = fv.Name()
				inAtomicCall[fsel] = true
			}
			return true
		})
	}
	if len(atomicFields) == 0 {
		return nil
	}

	// Second pass: every other selector resolving to one of those fields
	// is a plain access.
	var diags []Diagnostic
	for _, p := range prog.Packages {
		p.walkFiles(func(file *ast.File, node ast.Node) bool {
			fsel, ok := node.(*ast.SelectorExpr)
			if !ok || inAtomicCall[fsel] {
				return true
			}
			fv, ok := fieldObject(p, fsel)
			if !ok {
				return true
			}
			if name, mixed := atomicFields[fieldKey(p, fv)]; mixed {
				diags = append(diags, p.diag(fsel.Pos(), "atomicmix",
					"field %s is accessed with sync/atomic elsewhere; this plain access races with it — use the atomic accessors (or an atomic.Int64 field) everywhere", name))
			}
			return true
		})
	}
	return diags
}

// fieldObject resolves a selector to the struct field it names.
func fieldObject(p *Package, sel *ast.SelectorExpr) (*types.Var, bool) {
	obj, ok := p.Info.Uses[sel.Sel]
	if !ok {
		return nil, false
	}
	v, ok := obj.(*types.Var)
	if !ok || !v.IsField() {
		return nil, false
	}
	return v, true
}

// fieldKey derives a cross-checker-stable identity for a field: its
// declaration position. Packages loaded separately re-typecheck their
// imports, so *types.Var identity does not survive package boundaries,
// but the shared FileSet's file:line:col of the declaration does.
func fieldKey(p *Package, v *types.Var) string {
	pos := p.Fset.Position(v.Pos())
	return fmt.Sprintf("%s:%d:%d", pos.Filename, pos.Line, pos.Column)
}
