package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// UnitSafetyAnalyzer enforces the internal/units discipline on top of
// what the compiler already guarantees:
//
//   - no unit-to-unit conversions (units.GBps(c) where c is units.Cycles
//     compiles, but launders a latency into a bandwidth; the sanctioned
//     boundary crossing is an explicit float64(...) conversion),
//   - no same-unit multiplication or division between non-constant
//     operands (Cycles*Cycles is dimensionally squared, Cycles/Cycles a
//     dimensionless ratio — both still typed Cycles),
//   - no mixed-unit arithmetic and no bare float64 values assigned to
//     unit-typed variables or fields (the compiler rejects these too,
//     but the analyzer names them precisely even in partially broken
//     code).
func UnitSafetyAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "unitsafety",
		Doc:  "flag unit laundering, squared units and bare-float64 unit assignments",
		Run:  perPackage(runUnitSafety),
	}
}

// unitTypeName returns the named unit type of t ("Cycles", "GBps", ...)
// when t is declared in an internal/units package, and "" otherwise.
func unitTypeName(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), "internal/units") {
		return ""
	}
	return obj.Name()
}

func runUnitSafety(p *Package) []Diagnostic {
	var diags []Diagnostic
	typeOf := func(e ast.Expr) (types.Type, bool) {
		tv, ok := p.Info.Types[e]
		if !ok || tv.Type == nil {
			return nil, false
		}
		return tv.Type, true
	}
	isConst := func(e ast.Expr) bool {
		tv, ok := p.Info.Types[e]
		return ok && tv.Value != nil
	}
	p.walkFiles(func(file *ast.File, n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// Unit-to-unit conversion: the callee is a type, the target
			// and argument are distinct unit types.
			if len(n.Args) != 1 {
				return true
			}
			tv, ok := p.Info.Types[n.Fun]
			if !ok || !tv.IsType() {
				return true
			}
			dst := unitTypeName(tv.Type)
			if dst == "" {
				return true
			}
			argT, ok := typeOf(n.Args[0])
			if !ok {
				return true
			}
			src := unitTypeName(argT)
			if src != "" && src != dst {
				diags = append(diags, p.diag(n.Pos(), "unitsafety",
					"conversion %s(%s) launders one unit into another; cross unit boundaries with an explicit float64(...) conversion",
					dst, src))
			}
		case *ast.BinaryExpr:
			lt, lok := typeOf(n.X)
			rt, rok := typeOf(n.Y)
			if !lok || !rok {
				return true
			}
			lu, ru := unitTypeName(lt), unitTypeName(rt)
			if lu == "" && ru == "" {
				return true
			}
			// Untyped and typed constants scale units legitimately
			// (e.g. 0.7 * smRead); only flag variable-by-variable ops.
			if isConst(n.X) || isConst(n.Y) {
				return true
			}
			switch {
			case n.Op == token.MUL && lu != "" && lu == ru:
				diags = append(diags, p.diag(n.Pos(), "unitsafety",
					"%s * %s is a squared unit still typed %s; use Scale or convert through float64", lu, ru, lu))
			case n.Op == token.QUO && lu != "" && lu == ru:
				diags = append(diags, p.diag(n.Pos(), "unitsafety",
					"%s / %s is a dimensionless ratio still typed %s; convert operands through float64", lu, ru, lu))
			case lu != ru && isArithOrCompare(n.Op):
				diags = append(diags, p.diag(n.Pos(), "unitsafety",
					"mixed-unit operation %s %s %s; convert one side explicitly", unitOrType(lu, lt), n.Op, unitOrType(ru, rt)))
			}
		case *ast.AssignStmt:
			if n.Tok != token.ASSIGN {
				return true
			}
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				lt, lok := typeOf(lhs)
				rt, rok := typeOf(n.Rhs[i])
				if !lok || !rok {
					continue
				}
				if u := unitTypeName(lt); u != "" && isBareFloat64(rt) && !isConst(n.Rhs[i]) {
					diags = append(diags, p.diag(n.Rhs[i].Pos(), "unitsafety",
						"bare float64 assigned to %s; wrap the value in %s(...) at the boundary", u, u))
				}
			}
		case *ast.CompositeLit:
			lt, ok := typeOf(n)
			if !ok {
				return true
			}
			st, ok := lt.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for _, el := range n.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				ft := fieldType(st, key.Name)
				if ft == nil {
					continue
				}
				rt, rok := typeOf(kv.Value)
				if !rok {
					continue
				}
				if u := unitTypeName(ft); u != "" && isBareFloat64(rt) && !isConst(kv.Value) {
					diags = append(diags, p.diag(kv.Value.Pos(), "unitsafety",
						"bare float64 assigned to field %s of unit type %s; wrap the value in %s(...)", key.Name, u, u))
				}
			}
		}
		return true
	})
	return diags
}

// isArithOrCompare reports whether op combines two numeric operands in a
// way where mixed units are meaningless.
func isArithOrCompare(op token.Token) bool {
	switch op {
	case token.ADD, token.SUB, token.MUL, token.QUO,
		token.LSS, token.LEQ, token.GTR, token.GEQ:
		return true
	}
	return false
}

// isBareFloat64 reports whether t is the predeclared float64.
func isBareFloat64(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.Float64
}

// unitOrType renders a unit name, falling back to the full type.
func unitOrType(unit string, t types.Type) string {
	if unit != "" {
		return unit
	}
	return t.String()
}

// fieldType finds a struct field's type by name.
func fieldType(st *types.Struct, name string) types.Type {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return st.Field(i).Type()
		}
	}
	return nil
}
