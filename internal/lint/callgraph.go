package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// sortedKeys returns a map's keys in ascending order, so interprocedural
// passes iterate deterministically (the suite obeys its own rules).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// This file gives the suite its interprocedural backbone: a module-local
// call graph over every package loaded into one Program, plus the
// reachability queries the hotpathalloc analyzer and the determinism
// analyzer's reachability pass are built on.
//
// Soundness/conservatism choices (see DESIGN.md "noclint v2"):
//
//   - Nodes are keyed by the types.Func full name ("(*pkg.T).M",
//     "pkg.F"). The Loader type-checks each analyzed package with its
//     own checker instance, so object identity does not survive across
//     packages — the name string does, which is why it is the node key.
//   - Any reference to a module function counts as a call edge, not just
//     direct call expressions. A method value or function value handed
//     to someone else may be invoked by them, so the graph assumes it
//     is ("reference = may-call").
//   - Function literals have no name; their bodies are attributed to the
//     enclosing declared function. A closure built in a hot function is
//     analyzed as part of that function.
//   - Calls through an interface cannot be resolved statically without
//     whole-program type flow, so they fall back to conservative name
//     dispatch: an edge to every module method with the same name. This
//     over-approximates (unrelated same-named methods become reachable)
//     and never under-approximates within the loaded package set.
//   - Calls through plain function-typed values resolve to nothing. The
//     reference that produced the value already created an edge at the
//     point the function was named, so the only escape is a function
//     value that crosses a package boundary as data — accepted and
//     documented.
type Program struct {
	// Packages lists the loaded packages in load order.
	Packages []*Package
	// FullModule marks a Program covering every package of the module.
	// The whole-program staleignore verdict is only sound on a full
	// module load, so CheckProgram consults this flag.
	FullModule bool

	modulePath string
	nodes      map[string]*cgNode
	// methodsByName indexes method nodes for conservative interface
	// dispatch.
	methodsByName map[string][]string
}

// cgNode is one declared function or method of the module.
type cgNode struct {
	id   string
	pkg  *Package
	decl *ast.FuncDecl
	// calls holds resolved module-local callee IDs (including plain
	// references; see "reference = may-call" above).
	calls []string
	// dynCalls holds method names invoked through interfaces.
	dynCalls []string
}

// NewProgram builds the call graph over the given packages.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{
		Packages:      pkgs,
		nodes:         map[string]*cgNode{},
		methodsByName: map[string][]string{},
	}
	if len(pkgs) > 0 {
		prog.modulePath = modulePathOf(pkgs[0])
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				prog.addNode(p, fn)
			}
		}
	}
	return prog
}

// modulePathOf recovers the module path from a package's import path and
// its directory relative to the module root.
func modulePathOf(p *Package) string {
	// ImportPath is modulePath[/subdir]; peel the directory suffix.
	rel := strings.TrimPrefix(p.Dir, p.ModuleRoot)
	rel = strings.Trim(strings.ReplaceAll(rel, "\\", "/"), "/")
	if rel == "" {
		return p.ImportPath
	}
	return strings.TrimSuffix(p.ImportPath, "/"+rel)
}

// addNode registers a declared function and collects its call edges.
func (prog *Program) addNode(p *Package, fn *ast.FuncDecl) {
	id := prog.declID(p, fn)
	n := &cgNode{id: id, pkg: p, decl: fn}
	prog.nodes[id] = n
	if fn.Recv != nil {
		prog.methodsByName[fn.Name.Name] = append(prog.methodsByName[fn.Name.Name], id)
	}
	seen := map[string]bool{}
	dynSeen := map[string]bool{}
	ast.Inspect(fn.Body, func(node ast.Node) bool {
		ident, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := p.Info.Uses[ident]
		if !ok {
			return true
		}
		callee, ok := obj.(*types.Func)
		if !ok {
			return true
		}
		sig, ok := callee.Type().(*types.Signature)
		if ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			// Interface method: conservative dispatch by name.
			if !dynSeen[callee.Name()] {
				dynSeen[callee.Name()] = true
				n.dynCalls = append(n.dynCalls, callee.Name())
			}
			return true
		}
		if callee.Pkg() == nil || !prog.moduleLocal(callee.Pkg().Path()) {
			return true
		}
		// A generic method's instantiation (ring[flit].push) names no
		// declaration; its origin is the declared method.
		cid := callee.Origin().FullName()
		if !seen[cid] {
			seen[cid] = true
			n.calls = append(n.calls, cid)
		}
		return true
	})
}

// moduleLocal reports whether an import path belongs to the module.
func (prog *Program) moduleLocal(path string) bool {
	return path == prog.modulePath || strings.HasPrefix(path, prog.modulePath+"/")
}

// declID derives the node key for a declaration, matching
// types.Func.FullName so cross-package references resolve. When type
// information is missing (broken fixtures) the ID is synthesized from
// the AST in the same shape.
func (prog *Program) declID(p *Package, fn *ast.FuncDecl) string {
	if obj, ok := p.Info.Defs[fn.Name].(*types.Func); ok && obj != nil {
		return obj.FullName()
	}
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return p.ImportPath + "." + fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	star := ""
	if s, ok := recv.(*ast.StarExpr); ok {
		star, recv = "*", s.X
	}
	// Strip type parameters of generic receivers.
	if ix, ok := recv.(*ast.IndexExpr); ok {
		recv = ix.X
	}
	name := "?"
	if id, ok := recv.(*ast.Ident); ok {
		name = id.Name
	}
	return "(" + star + p.ImportPath + "." + name + ")." + fn.Name.Name
}

// hotAnnotation is the doc-comment directive marking a function as a
// hot-path root for the interprocedural analyzers; the rest of the line
// is a mandatory free-text reason, mirroring //lint:ignore.
const hotAnnotation = "lint:hotpath"

// hasHotAnnotation reports whether the declaration's doc comment carries
// a //lint:hotpath directive.
func hasHotAnnotation(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if strings.HasPrefix(text, hotAnnotation) {
			return true
		}
	}
	return false
}

// HotRoots returns the IDs of the simulation hot-path entry points:
//
//   - methods named Step with no parameters and no results (the
//     cycle-driven simulator contract; workload generators' Step(t) that
//     return fresh slices by design are deliberately excluded),
//   - methods named Inject or Pop (packet admission / queue service),
//   - any function or method carrying a //lint:hotpath doc directive.
func (prog *Program) HotRoots() []string {
	var roots []string
	for _, p := range prog.Packages {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				if prog.isHotRoot(fn) {
					roots = append(roots, prog.declID(p, fn))
				}
			}
		}
	}
	return roots
}

// isHotRoot applies the root rules to one declaration.
func (prog *Program) isHotRoot(fn *ast.FuncDecl) bool {
	if hasHotAnnotation(fn) {
		return true
	}
	if fn.Recv == nil {
		return false
	}
	switch fn.Name.Name {
	case "Step":
		noParams := fn.Type.Params == nil || len(fn.Type.Params.List) == 0
		noResults := fn.Type.Results == nil || len(fn.Type.Results.List) == 0
		return noParams && noResults
	case "Inject", "Pop":
		return true
	}
	return false
}

// hotDiags applies check to every function reachable from a hot root,
// in ID order, with the short ID of the root that reaches it.
func (prog *Program) hotDiags(check func(n *cgNode, root string) []Diagnostic) []Diagnostic {
	var diags []Diagnostic
	reach := prog.Reachable(prog.HotRoots())
	for _, id := range sortedKeys(reach) {
		diags = append(diags, check(prog.nodes[id], shortID(reach[id]))...)
	}
	return diags
}

// Reachable walks the graph from the given roots and returns, for every
// reachable node ID, the root it was first reached from (roots map to
// themselves). Dynamic (interface) calls fan out to every module method
// sharing the callee's name. Recursion and cycles terminate because each
// node is visited once.
func (prog *Program) Reachable(roots []string) map[string]string {
	from := map[string]string{}
	var queue []string
	for _, r := range roots {
		if _, ok := prog.nodes[r]; !ok {
			continue
		}
		if _, ok := from[r]; ok {
			continue
		}
		from[r] = r
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		n := prog.nodes[id]
		visit := func(callee string) {
			if _, ok := prog.nodes[callee]; !ok {
				return
			}
			if _, ok := from[callee]; ok {
				return
			}
			from[callee] = from[id]
			queue = append(queue, callee)
		}
		for _, callee := range n.calls {
			visit(callee)
		}
		for _, name := range n.dynCalls {
			for _, callee := range prog.methodsByName[name] {
				visit(callee)
			}
		}
	}
	return from
}

// shortID compresses a node ID for diagnostics: the package path is
// dropped, leaving "(*T).M", "(T).M" or "F".
func shortID(id string) string {
	trim := func(s string) string {
		if i := strings.LastIndex(s, "/"); i >= 0 {
			s = s[i+1:]
		}
		// Drop the package qualifier before the type or function name:
		// "pkg.T" -> "T".
		if i := strings.Index(s, "."); i >= 0 {
			s = s[i+1:]
		}
		return s
	}
	if strings.HasPrefix(id, "(") {
		end := strings.Index(id, ")")
		if end < 0 {
			return id
		}
		inner := id[1:end]
		star := ""
		if strings.HasPrefix(inner, "*") {
			star, inner = "*", inner[1:]
		}
		return "(" + star + trim(inner) + ")" + id[end+1:]
	}
	return trim(id)
}
