package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// ImportPath is the module-qualified path, e.g. "gpunoc/internal/gpu".
	ImportPath string
	// Dir is the absolute directory holding the sources.
	Dir string
	// ModuleRoot is the directory containing go.mod.
	ModuleRoot string
	// Fset positions every token of every file.
	Fset *token.FileSet
	// Files holds the parsed sources (tests and testdata excluded),
	// ordered by file name.
	Files []*ast.File
	// Info carries the use/def/type maps analyzers consult. Lenient
	// checking fills it as far as possible even for broken fixtures.
	Info *types.Info
	// TypeErrors collects type-checking problems (fixtures exercise
	// analyzers on intentionally broken code, so these are not fatal).
	TypeErrors []error
}

// Loader parses and type-checks packages of one module. Module-internal
// imports resolve against the module tree; standard-library imports are
// checked from source so no precompiled export data is needed.
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string
	ModulePath string

	stdlib   types.ImporterFrom
	packages map[string]*types.Package
	loading  map[string]bool
}

// NewLoader builds a loader rooted at the module directory.
func NewLoader(moduleRoot, modulePath string) *Loader {
	fset := token.NewFileSet()
	std, _ := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return &Loader{
		Fset:       fset,
		ModuleRoot: moduleRoot,
		ModulePath: modulePath,
		stdlib:     std,
		packages:   map[string]*types.Package{},
		loading:    map[string]bool{},
	}
}

// FindModuleRoot walks up from dir to the directory holding go.mod and
// returns it along with the declared module path.
func FindModuleRoot(dir string) (root, modulePath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if strings.HasPrefix(line, "module ") {
					return d, strings.TrimSpace(strings.TrimPrefix(line, "module ")), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("lint: no go.mod above %s", abs)
		}
	}
}

// parseDir parses the non-test .go files of dir in name order.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
	}
	return files, nil
}

// importPathFor maps a directory under the module root to its import
// path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// Load parses and leniently type-checks the package in dir, returning
// the analyzable Package. Type errors are collected, not fatal, so the
// intentionally broken lint fixtures still produce partial type info.
func (l *Loader) Load(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path, err := l.importPathFor(abs)
	if err != nil {
		return nil, err
	}
	files, err := l.parseDir(abs)
	if err != nil {
		return nil, err
	}
	p := &Package{
		ImportPath: path,
		Dir:        abs,
		ModuleRoot: l.ModuleRoot,
		Fset:       l.Fset,
		Files:      files,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Defs:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	// With conf.Error set, Check keeps going past errors and fills Info
	// as far as it can; its error is the first of p.TypeErrors.
	_, _ = conf.Check(path, l.Fset, files, p.Info)
	return p, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleRoot, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths load
// from the module tree, everything else from the standard library.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := l.packages[path]; ok {
		return pkg, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		if l.loading[path] {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		l.loading[path] = true
		defer delete(l.loading, path)
		sub := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		pkgDir := filepath.Join(l.ModuleRoot, filepath.FromSlash(sub))
		files, err := l.parseDir(pkgDir)
		if err != nil {
			return nil, err
		}
		var errs []error
		conf := types.Config{
			Importer: l,
			Error:    func(err error) { errs = append(errs, err) },
		}
		pkg, _ := conf.Check(path, l.Fset, files, nil)
		if pkg == nil {
			return nil, fmt.Errorf("lint: cannot check %s: %v", path, errs)
		}
		// Mark complete even on partial errors so dependents resolve.
		pkg.MarkComplete()
		l.packages[path] = pkg
		return pkg, nil
	}
	if l.stdlib == nil {
		return nil, fmt.Errorf("lint: no standard-library importer for %q", path)
	}
	pkg, err := l.stdlib.ImportFrom(path, dir, mode)
	if err != nil {
		return nil, err
	}
	l.packages[path] = pkg
	return pkg, nil
}
