package lint

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// sharedLoader caches type-checked stdlib packages across fixture loads
// (source-importing fmt and friends once instead of per test).
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, modPath, err := FindModuleRoot(".")
		if err != nil {
			loaderErr = err
			return
		}
		loader = NewLoader(root, modPath)
	})
	if loaderErr != nil {
		t.Fatal(loaderErr)
	}
	return loader
}

func loadFixture(t *testing.T, rel string) *Package {
	t.Helper()
	p, err := fixtureLoader(t).Load(filepath.Join("testdata", "src", rel))
	if err != nil {
		t.Fatalf("load %s: %v", rel, err)
	}
	return p
}

// render formats diagnostics with base file names for golden
// comparison.
func render(diags []Diagnostic) string {
	SortDiagnostics(diags)
	var b strings.Builder
	for _, d := range diags {
		d.File = filepath.Base(d.File)
		b.WriteString(d.String())
		b.WriteString("\n")
	}
	return b.String()
}

// goldenRows is the one golden table: each row runs one analyzer over a
// Program of dir/bad plus any extra bad packages, and dir/clean must
// produce nothing. Rows marked program are the ones whose findings come
// from the cross-package call graph; TestProgramAnalyzerGoldens runs
// them and TestAnalyzerGoldens runs the rest, so a failure names which
// kind of pass broke. The detflow row loads two bad packages: an
// internal-path one (map iteration, where only the reachability pass
// connects the helper to the simulation) and a cmd-path one (goroutine,
// where the per-package pass is silent by design). The obsoutput and
// simcheckaudit fixtures are packages named obs and simcheck: the
// emission rule keys on the package clause, so it guards the real
// packages regardless of fixture layout. Every analyzer but staleignore
// (TestStaleIgnore) needs a row.
var goldenRows = []struct {
	analyzer, dir string
	extraBad      []string
	program       bool
}{
	{analyzer: "determinism", dir: "determinism"},
	{analyzer: "determinism", dir: "obsoutput"},
	{analyzer: "determinism", dir: "simcheckaudit"},
	{analyzer: "seedflow", dir: "seedflow"},
	{analyzer: "unitsafety", dir: "unitsafety"},
	{analyzer: "orderedoutput", dir: "orderedoutput"},
	{analyzer: "registry", dir: "registry"},
	{analyzer: "errcheck", dir: "errcheck"},
	{analyzer: "atomicmix", dir: "atomicmix", program: true},
	{analyzer: "determinism", dir: "detflow", extraBad: []string{filepath.Join("detflow", "cmd", "bad")}, program: true},
	{analyzer: "hotpathalloc", dir: "hotpathalloc", program: true},
}

// runGoldens runs the goldenRows whose program mark matches, one
// subtest per fixture dir.
func runGoldens(t *testing.T, program bool) {
	byName := map[string]*Analyzer{}
	for _, a := range Analyzers() {
		byName[a.Name] = a
	}
	for _, r := range goldenRows {
		if r.program != program {
			continue
		}
		t.Run(r.dir, func(t *testing.T) {
			a := byName[r.analyzer]
			if a == nil {
				t.Fatalf("no analyzer %q", r.analyzer)
			}
			pkgs := []*Package{loadFixture(t, filepath.Join(r.dir, "bad"))}
			for _, extra := range r.extraBad {
				pkgs = append(pkgs, loadFixture(t, extra))
			}
			got := render(a.Run(NewProgram(pkgs)))
			wantBytes, err := os.ReadFile(filepath.Join("testdata", "src", r.dir, "expected.txt"))
			if err != nil {
				t.Fatal(err)
			}
			if want := string(wantBytes); got != want {
				t.Errorf("bad fixture diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}

			clean := NewProgram([]*Package{loadFixture(t, filepath.Join(r.dir, "clean"))})
			if diags := a.Run(clean); len(diags) != 0 {
				t.Errorf("clean fixture produced findings:\n%s", render(diags))
			}
		})
	}
}

// TestAnalyzerGoldens proves every analyzer fires on its bad fixtures
// with exactly the expected diagnostics and stays silent on the clean
// fixture (the per-package rows of goldenRows). It also checks the
// table against Analyzers(): names are unique and every analyzer but
// staleignore has a row.
func TestAnalyzerGoldens(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Analyzers() {
		if seen[a.Name] {
			t.Errorf("analyzer name %q appears twice in Analyzers()", a.Name)
		}
		seen[a.Name] = true
	}
	covered := map[string]bool{"staleignore": true}
	for _, r := range goldenRows {
		covered[r.analyzer] = true
	}
	for _, a := range Analyzers() {
		if !covered[a.Name] {
			t.Errorf("analyzer %q has no golden fixture row", a.Name)
		}
	}
	runGoldens(t, false)
}

// TestProgramAnalyzerGoldens runs the goldenRows whose findings depend
// on the cross-package call graph: hotpathalloc, atomicmix and the
// determinism reachability pass over detflow.
func TestProgramAnalyzerGoldens(t *testing.T) {
	runGoldens(t, true)
}

// TestSuppression proves //lint:ignore drops a finding on the next
// line, leaves others, and reports malformed directives.
func TestSuppression(t *testing.T) {
	got := render(CheckProgram(NewProgram([]*Package{loadFixture(t, "suppress")})))
	want := "" +
		"suppressed.go:14: [seedflow] time.Now reads the wall clock inside the model; pass timestamps in from the caller\n" +
		"suppressed.go:18: [lint] malformed //lint:ignore directive: want `//lint:ignore <analyzer> <reason>`\n" +
		"suppressed.go:19: [seedflow] time.Now reads the wall clock inside the model; pass timestamps in from the caller\n"
	if got != want {
		t.Errorf("suppression mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestCleanRealTree is the self-test the CI gate relies on: the whole
// suite — per-package and interprocedural analyzers, plus staleignore
// on the full-module Program — must pass over the repository's own
// packages. Fixture directories are excluded the same way cmd/noclint
// excludes them.
func TestCleanRealTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	l := fixtureLoader(t)
	var dirs []string
	err := filepath.WalkDir(l.ModuleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if name == "testdata" || name == "vendor" || (strings.HasPrefix(name, ".") && path != l.ModuleRoot) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		p, err := l.Load(dir)
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		if len(p.TypeErrors) > 0 {
			t.Errorf("%s: type errors: %v", p.ImportPath, p.TypeErrors[0])
		}
		pkgs = append(pkgs, p)
	}
	prog := NewProgram(pkgs)
	prog.FullModule = true
	if diags := CheckProgram(prog); len(diags) != 0 {
		t.Errorf("unexpected findings:\n%s", render(diags))
	}
}

// TestIDForms pins the humanized doc matching: figures by number,
// tables by number or roman numeral, extensions literally.
func TestIDForms(t *testing.T) {
	doc := "Table I compares GPUs. Fig 1 and Figure 12 show latency. ext3 audits stages."
	for _, id := range []string{"table1", "fig1", "fig12", "ext3"} {
		if !docMentions(doc, id) {
			t.Errorf("docMentions(%q) = false, want true", id)
		}
	}
	for _, id := range []string{"table2", "fig2", "fig13", "ext4"} {
		if docMentions(doc, id) {
			t.Errorf("docMentions(%q) = true, want false", id)
		}
	}
}

// TestRoman pins the numeral rendering used for table IDs.
func TestRoman(t *testing.T) {
	cases := map[int]string{1: "i", 4: "iv", 9: "ix", 14: "xiv", 29: "xxix", 0: "", 31: ""}
	for n, want := range cases {
		if got := roman(n); got != want {
			t.Errorf("roman(%d) = %q, want %q", n, got, want)
		}
	}
}
