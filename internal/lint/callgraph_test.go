package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestStaleIgnore proves the three-way contract: a directive that
// suppresses nothing is reported on full-module Programs, stays
// unreported on partial loads (where an interprocedural finding rooted
// outside the load could still need it), and a live directive is never
// reported.
func TestStaleIgnore(t *testing.T) {
	bad := NewProgram([]*Package{loadFixture(t, filepath.Join("staleignore", "bad"))})
	bad.FullModule = true
	got := render(CheckProgram(bad))
	want := "bad.go:10: [staleignore] //lint:ignore seedflow directive suppresses nothing; the finding was fixed — delete the directive so it cannot mask a future regression\n"
	if got != want {
		t.Errorf("stale directive mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	partial := NewProgram([]*Package{loadFixture(t, filepath.Join("staleignore", "bad"))})
	if diags := CheckProgram(partial); len(diags) != 0 {
		t.Errorf("partial load reported stale directives:\n%s", render(diags))
	}

	clean := NewProgram([]*Package{loadFixture(t, filepath.Join("staleignore", "clean"))})
	clean.FullModule = true
	if diags := CheckProgram(clean); len(diags) != 0 {
		t.Errorf("live directive misreported:\n%s", render(diags))
	}
}

// TestCallGraphReachability pins the graph's conservatism on the shapes
// that matter: recursion terminates, a method value creates a may-call
// edge, an interface call fans out to every same-named module method, a
// call through a package-level function variable reaches the function
// its initializer names, unreferenced functions stay unreachable, and
// every init of a package keeps its edges, initializers included.
func TestCallGraphReachability(t *testing.T) {
	p := loadFixture(t, "callgraph")
	prog := NewProgram([]*Package{p})

	roots := prog.HotRoots()
	if len(roots) != 1 || !strings.HasSuffix(roots[0], "Sim).Step") {
		t.Fatalf("HotRoots = %v, want exactly (*Sim).Step", roots)
	}

	reach := prog.Reachable(roots)
	short := map[string]bool{}
	for id, root := range reach {
		short[shortID(id)] = true
		if root != roots[0] {
			t.Errorf("%s attributed to root %s, want %s", id, root, roots[0])
		}
	}
	for _, want := range []string{"(*Sim).Step", "(*Sim).helper", "spin", "(*A).Walk", "(*B).Walk", "hook", "viaVar"} {
		if !short[want] {
			t.Errorf("%s not reachable; got %v", want, short)
		}
	}
	if short["lonely"] {
		t.Errorf("lonely is unreachable by construction but was reached; got %v", short)
	}
	if len(short) != 7 {
		t.Errorf("reachable set has %d entries, want 7: %v", len(short), short)
	}

	// Both inits' callees, and the function hook's initializer names, are
	// reachable from the one merged init node.
	inits := prog.Reachable([]string{p.ImportPath + ".init"})
	for _, want := range []string{"first", "second", "viaVar"} {
		if _, ok := inits[p.ImportPath+"."+want]; !ok {
			t.Errorf("%s is called by an init but unreachable from it; got %v", want, inits)
		}
	}
}
