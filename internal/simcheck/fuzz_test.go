package simcheck

import (
	"reflect"
	"strings"
	"testing"
)

// Case generation is a pure function of the seed: the reproducer
// contract depends on it.
func TestGenCaseDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a, b := GenCase(seed), GenCase(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d generated two different cases", seed)
		}
		if a.Kind != "mesh" && a.Kind != "xbar" {
			t.Fatalf("seed %d generated kind %q", seed, a.Kind)
		}
		for i := 1; i < len(a.Injections); i++ {
			if a.Injections[i].Cycle < a.Injections[i-1].Cycle {
				t.Fatalf("seed %d schedule not sorted by cycle", seed)
			}
		}
	}
}

// FuzzNoCCase audits GenCase(seed): go test runs seeds 1-64, and -fuzz
// mutates past them. A case fails on an error, a violation or a network
// that never drains, with a reproducer for the shrunk case.
func FuzzNoCCase(f *testing.F) {
	for seed := int64(1); seed <= 64; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		c := GenCase(seed)
		rep, err := RunCase(c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Ok() && rep.Drained {
			return
		}
		shrunk := Shrink(c)
		t.Fatalf("seed %d (%s, %d injections): drained=%v, violations:\n%v\nshrunk to %d injection(s); reproducer:\n\n%s",
			seed, c.Kind, len(c.Injections), rep.Drained, rep.Violations, len(shrunk.Injections), Reproducer(shrunk))
	})
}

// firstCase returns the first GenCase of kind at or after seed.
func firstCase(kind string, seed int64) Case {
	c := GenCase(seed)
	for c.Kind != kind {
		c = GenCase(c.Seed + 1)
	}
	return c
}

// Both sabotage modes must be caught, or a clean FuzzNoCCase run would
// prove nothing about the auditor.
func TestSabotageModesDetected(t *testing.T) {
	base := firstCase("mesh", 1)
	for _, mode := range []string{SabotageDoubleTail, SabotageDropRecord} {
		c := base
		c.Sabotage = mode
		rep, err := RunCase(c)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Ok() {
			t.Errorf("sabotage %q went undetected", mode)
		}
	}
	if err := (&MeshAuditor{}).SetSabotage("nonsense"); err == nil {
		t.Error("unknown sabotage mode accepted")
	}
}

// Shrinking must preserve the failure while reducing the schedule,
// and never invent a failure on a passing case.
func TestShrinkMinimizesFailingCase(t *testing.T) {
	c := GenCase(2)
	for c.Kind != "mesh" || len(c.Injections) < 40 {
		c = GenCase(c.Seed + 1)
	}
	c.Sabotage = SabotageDoubleTail
	shrunk := Shrink(c)
	if len(shrunk.Injections) >= len(c.Injections) {
		t.Fatalf("shrink did not reduce: %d -> %d injections", len(c.Injections), len(shrunk.Injections))
	}
	rep, err := RunCase(shrunk)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("shrunk case no longer fails")
	}

	clean := GenCase(1)
	if got := Shrink(clean); !reflect.DeepEqual(got, clean) {
		t.Fatal("shrink modified a passing case")
	}
}

// The reproducer must be a recognizable, complete snippet for the
// exact case.
func TestReproducerRendersCase(t *testing.T) {
	c := firstCase("mesh", 3)
	c.RefusePct = 17
	src := Reproducer(c)
	for _, want := range []string{
		"simcheck.Case{", "noc.MeshConfig{", "RefusePct: 17",
		"simcheck.RunCase(c)", "Injections: []simcheck.Injection{",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("reproducer missing %q:\n%s", want, src)
		}
	}
	x := firstCase("xbar", 1)
	if !strings.Contains(Reproducer(x), "noc.XbarConfig{") {
		t.Error("xbar reproducer missing its config")
	}
}

func TestRunCaseRejectsMalformedCases(t *testing.T) {
	if _, err := RunCase(Case{Kind: "ring"}); err == nil {
		t.Error("unknown kind accepted")
	}
	x := firstCase("xbar", 1)
	x.Sabotage = SabotageDoubleTail
	if _, err := RunCase(x); err == nil {
		t.Error("xbar sabotage accepted despite having no delivery tap")
	}
}
