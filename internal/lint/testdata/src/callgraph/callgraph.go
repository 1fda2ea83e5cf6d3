// Package callgraph is the call-graph unit-test fixture: recursion,
// method values, interface dispatch, a call through a package-level
// function variable, and an unreachable function.
package callgraph

// Walker is dispatched through an interface.
type Walker interface{ Walk() }

// A implements Walker.
type A struct{ n int }

// B implements Walker.
type B struct{ n int }

// Walk advances A.
func (a *A) Walk() { a.n++ }

// Walk advances B.
func (b *B) Walk() { b.n++ }

// Sim drives the fixture shapes.
type Sim struct {
	w Walker
	f func()
}

// Step is the hot root: recursion via spin, a method value handed off
// (reference = may-call), an interface call resolved by conservative
// name dispatch, and a call through hook.
func (s *Sim) Step() {
	spin(3)
	s.f = s.helper
	s.w.Walk()
	hook()
}

// hook names viaVar only in its initializer.
var hook = viaVar

// viaVar is reached only through hook.
func viaVar() {}

// helper is only referenced as a method value, never called directly.
func (s *Sim) helper() {}

// spin recurses; the BFS must terminate anyway.
func spin(n int) {
	if n > 0 {
		spin(n - 1)
	}
}

// lonely is referenced by nothing and must stay unreachable.
func lonely() {}

// Two inits share the ID "callgraph.init"; the graph must keep both
// bodies' edges.
func init() { first() }

func init() { second() }

// first is called only by the first init.
func first() {}

// second is called only by the second init.
func second() {}
