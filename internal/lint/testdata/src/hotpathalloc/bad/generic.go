package bad

// Gen is a toy model whose Step reaches an allocation only through a
// method of a generic type: the call site names the instantiation
// (queue[int].grow), which the call graph must resolve to the declared
// generic method.
type Gen struct {
	q queue[int]
}

// Step is a hot root.
func (g *Gen) Step() { g.q.grow() }

// queue is a generic container.
type queue[T any] struct {
	buf []T
}

// grow is transitively hot through (*Gen).Step.
func (q *queue[T]) grow() {
	q.buf = make([]T, 2*len(q.buf)+1)
}
