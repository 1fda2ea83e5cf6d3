package noc

// ring is a FIFO over a circular buffer, the one queue behind every
// model in this package. Bounded queues (router inputs, crossbar VOQs,
// MC request queues) are built at their bound by newRing and never
// grow: their callers check full before pushing. The source queues are
// throttled by their callers rather than bounded, so a push onto a full
// ring doubles it through grow. pop zeroes the slot it frees, so a
// drained queue keeps no *Packet reachable.
type ring[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int // occupancy
}

func newRing[T any](capacity int) ring[T] { return ring[T]{buf: make([]T, capacity)} }

func (r *ring[T]) len() int    { return r.n }
func (r *ring[T]) cap() int    { return len(r.buf) }
func (r *ring[T]) empty() bool { return r.n == 0 }
func (r *ring[T]) full() bool  { return r.n == len(r.buf) }

// peek returns the oldest element in place; the ring must be non-empty.
func (r *ring[T]) peek() *T { return &r.buf[r.head] }

// push enqueues x at the tail.
func (r *ring[T]) push(x T) {
	if r.full() {
		r.grow()
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = x
	r.n++
}

// pop dequeues the oldest element; the ring must be non-empty.
func (r *ring[T]) pop() T {
	x := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return x
}

// grow doubles the buffer, unwrapping the queue to start at index 0.
func (r *ring[T]) grow() {
	//lint:ignore hotpathalloc only the caller-throttled source queues ever fill, and doubling amortizes their growth to zero in steady state (TestStepSteadyStateDoesNotAllocate, TestXbarStepSteadyStateDoesNotAllocate)
	buf := make([]T, max(2*len(r.buf), 4))
	copy(buf, r.buf[r.head:])
	copy(buf[len(r.buf)-r.head:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
