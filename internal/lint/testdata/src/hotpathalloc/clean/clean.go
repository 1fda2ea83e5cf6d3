// Package clean shows the sanctioned hot-path shapes: scratch-reset
// appends and slices.Grow calls, validation-exit formatting and
// cloning, struct literals (the intended
// object creation), and pointer-shaped interface values.
package clean

import (
	"fmt"
	"slices"
)

// Packet is the model object a hot path is allowed to create.
type Packet struct{ ID int }

// Sim is a toy cycle-driven model.
type Sim struct {
	queue []int
	moves []int
}

// Step reuses its scratch slice: the appends are amortized by the
// reset, and handing a pointer to an interface parameter does not box.
func (s *Sim) Step() {
	s.moves = s.moves[:0]
	s.moves = slices.Grow(s.moves, len(s.queue))
	for i := range s.queue {
		s.moves = append(s.moves, i)
	}
	emit(&Packet{ID: 1})
}

// Inject validates, then admits; the fmt.Errorf (and the boxing of its
// arguments) sits on a validation exit of an error-returning function.
func (s *Sim) Inject(id int) error {
	if id < 0 {
		return fmt.Errorf("negative id %d", id)
	}
	if len(s.queue) > 1<<20 {
		return fmt.Errorf("queue full: %v", slices.Clone(s.queue[:4]))
	}
	s.queue = s.queue[:0]
	s.queue = append(s.queue, id)
	return nil
}

// emit receives pointer-shaped values; they fit the interface word.
func emit(v interface{}) { _ = v }
