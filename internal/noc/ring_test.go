package noc

import (
	"slices"
	"testing"
)

func pushAll(r *ring[int], xs ...int) {
	for _, x := range xs {
		r.push(x)
	}
}

func drain(r *ring[int]) []int {
	var out []int
	for !r.empty() {
		out = append(out, r.pop())
	}
	return out
}

// A bounded ring wraps its tail past the end of the buffer without
// growing and still pops in FIFO order.
func TestRingWrapAround(t *testing.T) {
	r := newRing[int](4)
	pushAll(&r, 1, 2, 3)
	r.pop()
	r.pop()
	pushAll(&r, 4, 5, 6) // 5 and 6 wrap to indices 0 and 1
	if !r.full() || r.len() != 4 || r.cap() != 4 {
		t.Fatalf("wrapped ring len=%d cap=%d, want a full ring of 4", r.len(), r.cap())
	}
	if got := drain(&r); !slices.Equal(got, []int{3, 4, 5, 6}) {
		t.Errorf("wrapped ring popped %v, want [3 4 5 6]", got)
	}
}

// Growing a full ring whose head is mid-buffer must unwrap it in FIFO
// order; a zero ring, as every source queue starts, grows on demand.
func TestRingGrowWhileWrapped(t *testing.T) {
	r := newRing[int](4)
	pushAll(&r, 1, 2, 3, 4)
	r.pop()
	r.pop()
	pushAll(&r, 5, 6) // full, head at index 2
	pushAll(&r, 7, 8) // grows
	if r.cap() != 8 {
		t.Fatalf("grown ring cap %d, want 8", r.cap())
	}
	if got := drain(&r); !slices.Equal(got, []int{3, 4, 5, 6, 7, 8}) {
		t.Errorf("grown ring popped %v, want [3 4 5 6 7 8]", got)
	}

	var src ring[int]
	pushAll(&src, 1, 2, 3, 4, 5)
	if got := drain(&src); !slices.Equal(got, []int{1, 2, 3, 4, 5}) {
		t.Errorf("zero ring popped %v, want [1 2 3 4 5]", got)
	}
}

// pop clears the slot it frees, so a drained queue keeps no packet
// reachable from its backing array.
func TestRingPopClearsSlot(t *testing.T) {
	r := newRing[*Packet](2)
	r.push(&Packet{ID: 1})
	r.push(&Packet{ID: 2})
	for i := range r.buf {
		r.pop()
		if r.buf[i] != nil {
			t.Errorf("pop left packet %d in slot %d", r.buf[i].ID, i)
		}
	}
}
