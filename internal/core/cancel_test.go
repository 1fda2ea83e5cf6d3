package core

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"gpunoc/internal/gpu"
)

// TestRunResultByteIdenticalUnderLiveCancel is the acceptance pin for
// the cancellation plumbing: a run whose Cancel context exists but never
// fires must render byte-identically to a run with no Cancel at all, for
// experiments exercising every checkpoint flavour — MapContext sweeps
// (fig9), sequential Interrupted row loops (fig15), and simulator phase
// boundaries (fig23).
func TestRunResultByteIdenticalUnderLiveCancel(t *testing.T) {
	for _, id := range []string{"fig9", "fig15", "fig23"} {
		e, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		render := func(cancel context.Context) []byte {
			ctx, err := NewContext(gpu.V100(), true)
			if err != nil {
				t.Fatal(err)
			}
			ctx.Cancel = cancel
			res, err := RunResult(ctx, e)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			j, err := res.JSONBytes()
			if err != nil {
				t.Fatal(err)
			}
			return append(append(j, res.CSVBytes()...), res.TextBytes()...)
		}
		if !bytes.Equal(render(nil), render(context.Background())) {
			t.Errorf("%s: a never-cancelled Cancel context changed the rendered bytes", id)
		}
	}
}

// TestRunResultDeadContextReturnsWrappedError: a dead Cancel context
// stops the run before any artifact is produced, and the returned error
// unwraps to the context's own sentinel so HTTP callers can classify it
// (504 for deadlines, silent drop for disconnects).
func TestRunResultDeadContextReturnsWrappedError(t *testing.T) {
	e, err := Lookup("fig9")
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Time{})
	defer cancel2()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		want error
	}{
		{"canceled", canceled, context.Canceled},
		{"deadline", expired, context.DeadlineExceeded},
	} {
		ctx, err := NewContext(gpu.V100(), true)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Cancel = tc.ctx
		res, err := RunResult(ctx, e)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: RunResult err = %v, want errors.Is %v", tc.name, err, tc.want)
		}
		if res != nil {
			t.Errorf("%s: a cancelled run returned a partial result", tc.name)
		}
	}
}

// TestInterruptedNilCancelIsFree: the zero-value Context never reports
// an interruption, so every pre-existing caller is unaffected.
func TestInterruptedNilCancelIsFree(t *testing.T) {
	var c Context
	if err := c.Interrupted(); err != nil {
		t.Fatalf("Interrupted() on zero Context = %v, want nil", err)
	}
}
