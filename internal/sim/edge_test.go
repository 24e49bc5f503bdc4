package sim

import (
	"testing"

	"dap/internal/mem"
)

// TestPastSchedulingClampOrdering: an event scheduled in the past is clamped
// to the current cycle and still runs after already-queued events of that
// cycle (insertion order is the tie-break, not the requested time).
func TestPastSchedulingClampOrdering(t *testing.T) {
	e := New()
	var order []string
	at(e, 100, func(mem.Cycle) {
		at(e, 100, func(mem.Cycle) { order = append(order, "same-cycle") })
		at(e, 5, func(mem.Cycle) {
			order = append(order, "past")
			if e.Now() != 100 {
				t.Errorf("past event ran at %d, want 100", e.Now())
			}
		})
	})
	e.Drain()
	if len(order) != 2 || order[0] != "same-cycle" || order[1] != "past" {
		t.Fatalf("clamped event jumped the queue: %v", order)
	}
	if e.Now() != 100 {
		t.Fatalf("now = %d, want 100", e.Now())
	}
}

// TestDrainFollowsNewEvents: events scheduled by handlers during Drain are
// executed too, in time order, until the cascade genuinely ends.
func TestDrainFollowsNewEvents(t *testing.T) {
	e := New()
	depth := 0
	var cascade func(mem.Cycle)
	cascade = func(mem.Cycle) {
		if depth++; depth < 50 {
			after(e, 3, cascade)
		}
	}
	at(e, 1, cascade)
	e.Drain()
	if depth != 50 {
		t.Fatalf("cascade depth = %d, want 50", depth)
	}
	if want := mem.Cycle(1 + 3*49); e.Now() != want {
		t.Fatalf("now = %d, want %d", e.Now(), want)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after Drain", e.Pending())
	}
}

// TestRunUntilEmptyQueueIdempotent: RunUntil on an empty queue advances time
// to the limit; a second call with a smaller limit must not move time back.
func TestRunUntilEmptyQueueIdempotent(t *testing.T) {
	e := New()
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Fatalf("now = %d, want 500", e.Now())
	}
	e.RunUntil(100)
	if e.Now() != 500 {
		t.Fatalf("RunUntil moved time backwards to %d", e.Now())
	}
}

// TestTieBreakDeterminismInterleaved: interleaved At/After scheduling onto
// the same cycle must execute in exact insertion order, every run.
func TestTieBreakDeterminismInterleaved(t *testing.T) {
	run := func() []int {
		e := New()
		var order []int
		at(e, 10, func(mem.Cycle) {
			for i := 0; i < 8; i++ {
				i := i
				if i%2 == 0 {
					at(e, 20, func(mem.Cycle) { order = append(order, i) })
				} else {
					after(e, 10, func(mem.Cycle) { order = append(order, i) })
				}
			}
		})
		e.Drain()
		return order
	}
	a, b := run(), run()
	if len(a) != 8 {
		t.Fatalf("expected 8 events, got %v", a)
	}
	for i := range a {
		if a[i] != i {
			t.Fatalf("insertion order violated: %v", a)
		}
		if a[i] != b[i] {
			t.Fatalf("runs diverged: %v vs %v", a, b)
		}
	}
}

// TestStepAfterDrainEmpty: Step keeps returning false once drained, and
// re-arming the engine with new events resumes normally.
func TestStepAfterDrainEmpty(t *testing.T) {
	e := New()
	at(e, 1, func(mem.Cycle) {})
	e.Drain()
	if e.Step() {
		t.Fatal("Step returned true on drained engine")
	}
	ran := false
	at(e, 2, func(mem.Cycle) { ran = true })
	if !e.Step() || !ran {
		t.Fatal("engine did not resume after new event")
	}
}
