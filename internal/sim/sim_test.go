package sim

import (
	"testing"

	"dap/internal/mem"
)

// at and after schedule a closure through mem.Call, the adapter every
// closure-shaped callback in these tests rides on.
func at(e *Engine, when mem.Cycle, fn func(mem.Cycle))     { e.AtArg(when, mem.Call, fn, 0) }
func after(e *Engine, delay mem.Cycle, fn func(mem.Cycle)) { e.AfterArg(delay, mem.Call, fn, 0) }

func TestEngineOrdering(t *testing.T) {
	e := New()
	var order []int
	at(e, 10, func(mem.Cycle) { order = append(order, 2) })
	at(e, 5, func(mem.Cycle) { order = append(order, 1) })
	at(e, 10, func(mem.Cycle) { order = append(order, 3) }) // same time: insertion order
	e.Drain()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wrong order: %v", order)
	}
	if e.Now() != 10 {
		t.Fatalf("now = %d, want 10", e.Now())
	}
}

func TestEnginePastClamped(t *testing.T) {
	e := New()
	at(e, 100, func(mem.Cycle) {
		at(e, 50, func(mem.Cycle) {
			if e.Now() != 100 {
				t.Errorf("past event ran at %d, want clamped to 100", e.Now())
			}
		})
	})
	e.Drain()
}

func TestEngineAfter(t *testing.T) {
	e := New()
	fired := mem.Cycle(0)
	at(e, 7, func(mem.Cycle) {
		after(e, 5, func(mem.Cycle) { fired = e.Now() })
	})
	e.Drain()
	if fired != 12 {
		t.Fatalf("After fired at %d, want 12", fired)
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	count := 0
	var tick func(mem.Cycle)
	tick = func(mem.Cycle) {
		count++
		after(e, 10, tick)
	}
	after(e, 10, tick)
	e.RunUntil(100)
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if e.Now() != 100 {
		t.Fatalf("now = %d, want 100", e.Now())
	}
	// queue must still hold the next tick
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestRunUntilAdvancesIdleTime(t *testing.T) {
	e := New()
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Fatalf("now = %d, want 500 even with empty queue", e.Now())
	}
}

func TestRunWhile(t *testing.T) {
	e := New()
	n := 0
	var tick func(mem.Cycle)
	tick = func(mem.Cycle) {
		n++
		after(e, 1, tick)
	}
	after(e, 1, tick)
	e.RunWhile(func() bool { return n < 5 })
	if n != 5 {
		t.Fatalf("n = %d, want 5", n)
	}
}

func TestStepEmpty(t *testing.T) {
	e := New()
	if e.Step() {
		t.Fatal("Step on empty queue must return false")
	}
}

func TestManyEventsStaySorted(t *testing.T) {
	e := New()
	last := mem.Cycle(0)
	// schedule in reverse and confirm monotone execution
	for i := 1000; i > 0; i-- {
		at(e, mem.Cycle(i), func(mem.Cycle) {
			if e.Now() < last {
				t.Fatalf("time went backwards: %d < %d", e.Now(), last)
			}
			last = e.Now()
		})
	}
	e.Drain()
	if last != 1000 {
		t.Fatalf("last = %d, want 1000", last)
	}
}
