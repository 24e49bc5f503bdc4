package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dap/internal/mem"
)

// TestWatchdogTripsOnStall: a self-perpetuating timer with a frozen progress
// counter must trip the watchdog with a diagnostic snapshot.
func TestWatchdogTripsOnStall(t *testing.T) {
	e := New()
	progress := uint64(0)
	e.SetWatchdog(Watchdog{Events: 64, Stall: true,
		Progress: func() uint64 { return progress }, Snapshot: func() string { return "queues: wedged" }})
	var tick func(mem.Cycle)
	tick = func(mem.Cycle) { after(e, 1, tick) }
	after(e, 1, tick)
	steps := 0
	for e.Step() {
		steps++
		if steps > 10_000 {
			t.Fatal("watchdog never tripped")
		}
	}
	var se *StallError
	if !errors.As(e.Err(), &se) {
		t.Fatalf("expected *StallError, got %v", e.Err())
	}
	if se.Cycle == 0 || se.Events == 0 {
		t.Fatalf("empty stall context: %+v", se)
	}
	if !strings.Contains(se.Error(), "queues: wedged") {
		t.Fatalf("snapshot missing from message: %q", se.Error())
	}
	if e.Step() {
		t.Fatal("failed engine must not execute further events")
	}
}

// TestWatchdogProgressSuppresses: advancing progress must keep the watchdog
// quiet indefinitely.
func TestWatchdogProgressSuppresses(t *testing.T) {
	e := New()
	progress := uint64(0)
	e.SetWatchdog(Watchdog{Events: 64, Stall: true, Progress: func() uint64 { return progress }})
	var tick func(mem.Cycle)
	tick = func(mem.Cycle) {
		progress++ // every event makes progress
		after(e, 1, tick)
	}
	after(e, 1, tick)
	for i := 0; i < 5000 && e.Step(); i++ {
	}
	if e.Err() != nil {
		t.Fatalf("watchdog tripped despite progress: %v", e.Err())
	}
}

// TestWatchdogTimeFingerprintDefault: with a nil progress function the
// watchdog falls back to simulated time, so zero-delay self-rescheduling
// (time frozen) trips while advancing time does not.
func TestWatchdogTimeFingerprintDefault(t *testing.T) {
	e := New()
	e.SetWatchdog(Watchdog{Events: 64, Stall: true})
	var spin func(mem.Cycle)
	spin = func(mem.Cycle) { after(e, 0, spin) } // same-cycle spin
	at(e, 1, spin)
	for i := 0; i < 10_000 && e.Step(); i++ {
	}
	var se *StallError
	if !errors.As(e.Err(), &se) {
		t.Fatalf("same-cycle spin not detected: %v", e.Err())
	}
}

// TestWatchdogDisarm: a zero Watchdog disarms a previously armed one.
func TestWatchdogDisarm(t *testing.T) {
	e := New()
	e.SetWatchdog(Watchdog{Events: 8, Stall: true, Progress: func() uint64 { return 0 }})
	e.SetWatchdog(Watchdog{})
	var tick func(mem.Cycle)
	tick = func(mem.Cycle) { after(e, 1, tick) }
	after(e, 1, tick)
	for i := 0; i < 1000; i++ {
		e.Step()
	}
	if e.Err() != nil {
		t.Fatalf("disarmed watchdog tripped: %v", e.Err())
	}
}

// TestFailStopsEngine: Fail freezes the engine; RunUntil must not advance
// time past the failure, and the first failure wins.
func TestFailStopsEngine(t *testing.T) {
	e := New()
	ran := false
	at(e, 10, func(mem.Cycle) { e.Fail(fmt.Errorf("auditor: invariant violated")) })
	at(e, 20, func(mem.Cycle) { ran = true })
	e.RunUntil(1000)
	if ran {
		t.Fatal("event after failure executed")
	}
	if e.Now() != 10 {
		t.Fatalf("failed engine advanced time to %d", e.Now())
	}
	e.Fail(fmt.Errorf("second"))
	if e.Err().Error() != "auditor: invariant violated" {
		t.Fatalf("first failure did not win: %v", e.Err())
	}
}

// TestStallErrorDeadlockMessage: Pending == 0 renders as a deadlock.
func TestStallErrorDeadlockMessage(t *testing.T) {
	se := &StallError{Cycle: 42, Events: 7, Pending: 0}
	if !strings.Contains(se.Error(), "deadlocked") {
		t.Fatalf("deadlock not named: %q", se.Error())
	}
	se.Pending = 3
	if !strings.Contains(se.Error(), "stalled") {
		t.Fatalf("stall not named: %q", se.Error())
	}
}

// BenchmarkStep measures the per-event dispatch cost with the watchdog
// disarmed (the default for every existing caller).
func BenchmarkStep(b *testing.B) {
	benchmarkStep(b, false)
}

// BenchmarkStepWatchdog measures the same loop with the watchdog armed; the
// difference is the hardening overhead paid by guarded runs.
func BenchmarkStepWatchdog(b *testing.B) {
	benchmarkStep(b, true)
}

func benchmarkStep(b *testing.B, watchdog bool) {
	e := New()
	n := uint64(0)
	if watchdog {
		e.SetWatchdog(Watchdog{Events: 1 << 20, Stall: true, Progress: func() uint64 { return n }})
	}
	var tick func(mem.Cycle)
	tick = func(mem.Cycle) {
		n++
		after(e, 1, tick)
	}
	after(e, 1, tick)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	if e.Err() != nil {
		b.Fatalf("unexpected failure: %v", e.Err())
	}
	_ = mem.Cycle(0)
}
