package sim

import (
	"testing"

	"dap/internal/mem"
)

// TestFlightSamplerFires verifies the watchdog's Sample observer fires every
// Events/8 executed events with the current cycle, without stall detection,
// and that disarming stops it.
func TestFlightSamplerFires(t *testing.T) {
	e := New()
	var samples []mem.Cycle
	e.SetWatchdog(Watchdog{Events: 24, Sample: func(c mem.Cycle) { samples = append(samples, c) }})

	// Self-rescheduling tick: 10 events at cycles 1..10.
	var n int
	var tick func(mem.Cycle)
	tick = func(c mem.Cycle) {
		n++
		if n < 10 {
			at(e, e.Now()+1, tick)
		}
	}
	at(e, e.Now()+1, tick)
	e.Drain()

	if len(samples) != 3 { // events 3, 6, 9
		t.Fatalf("got %d samples (%v), want 3", len(samples), samples)
	}
	for i, want := range []mem.Cycle{3, 6, 9} {
		if samples[i] != want {
			t.Fatalf("sample %d at cycle %d, want %d (all %v)", i, samples[i], want, samples)
		}
	}

	// Disarm: no further samples.
	e.SetWatchdog(Watchdog{})
	n = 0
	at(e, e.Now()+1, tick)
	e.Drain()
	if len(samples) != 3 {
		t.Fatalf("sampler fired after disarm: %v", samples)
	}
}

// TestFlightSamplerCoexistsWithWatchdog checks the Sample observer and stall
// detection share one check: the observer fires and the watchdog still trips.
func TestFlightSamplerCoexistsWithWatchdog(t *testing.T) {
	e := New()
	var fired int
	e.SetWatchdog(Watchdog{Events: 16, Stall: true,
		Progress: func() uint64 { return 42 }, // constant progress: stalls
		Sample:   func(mem.Cycle) { fired++ }})

	var spin func(mem.Cycle)
	spin = func(c mem.Cycle) { at(e, c, spin) } // zero-time self-loop, no progress
	at(e, 0, spin)
	for i := 0; i < 1000 && e.Step(); i++ {
	}
	if e.Err() == nil {
		t.Fatal("watchdog did not trip")
	}
	if fired != watchdogChecks {
		t.Fatalf("flight sampler fired %d times before the trip, want one per check (%d)", fired, watchdogChecks)
	}
}
