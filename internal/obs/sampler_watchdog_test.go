package obs

import (
	"errors"
	"testing"

	"dap/internal/mem"
	"dap/internal/sim"
)

// TestSamplerIdleStopUnderWatchdog pins down the interaction between the
// sampler's idle-stop rule and the forward-progress watchdog on a real
// engine: once the workload's last event retires, the sampler is the only
// thing left in the queue and must stop rescheduling itself. If it kept
// the loop alive, the drain would never return and the watchdog — whose
// progress fingerprint froze with the workload — would report a phantom
// stall. A healthy run must instead drain cleanly with no error.
func TestSamplerIdleStopUnderWatchdog(t *testing.T) {
	eng := sim.New()

	// Workload: 50 events, 20 cycles apart, each advancing the progress
	// fingerprint. Finishes at cycle 1000.
	var progress uint64
	var step func(mem.Cycle)
	step = func(mem.Cycle) {
		progress++
		if progress < 50 {
			eng.AfterArg(20, mem.Call, step, 0)
		}
	}
	eng.AfterArg(20, mem.Call, step, 0)

	// Watchdog trips after ~64 stale events; the sampler alone would feed
	// it endless no-progress events if idle-stop failed.
	eng.SetWatchdog(sim.Watchdog{Events: 64, Stall: true, Progress: func() uint64 { return progress }})

	s := NewSampler(eng.Clock(), eng.AfterArg, eng.Pending, 100, 0)
	s.Gauge("progress", func() float64 { return float64(progress) })
	var windows int
	s.OnWindow(func(Window) { windows++ })
	s.Start()

	eng.Drain()

	if err := eng.Err(); err != nil {
		t.Fatalf("healthy run aborted: %v", err)
	}
	if p := eng.Pending(); p != 0 {
		t.Fatalf("queue not drained: %d events pending", p)
	}
	// The sampler's final tick fires at most one period past the last
	// workload event; anything later means it kept the loop alive.
	if now := eng.Now(); now > 1000+s.Every() {
		t.Fatalf("engine ran to cycle %d; sampler kept an idle loop alive past %d", now, 1000+s.Every())
	}
	if s.Samples() == 0 || windows == 0 {
		t.Fatalf("sampler recorded no windows (samples=%d, callbacks=%d)", s.Samples(), windows)
	}
}

// TestSamplerDoesNotMaskWatchdog is the converse: when the workload wedges
// while still scheduling events (no forward progress), the watchdog must
// fire even though the sampler is interleaving healthy-looking read-only
// ticks — sampling must never launder a stalled run into a live one.
func TestSamplerDoesNotMaskWatchdog(t *testing.T) {
	eng := sim.New()

	// Wedged workload: reschedules forever, progress frozen after 10 steps.
	var progress uint64
	var spin func(mem.Cycle)
	spin = func(mem.Cycle) {
		if progress < 10 {
			progress++
		}
		eng.AfterArg(5, mem.Call, spin, 0)
	}
	eng.AfterArg(5, mem.Call, spin, 0)
	eng.SetWatchdog(sim.Watchdog{Events: 64, Stall: true, Progress: func() uint64 { return progress }})

	s := NewSampler(eng.Clock(), eng.AfterArg, eng.Pending, 50, 0)
	s.Gauge("progress", func() float64 { return float64(progress) })
	s.Start()

	eng.RunWhile(func() bool { return eng.Now() < mem.Cycle(100000) })

	var stall *sim.StallError
	if err := eng.Err(); !errors.As(err, &stall) {
		t.Fatalf("wedged run ended with %v, want *sim.StallError", err)
	}
}
