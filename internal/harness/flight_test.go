package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"reflect"
	"strings"
	"testing"

	"dap/internal/faultinject"
	"dap/internal/obs"
)

// TestObservabilityIsBitIdenticalWithFlight extends the bit-identity
// guarantee to the flight recorder: a run with the black box on (alongside
// the tracer and sampler) must produce exactly the same stats.Run as a bare
// run, while still recording flight entries.
func TestObservabilityIsBitIdenticalWithFlight(t *testing.T) {
	mix := traceableMix(4)
	base := obsTestConfig()
	base.CPU.Cores = 4

	inst := base
	inst.Flight = true
	inst.FlightEvery = 10_000
	inst.Trace = true
	inst.MetricsEvery = 5_000

	plain := RunMix(base, mix)
	flown := RunMix(inst, mix)
	if plain.Abort != nil || flown.Abort != nil {
		t.Fatalf("aborted runs: plain=%v flight=%v", plain.Abort, flown.Abort)
	}
	if !reflect.DeepEqual(plain.Run, flown.Run) {
		t.Errorf("stats.Run differs with flight recorder enabled")
		if plain.Cycles != flown.Cycles {
			t.Errorf("cycles: plain=%d flight=%d", plain.Cycles, flown.Cycles)
		}
	}
	if flown.Flight == nil || flown.Flight.Len() == 0 {
		t.Fatal("flight recorder captured nothing")
	}
	entries := flown.Flight.Entries()
	if !strings.HasPrefix(entries[0].Note, "measure-start") {
		t.Errorf("first entry is %q, want measure-start", entries[0].Note)
	}
	if last := entries[len(entries)-1].Note; last != "run-complete" {
		t.Errorf("last entry is %q, want run-complete", last)
	}
	if plain.Flight != nil {
		t.Error("uninstrumented run has a flight recorder")
	}
}

// TestFlightRecorderCapturesStall faultinjects a DRAM-drop stall and
// asserts the flight recorder's dump carries the failure: bounded entries,
// the watchdog reason, the engine snapshot, and periodic samples showing
// the frozen system.
func TestFlightRecorderCapturesStall(t *testing.T) {
	cfg := hardenConfig()
	cfg.Policy = DAP
	cfg.WatchdogEvents = 10_000
	cfg.Faults = &faultinject.Plan{DropReadEvery: 1, DropReadAfter: 1000}
	cfg.Flight = true
	cfg.FlightEvery = 2_000
	cfg.FlightCap = 32

	r, err := RunMixE(cfg, quickMix())
	if err == nil {
		t.Fatal("run with every read response dropped completed normally")
	}
	if r.Flight == nil {
		t.Fatal("aborted run has no flight recording")
	}
	if n := r.Flight.Len(); n == 0 || n > 32 {
		t.Fatalf("flight ring has %d entries, want 1..32", n)
	}
	entries := r.Flight.Entries()
	if last := entries[len(entries)-1].Note; !strings.HasPrefix(last, "run-aborted") {
		t.Errorf("last entry is %q, want run-aborted", last)
	}
	var periodic bool
	for _, e := range entries {
		if strings.HasPrefix(e.Note, "pending=") {
			periodic = true
			break
		}
	}
	if !periodic {
		t.Error("no periodic samples in the flight ring")
	}

	reason, snap := classifyAbort(err)
	if reason != "watchdog-stall" {
		t.Fatalf("classifyAbort reason = %q, want watchdog-stall", reason)
	}
	dump := r.Flight.Dump(reason, snap)
	if dump.Snapshot == "" || !strings.Contains(dump.Snapshot, "queued") {
		t.Errorf("dump snapshot missing engine state: %q", dump.Snapshot)
	}
	if _, err := json.Marshal(dump); err != nil {
		t.Fatalf("dump not serializable: %v", err)
	}
}

// TestSweepExecutorWrapsFlightError runs a doomed point spec through the
// sweep executor's abort path and asserts it comes back as an
// *obs.FlightError whose dump is stamped with the point's store key — the
// contract the sweep status's postmortem relies on.
func TestSweepExecutorWrapsFlightError(t *testing.T) {
	spec := PointSpec{
		Mix: "mcf", Arch: "sectored", Policy: "dap",
		Cores: 2, Instr: 150_000, Warm: 60_000, Quick: true,
	}
	// No public knob injects faults through a PointSpec, so exercise the same
	// path sweepConfig feeds: resolve, poison, run.
	cfg, mix, err := sweepConfig(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Flight {
		t.Fatal("sweepConfig did not enable the flight recorder")
	}
	cfg.WatchdogEvents = 10_000
	cfg.Faults = &faultinject.Plan{DropReadEvery: 1, DropReadAfter: 1000}
	res, runErr := RunSeededE(cfg, mix, 0)
	if runErr == nil {
		t.Fatal("poisoned run completed normally")
	}
	reason, snap := classifyAbort(runErr)
	dump := res.Flight.Dump(reason, snap)
	dump.Key = SweepKey(spec)
	fe := &obs.FlightError{Dump: dump, Err: runErr}

	var got *obs.FlightError
	if !errors.As(error(fe), &got) {
		t.Fatal("FlightError lost through errors.As")
	}
	if got.Dump.Key == "" || got.Dump.Reason != "watchdog-stall" {
		t.Fatalf("dump context = %+v", got.Dump)
	}
}

// TestSweepExecutorLogsWithCorr runs one real point through SweepExecutor
// with a capture logger on the context and asserts the start and done
// records both carry the point's store key as their correlation value.
func TestSweepExecutorLogsWithCorr(t *testing.T) {
	var buf bytes.Buffer
	ctx := obs.WithLogger(context.Background(), slog.New(slog.NewJSONHandler(&buf, nil)))
	spec := PointSpec{
		Mix: "mcf", Arch: "sectored", Policy: "baseline",
		Cores: 1, Instr: 60_000, Warm: 30_000, Quick: true,
	}
	payload, err := SweepExecutor(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(payload, []byte(`"agg_ipc"`)) {
		t.Fatalf("payload missing agg_ipc: %s", payload)
	}
	logs := buf.String()
	if strings.Count(logs, `"corr":"`+SweepKey(spec)+`"`) < 2 {
		t.Fatalf("expected start+done records stamped with corr, got:\n%s", logs)
	}
	if !strings.Contains(logs, "simulation start") || !strings.Contains(logs, "simulation done") {
		t.Fatalf("missing lifecycle records:\n%s", logs)
	}
}
