package harness

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// obsTestConfig is a heavily shortened DAP run so the determinism test can
// afford to simulate the system twice.
func obsTestConfig() Config {
	cfg := Quick()
	cfg.Policy = DAP
	cfg.WarmAccesses = 40_000
	cfg.MeasureInstr = 120_000
	return cfg
}

// TestObservabilityIsBitIdentical is the tentpole guarantee: enabling the
// tracer and the metrics sampler must not change a single measured value.
// The sampler interleaves extra read-only events and the tracer wraps
// completion callbacks, but stats.Run — every counter, histogram bucket and
// cycle count — must match the uninstrumented run exactly.
func TestObservabilityIsBitIdentical(t *testing.T) {
	mix := traceableMix(4)
	base := obsTestConfig()
	base.CPU.Cores = 4

	inst := base
	inst.Trace = true
	inst.MetricsEvery = 5_000

	plain := RunMix(base, mix)
	obsRun := RunMix(inst, mix)
	if plain.Abort != nil || obsRun.Abort != nil {
		t.Fatalf("aborted runs: plain=%v obs=%v", plain.Abort, obsRun.Abort)
	}
	if !reflect.DeepEqual(plain.Run, obsRun.Run) {
		t.Errorf("instrumented stats.Run differs from uninstrumented run")
		if plain.Cycles != obsRun.Cycles {
			t.Errorf("cycles: plain=%d obs=%d", plain.Cycles, obsRun.Cycles)
		}
	}

	// The instrumented run must actually have observed something.
	if obsRun.Metrics == nil || obsRun.Metrics.Samples() == 0 {
		t.Fatal("sampler recorded no windows")
	}
	if obsRun.Trace == nil || len(obsRun.Trace.Spans()) == 0 {
		t.Fatal("tracer recorded no spans")
	}
	if obsRun.Breakdown == nil || obsRun.Breakdown.Spans() == 0 {
		t.Fatal("latency breakdown is empty")
	}

	// Metrics CSV: credit, bandwidth and per-core series must be present.
	var csv bytes.Buffer
	if err := obsRun.Metrics.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(csv.String(), "\n", 2)[0]
	for _, col := range []string{"cycle", "dap.credit.fwb", "dap.dec.sfrm", "mm.gbps", "ms.gbps", "ms.hit_ratio", "core0.ipc"} {
		if !strings.Contains(header, col) {
			t.Errorf("metrics CSV header missing %q: %s", col, header)
		}
	}

	// Chrome trace: valid JSON in the traceEvents envelope.
	var tj bytes.Buffer
	if err := obsRun.Trace.WriteChromeTrace(&tj); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(tj.Bytes()) {
		t.Error("Chrome trace is not valid JSON")
	}
	if !bytes.Contains(tj.Bytes(), []byte(`"traceEvents"`)) {
		t.Error("Chrome trace missing traceEvents envelope")
	}
}

// TestObservabilityOnAllArchitectures smoke-checks that every controller
// wires the tracer and sampler without aborting, including the
// no-cache baseline (mmOnly) path.
func TestObservabilityOnAllArchitectures(t *testing.T) {
	mix := traceableMix(2)
	for _, tc := range []struct {
		name   string
		arch   Arch
		policy Policy
	}{
		{"alloy", AlloyCache, DAP},
		{"edram", SectoredEDRAM, DAP},
		{"none", NoMSCache, Baseline},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := obsTestConfig()
			cfg.CPU.Cores = 2
			cfg.Arch = tc.arch
			cfg.Policy = tc.policy
			cfg.Trace = true
			cfg.TraceSample = 4
			cfg.MetricsEvery = 10_000
			r := RunMix(cfg, mix)
			if r.Abort != nil {
				t.Fatalf("aborted: %v", r.Abort)
			}
			if len(r.Trace.Spans()) == 0 {
				t.Error("no spans traced")
			}
			if r.Metrics.Samples() == 0 {
				t.Error("no metric windows sampled")
			}
		})
	}
}

// TestObsConfigValidation covers the observer knob cross-check.
func TestObsConfigValidation(t *testing.T) {
	cfg := Quick()
	cfg.TraceSample = 2 // without Trace
	err := cfg.Validate()
	if err == nil {
		t.Fatal("expected validation errors")
	}
	if !strings.Contains(err.Error(), "TraceSample") {
		t.Errorf("validation error missing TraceSample: %v", err)
	}
}
