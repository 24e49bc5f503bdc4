package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// tinySweepSpec is the smallest point that exercises the full simulator path.
func tinySweepSpec() PointSpec {
	return PointSpec{
		Mix: "mcf", Arch: "sectored", Policy: "baseline", Seed: 0,
		Cores: 2, Instr: 40_000, Warm: 20_000, Quick: true,
	}
}

func TestParseArchPolicyRoundTrip(t *testing.T) {
	for _, a := range []Arch{SectoredDRAM, AlloyCache, SectoredEDRAM, NoMSCache} {
		got, err := ParseArch(a.String())
		if err != nil || got != a {
			t.Fatalf("ParseArch(%q) = %v, %v", a.String(), got, err)
		}
	}
	for _, p := range []Policy{Baseline, DAP, DAPFWBWB, SBD, SBDWT, BATMAN} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseArch("bogus"); err == nil {
		t.Fatal("ParseArch accepted bogus")
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy accepted bogus")
	}
}

func TestSweepValidate(t *testing.T) {
	if err := SweepValidate(tinySweepSpec()); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for _, bad := range []PointSpec{
		{Mix: "no-such-mix", Arch: "sectored", Policy: "baseline"},
		{Mix: "mcf", Arch: "bogus", Policy: "baseline"},
		{Mix: "mcf", Arch: "sectored", Policy: "bogus"},
	} {
		if err := SweepValidate(bad); err == nil {
			t.Fatalf("invalid spec accepted: %+v", bad)
		}
	}
}

func TestSweepKeyIsFingerprintBased(t *testing.T) {
	spec := tinySweepSpec()
	k1 := SweepKey(spec)
	k2 := SweepKey(spec)
	if k1 != k2 || k1 == "" {
		t.Fatalf("key not stable: %q vs %q", k1, k2)
	}
	cfg, _, err := sweepConfig(spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := Fingerprint(cfg) + "-mcf-s0"; k1 != want {
		t.Fatalf("key = %q; want %q", k1, want)
	}
	// Any behavior-affecting knob moves the key.
	for _, mutate := range []func(*PointSpec){
		func(s *PointSpec) { s.Policy = "dap" },
		func(s *PointSpec) { s.Arch = "alloy" },
		func(s *PointSpec) { s.Seed = 1 },
		func(s *PointSpec) { s.Instr = 50_000 },
		func(s *PointSpec) { s.Cores = 4 },
	} {
		other := tinySweepSpec()
		mutate(&other)
		if SweepKey(other) == k1 {
			t.Fatalf("key unchanged for %+v", other)
		}
	}
	// Mixes share a config fingerprint but not a key.
	other := tinySweepSpec()
	other.Mix = "lbm"
	if SweepKey(other) == k1 {
		t.Fatal("key ignores the mix")
	}
}

// TestSweepExecutorDeterministicPayload is the property the whole result
// store relies on: the same spec yields byte-identical payloads, so a
// stored result is always interchangeable with a fresh simulation.
func TestSweepExecutorDeterministicPayload(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	spec := tinySweepSpec()
	p1, err := SweepExecutor(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := SweepExecutor(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p1, p2) {
		t.Fatal("executor payloads differ across identical runs")
	}
	var res SweepResult
	if err := json.Unmarshal(p1, &res); err != nil {
		t.Fatalf("payload not valid JSON: %v", err)
	}
	if res.Mix != "mcf" || res.Arch != "sectored" || res.Policy != "baseline" || res.AggIPC <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.Run.Cycles == 0 || len(res.Run.Cores) != 2 {
		t.Fatalf("embedded run stats empty: %+v", res.Run)
	}
}

// TestSweepExecutorSampledJob runs a Sampled spec through the
// checkpoint-aware executor: the payload must carry the sampling report,
// the Sampled knob must move the store key (a sampled result is not
// interchangeable with a full run's), and the shared cache must have
// warmed at most once.
func TestSweepExecutorSampledJob(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	spec := tinySweepSpec()
	spec.Sampled = true
	if SweepKey(spec) == SweepKey(tinySweepSpec()) {
		t.Fatal("Sampled does not move the sweep key")
	}
	ck := MemCheckpoints()
	exec := SweepExecutorCkpt(ck)
	payload, err := exec(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var res SweepResult
	if err := json.Unmarshal(payload, &res); err != nil {
		t.Fatal(err)
	}
	if res.Sampling == nil {
		t.Fatalf("sampled job carries no sampling report: %+v", res)
	}
	if !res.Sampling.Converged && !res.Sampling.FellBack {
		t.Fatalf("sampling report neither converged nor fell back: %+v", res.Sampling)
	}
	if got := ck.Builds(); got > 1 {
		t.Fatalf("builds = %d, want at most 1", got)
	}
}

func TestSweepExecutorRejectsBadSpec(t *testing.T) {
	if _, err := SweepExecutor(context.Background(), PointSpec{Mix: "nope", Arch: "sectored", Policy: "baseline"}); err == nil {
		t.Fatal("executor ran an unresolvable spec")
	}
}
