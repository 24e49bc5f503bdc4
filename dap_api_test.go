package dap_test

import (
	"math"
	"strings"
	"testing"

	"dap"
)

func TestPublicAPIQuickRun(t *testing.T) {
	cfg := dap.QuickConfig()
	mix, err := dap.WorkloadByNameE("gcc.expr", cfg.CPU.Cores)
	if err != nil {
		t.Fatal(err)
	}
	r, err := dap.RunE(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles == 0 || len(r.Cores) != cfg.CPU.Cores {
		t.Fatalf("bad result: cycles=%d cores=%d", r.Cycles, len(r.Cores))
	}
}

func TestPublicAPIUnknownWorkloadError(t *testing.T) {
	_, err := dap.WorkloadByNameE("not-a-benchmark", 8)
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	if !strings.Contains(err.Error(), "mcf") {
		t.Fatalf("error does not list the valid names: %v", err)
	}
	if _, err := dap.AloneIPCE(dap.QuickConfig(), "not-a-benchmark"); err == nil {
		t.Fatal("AloneIPCE accepted an unknown workload")
	}
	if w, err := dap.WorkloadByNameE("mcf", 4); err != nil || len(w.Specs) != 4 {
		t.Fatalf("valid workload rejected: %v", err)
	}
}

func TestPublicAPIRunEValidates(t *testing.T) {
	cfg := dap.QuickConfig()
	cfg.Arch = dap.MainMemoryOnly
	cfg.Policy = dap.PolicyDAP // partitioning with nothing to partition
	mix, _ := dap.WorkloadByNameE("mcf", cfg.CPU.Cores)
	if _, err := dap.RunE(cfg, mix); err == nil {
		t.Fatal("RunE accepted DAP on a cacheless system")
	}
}

// The hardening types are part of the facade.
var (
	_ *dap.StallError
	_ *dap.AuditError
	_ dap.FaultPlan
)

func TestPublicAPIWorkloadCatalog(t *testing.T) {
	if n := len(dap.WorkloadNames()); n != 17 {
		t.Fatalf("workloads = %d, want 17", n)
	}
	if n := len(dap.Workloads(8)); n != 44 {
		t.Fatalf("mixes = %d, want 44", n)
	}
	if _, ok := dap.SpecOf("mcf"); !ok {
		t.Fatal("mcf spec must resolve")
	}
}

func TestPublicAPICustomSpec(t *testing.T) {
	spec, _ := dap.SpecOf("gcc.expr")
	spec.Name = "custom"
	spec.FootprintMB = 2
	cfg := dap.QuickConfig()
	cfg.MeasureInstr = 100_000
	cfg.WarmAccesses = 30_000
	r, err := dap.RunE(cfg, dap.CustomRate(spec, cfg.CPU.Cores))
	if err != nil || r.Cycles == 0 {
		t.Fatalf("custom workload failed to run: %v", err)
	}
	mix := dap.CustomMix("pair", []dap.Spec{spec, spec, spec, spec, spec, spec, spec, spec})
	if r, err := dap.RunE(cfg, mix); err != nil || r.Cycles == 0 {
		t.Fatalf("custom mix failed to run: %v", err)
	}
}

func TestPublicAPIBandwidthModel(t *testing.T) {
	// the Section III example
	b := []float64{102.4, 51.2}
	if got := dap.DeliveredBandwidth(b, []float64{0.5, 0.5}); got != 102.4 {
		t.Fatalf("equation 2: %v", got)
	}
	f := dap.OptimalFractions(b)
	if math.Abs(f[0]-2.0/3) > 1e-12 {
		t.Fatalf("equation 4: %v", f)
	}
	if g := dap.GeoMean([]float64{1, 4}); g != 2 {
		t.Fatalf("geomean: %v", g)
	}
}

func TestPublicAPIAloneIPC(t *testing.T) {
	cfg := dap.QuickConfig()
	cfg.MeasureInstr = 100_000
	cfg.WarmAccesses = 50_000
	v, err := dap.AloneIPCE(cfg, "parboil-histo")
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 || v > 4.05 {
		t.Fatalf("alone IPC = %v", v)
	}
}
