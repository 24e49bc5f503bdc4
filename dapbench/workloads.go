package main

import (
	"fmt"

	"dap/internal/dram"
	"dap/internal/harness"
	"dap/internal/workload"
)

// point is one figure point: a full system configuration and mix, run from
// scratch (warm + measure) or restored from a shared warm checkpoint.
type point struct {
	cfg  harness.Config
	mix  workload.Mix
	mm   string // main-memory technology
	ckpt bool   // restores from the warm checkpoint of its WarmKey
}

func (p point) String() string {
	return fmt.Sprintf("%s/%s/%s/%s", p.cfg.Arch, p.mix.Name, p.cfg.Policy, p.mm)
}

// benchWorkload is one workload: the figure points of one sweep, in the
// order they run.
type benchWorkload struct {
	name   string
	points []point
	// sweepS is the expected host seconds of one sweep on a 2-CPU host. It
	// turns --seconds into a fixed number of sweeps, so both sides of an
	// A/B comparison do the same work.
	sweepS float64
}

var workloadNames = []string{"warm-fill", "ckpt-read", "ckpt-write-obs"}

var archs = []harness.Arch{harness.SectoredDRAM, harness.AlloyCache, harness.SectoredEDRAM}

type mainMemory struct {
	name string
	cfg  dram.Config
}

// newWorkload expands a workload name into its sweep over the base
// configuration (harness.Quick() for the benchmark, smaller in tests).
func newWorkload(name string, base harness.Config) (*benchWorkload, error) {
	cores := base.CPU.Cores
	mix := func(name string) workload.Mix {
		if sp, ok := workload.ByName(name); ok {
			return workload.RateMix(sp, cores)
		}
		for _, m := range workload.HeterogeneousMixes(cores) {
			if m.Name == name {
				return m
			}
		}
		panic("dapbench: unknown mix " + name)
	}
	ddr2400 := mainMemory{"DDR4-2400", dram.DDR4_2400()}
	ddr3200 := mainMemory{"DDR4-3200", dram.DDR4_3200()}

	w := &benchWorkload{name: name}
	add := func(arch harness.Arch, m workload.Mix, pol harness.Policy, mm mainMemory, ckpt, observe bool) {
		cfg := base
		cfg.Arch, cfg.Policy, cfg.MainMemory = arch, pol, mm.cfg
		if observe {
			cfg.Decisions = true
			cfg.MetricsEvery = 10_000
		}
		w.points = append(w.points, point{cfg: cfg, mix: m, mm: mm.name, ckpt: ckpt})
	}
	switch name {
	case "warm-fill":
		w.sweepS = 16
		for _, arch := range archs {
			for _, m := range []string{"libquantum", "parboil-lbm", "mcf", "hetero-dis-01"} {
				add(arch, mix(m), harness.Baseline, ddr2400, false, false)
			}
		}
	case "ckpt-read":
		w.sweepS = 10
		for _, arch := range archs {
			for _, m := range []string{"hpcg", "mcf"} {
				for _, pol := range []harness.Policy{harness.Baseline, harness.DAP} {
					for _, mm := range []mainMemory{ddr2400, ddr3200} {
						add(arch, mix(m), pol, mm, true, false)
					}
				}
			}
		}
	case "ckpt-write-obs":
		w.sweepS = 13
		for _, arch := range archs {
			pols := []harness.Policy{harness.Baseline, harness.DAP}
			if arch == harness.SectoredDRAM {
				pols = append(pols, harness.SBDWT, harness.BATMAN)
			}
			for _, m := range []string{"parboil-lbm", "gcc.s04"} {
				for _, pol := range pols {
					add(arch, mix(m), pol, ddr2400, true, true)
				}
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// sweeps is the number of sweeps a run of the given length makes.
func (w *benchWorkload) sweeps(seconds float64) int {
	if n := int(seconds / w.sweepS); n > 1 {
		return n
	}
	return 1
}
