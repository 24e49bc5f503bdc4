// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md for the experiment index). Each benchmark drives the
// corresponding experiment end-to-end and logs the reproduced table; the
// reported metric "gmean_speedup" (or "GBps" for Figure 1) is the headline
// number to compare against the paper.
//
// Run with:
//
//	go test -bench=. -benchmem            # quick-scale experiments
//	go test -bench=. -benchmem -jobs 8    # fan simulations across 8 workers
//
// cmd/figures runs the full-length versions used for EXPERIMENTS.md.
package dap_test

import (
	"flag"
	"testing"

	"dap/internal/cache"
	"dap/internal/dram"
	"dap/internal/harness"
	"dap/internal/mem"
	"dap/internal/sim"
	"dap/internal/workload"
)

// -jobs is the benchmarks' -j knob: simulations per experiment run
// concurrently, with output bit-identical to a serial run (0 = GOMAXPROCS).
var benchJobs = flag.Int("jobs", 0, "concurrent simulations per figure benchmark (0 = GOMAXPROCS, 1 = serial)")

var quick = harness.Options{Quick: true}

func quickOpts() harness.Options {
	o := quick
	o.Parallel = *benchJobs
	return o
}

// benchFigure runs an experiment once per iteration and reports its summary.
func benchFigure(b *testing.B, run func(harness.Options) harness.Figure, metric string) {
	var fig harness.Figure
	for i := 0; i < b.N; i++ {
		fig = run(quickOpts())
	}
	b.Log("\n" + fig.String())
	if len(fig.Series) > 0 && metric != "" {
		b.ReportMetric(fig.Series[len(fig.Series)-1].Summary, metric)
	}
}

// BenchmarkFig01BandwidthVsHitRate reproduces Figure 1: delivered bandwidth
// against memory-side cache hit rate for the DRAM and eDRAM caches.
func BenchmarkFig01BandwidthVsHitRate(b *testing.B) {
	var fig harness.Figure
	for i := 0; i < b.N; i++ {
		fig = harness.Fig01(quickOpts())
	}
	b.Log("\n" + fig.String())
	b.ReportMetric(fig.Series[0].Values[len(fig.Series[0].Values)-1], "GBps_dram_100pct")
}

// BenchmarkFig02EDRAMCapacity reproduces Figure 2: speedup and miss-rate
// drop from doubling the eDRAM cache.
func BenchmarkFig02EDRAMCapacity(b *testing.B) {
	benchFigure(b, harness.Fig02, "mean_missdrop_pp")
}

// BenchmarkFig04BandwidthSensitivity reproduces Figure 4: the effect of
// doubling the DRAM cache bandwidth, plus each snippet's L3 MPKI.
func BenchmarkFig04BandwidthSensitivity(b *testing.B) {
	benchFigure(b, harness.Fig04, "mean_mpki")
}

// BenchmarkFig05TagCache reproduces Figure 5: the benefit of the SRAM tag
// cache and its miss ratio.
func BenchmarkFig05TagCache(b *testing.B) {
	benchFigure(b, harness.Fig05, "mean_tagmiss")
}

// BenchmarkFig06DAPSectored reproduces Figure 6: DAP's weighted speedup on
// the sectored DRAM cache (paper: 15.2% mean on the bandwidth-sensitive set).
func BenchmarkFig06DAPSectored(b *testing.B) {
	var fig harness.Figure
	for i := 0; i < b.N; i++ {
		fig = harness.Fig06(quickOpts())
	}
	b.Log("\n" + fig.String())
	b.ReportMetric(fig.Series[0].Summary, "gmean_speedup")
}

// BenchmarkFig07DAPDecisionMix reproduces Figure 7: the FWB/WB/IFRM/SFRM
// decision shares (paper means: 23/40/12/25%).
func BenchmarkFig07DAPDecisionMix(b *testing.B) {
	benchFigure(b, harness.Fig07, "mean_sfrm_share")
}

// BenchmarkFig08CASFraction reproduces Figure 8: main-memory CAS fraction
// and cache hit-rate under baseline, FWB+WB and full DAP.
func BenchmarkFig08CASFraction(b *testing.B) {
	benchFigure(b, harness.Fig08, "mean_hit_dap")
}

// BenchmarkTab01WindowEfficiency reproduces Table I: sensitivity to the
// window size W and bandwidth efficiency E.
func BenchmarkTab01WindowEfficiency(b *testing.B) {
	benchFigure(b, harness.Tab01, "gmean_last")
}

// BenchmarkFig09MainMemorySensitivity reproduces Figure 9: DAP under
// DDR4-2400 (with and without I/O latency), LPDDR4 and DDR4-3200.
func BenchmarkFig09MainMemorySensitivity(b *testing.B) {
	benchFigure(b, harness.Fig09, "gmean_ddr4_3200")
}

// BenchmarkFig10CapacityBandwidth reproduces Figure 10: DAP across cache
// capacities (2/4/8 GB scaled) and bandwidths (102.4/128/204.8 GB/s).
func BenchmarkFig10CapacityBandwidth(b *testing.B) {
	benchFigure(b, harness.Fig10, "gmean_204GBps")
}

// BenchmarkFig11RelatedProposals reproduces Figure 11: SBD, SBD-WT and
// BATMAN against DAP.
func BenchmarkFig11RelatedProposals(b *testing.B) {
	benchFigure(b, harness.Fig11, "gmean_dap")
}

// BenchmarkFig12AllWorkloads reproduces Figure 12: DAP across the full
// 44-workload suite (paper: 13% average).
func BenchmarkFig12AllWorkloads(b *testing.B) {
	benchFigure(b, harness.Fig12, "gmean_speedup")
}

// BenchmarkFig13SixteenCores reproduces Figure 13: DAP on a sixteen-core
// system with an 8 GB / 204.8 GB/s cache (paper: 14.6%).
func BenchmarkFig13SixteenCores(b *testing.B) {
	benchFigure(b, harness.Fig13, "gmean_speedup")
}

// BenchmarkFig14AlloyCache reproduces Figure 14: BEAR and DAP on the Alloy
// cache plus main-memory CAS fractions.
func BenchmarkFig14AlloyCache(b *testing.B) {
	benchFigure(b, harness.Fig14, "mean_cas_dap")
}

// BenchmarkFig15EDRAMDAP reproduces Figure 15: DAP on 256 MB and 512 MB
// eDRAM caches with the hit-rate deltas.
func BenchmarkFig15EDRAMDAP(b *testing.B) {
	benchFigure(b, harness.Fig15, "mean_dhit_512dap")
}

// Ablations of DAP design choices (DESIGN.md).

// BenchmarkAblCreditWidth sweeps the credit-counter saturation value.
func BenchmarkAblCreditWidth(b *testing.B) {
	benchFigure(b, harness.AblationCreditWidth, "gmean_cap4095")
}

// BenchmarkAblKApprox sweeps the hardware K-approximation precision.
func BenchmarkAblKApprox(b *testing.B) {
	benchFigure(b, harness.AblationKApprox, "gmean_den64")
}

// BenchmarkAblSFRMReserve sweeps the SFRM bandwidth reserve (paper: 0.8).
func BenchmarkAblSFRMReserve(b *testing.B) {
	benchFigure(b, harness.AblationSFRMReserve, "gmean_reserve100")
}

// BenchmarkAblTechniques disables one DAP technique at a time.
func BenchmarkAblTechniques(b *testing.B) {
	benchFigure(b, harness.AblationTechniques, "gmean_noSFRM")
}

// BenchmarkAblLearning compares raw-window learning against EWMA smoothing.
func BenchmarkAblLearning(b *testing.B) {
	benchFigure(b, harness.AblationLearning, "gmean_ewma")
}

// BenchmarkAblThreadAware evaluates the thread-aware IFRM variant on
// heterogeneous mixes.
func BenchmarkAblThreadAware(b *testing.B) {
	benchFigure(b, harness.AblationThreadAware, "gmean_threadaware")
}

// BenchmarkAblReplacement compares sector replacement policies under DAP.
func BenchmarkAblReplacement(b *testing.B) {
	benchFigure(b, harness.AblationReplacement, "gmean_random")
}

// BenchmarkAblFootprint measures the footprint prefetcher's contribution.
func BenchmarkAblFootprint(b *testing.B) {
	benchFigure(b, harness.AblationFootprint, "gmean_nofootprint")
}

// Substrate microbenchmarks (ns/op figures for the building blocks).

// BenchmarkEngineEvent measures event scheduling/dispatch cost through a
// top-level handler with a pointer ctx — exactly how the simulator's hot
// paths schedule — so the benchmark reports the engine's own cost: with the
// timing wheel it must be allocation-free.
func countEvent(ctx any, _ uint64, _ mem.Cycle) { *ctx.(*int)++ }

func BenchmarkEngineEvent(b *testing.B) {
	eng := sim.New()
	n := 0
	for i := 0; i < b.N; i++ {
		eng.AfterArg(mem.Cycle(i%64), countEvent, &n, 0)
		if eng.Pending() > 1024 {
			eng.Drain()
		}
	}
	eng.Drain()
	if n != b.N {
		b.Fatal("event loss")
	}
}

// BenchmarkCacheLookup measures set-associative lookup cost.
func BenchmarkCacheLookup(b *testing.B) {
	c := cache.NewBytes(8*mem.MiB, 16, cache.LRU)
	for i := 0; i < 1<<16; i++ {
		c.Insert(mem.Addr(i)<<mem.LineShift, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(mem.Addr(i%(1<<16)) << mem.LineShift)
	}
}

// BenchmarkDRAMStream measures the DRAM channel model's throughput in
// simulated accesses per wall-clock second.
func BenchmarkDRAMStream(b *testing.B) {
	eng := sim.New()
	dev := dram.NewDevice(dram.HBM102(), eng)
	for i := 0; i < b.N; i++ {
		dev.Access(mem.Addr(i)<<mem.LineShift, mem.ReadKind, 0, nil)
		if dev.QueueLen() > 512 {
			eng.Drain()
		}
	}
	eng.Drain()
}

// BenchmarkWorkloadGen measures access-stream generation cost.
func BenchmarkWorkloadGen(b *testing.B) {
	spec, _ := workload.ByName("mcf")
	s := workload.NewStream(spec, workload.CoreSpacing, 1)
	for i := 0; i < b.N; i++ {
		s.Next()
	}
}

// BenchmarkEndToEndQuickRun measures a full quick simulation (the unit every
// figure experiment is built from).
func BenchmarkEndToEndQuickRun(b *testing.B) {
	cfg := harness.Quick()
	cfg.Policy = harness.DAP
	spec, _ := workload.ByName("libquantum")
	mix := workload.RateMix(spec, cfg.CPU.Cores)
	for i := 0; i < b.N; i++ {
		harness.RunMix(cfg, mix)
	}
}

// BenchmarkEndToEndCheckpointResume measures the warmup-checkpoint fast
// path end to end: serializing a warmed system, restoring the blob into a
// freshly built one, and running a short timed region from it. Compare
// against BenchmarkEndToEndQuickRun, whose cost is dominated by re-running
// the functional warmup this path skips.
func BenchmarkEndToEndCheckpointResume(b *testing.B) {
	cfg := harness.Quick()
	cfg.Policy = harness.DAP
	cfg.MeasureInstr = 100_000
	spec, _ := workload.ByName("libquantum")
	mix := workload.RateMix(spec, cfg.CPU.Cores)
	warm := harness.Build(cfg, mix)
	warm.Warmup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := warm.SaveCheckpoint()
		if err != nil {
			b.Fatal(err)
		}
		s := harness.Build(cfg, mix)
		if err := s.LoadCheckpoint(blob); err != nil {
			b.Fatal(err)
		}
		s.Measure()
	}
}

// benchReplicate measures the runner's wall-clock scaling: six seeded quick
// replicas fanned across j workers. The ratio Serial/J8 is the delivered
// parallel speedup; it tracks the host's available CPUs (bit-identical
// results either way).
func benchReplicate(b *testing.B, j int) {
	cfg := harness.Quick()
	spec, _ := workload.ByName("libquantum")
	mix := workload.RateMix(spec, cfg.CPU.Cores)
	for i := 0; i < b.N; i++ {
		harness.ReplicateParallel(j, cfg, mix, 6, func(harness.Result) float64 { return 0 })
	}
}

func BenchmarkReplicate6Serial(b *testing.B) { benchReplicate(b, 1) }
func BenchmarkReplicate6J8(b *testing.B)     { benchReplicate(b, 8) }
