package harness

import (
	"fmt"
	"math"

	"dap/internal/mem"
	"dap/internal/stats"
	"dap/internal/telemetry"
)

// SMARTS-style interval sampling: the timed region is replaced by a train
// of short measured intervals separated by functional fast-forward. Each
// interval is a complete mini-run (every core retires MeasureInstr/50
// instructions, at least sampleMinInterval, under full timing); between
// intervals the cores fast-forward sampleFF accesses functionally — same
// warmup machinery, no engine time — so the caches and predictors track the
// workload while the detailed model is off. Per-interval aggregate IPC,
// delivered bandwidth and MS$ hit ratio feed a Student-t 95% confidence
// interval; once the IPC half-width drops under sampleCI of the mean (after
// at least sampleMinN intervals) the run stops early. If sampleMaxN
// intervals don't get there, the harness falls back to the full timed run.
const (
	// sampleMinInterval floors the measured-interval length: below ~25k
	// instructions the empty queues each interval starts from (a
	// cold-start optimism) bias IPC visibly.
	sampleMinInterval = 25_000
	// sampleFF is the fast-forward length in accesses per core. Functional
	// warm costs about as much per access as detailed simulation, so the
	// fast-forward is decorrelation, not savings; 10k accesses per core is
	// enough to shuffle queue phase between intervals without dominating
	// the sampled run's wall clock.
	sampleFF = 10_000
	// sampleMinN and sampleMaxN bound the number of measured intervals.
	sampleMinN, sampleMaxN = 8, 40
	// sampleCI is the convergence target: the 95% confidence half-width of
	// aggregate IPC as a fraction of its mean.
	sampleCI = 0.05
)

// MetricCI is a sampled metric: the interval mean with its 95% confidence
// half-width over N intervals.
type MetricCI struct {
	Mean float64
	Half float64
	N    int
}

// Lo and Hi bound the 95% confidence interval.
func (m MetricCI) Lo() float64 { return m.Mean - m.Half }
func (m MetricCI) Hi() float64 { return m.Mean + m.Half }

func (m MetricCI) String() string {
	return fmt.Sprintf("%.4f ± %.4f (n=%d)", m.Mean, m.Half, m.N)
}

// SamplingReport is the estimator's account of a sampled run.
type SamplingReport struct {
	// Intervals is the number of measured intervals executed.
	Intervals int
	// IntervalInstr and FFAccesses echo the resolved per-core interval and
	// fast-forward lengths.
	IntervalInstr uint64
	FFAccesses    int
	// Converged reports whether the IPC confidence target was reached.
	Converged bool
	// FellBack is set when sampling did not converge and the enclosing
	// Result carries a full timed run instead of the sampled estimate.
	FellBack bool

	IPC           MetricCI
	DeliveredGBps MetricCI
	HitRatio      MetricCI
}

// tTable95 holds two-sided 95% Student-t critical values for 1..30 degrees
// of freedom; beyond that the normal approximation is used.
var tTable95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

func tCrit95(df int) float64 {
	if df < 1 {
		return math.Inf(1)
	}
	if df <= len(tTable95) {
		return tTable95[df-1]
	}
	return 1.96
}

// metricCI computes the mean and 95% confidence half-width of the samples.
func metricCI(vals []float64) MetricCI {
	n := len(vals)
	mean := stats.Mean(vals)
	if n < 2 {
		return MetricCI{Mean: mean, Half: math.Inf(1), N: n}
	}
	var ss float64
	for _, v := range vals {
		ss += (v - mean) * (v - mean)
	}
	sd := math.Sqrt(ss / float64(n-1))
	return MetricCI{Mean: mean, Half: tCrit95(n-1) * sd / math.Sqrt(float64(n)), N: n}
}

// runSampled executes the interval-sampling estimator on an already-warm
// system. When the estimator fails to converge it falls back to a full
// timed run on a fresh system (resuming from ck when available), returning
// the full run's Result with the sampling report attached.
func (s *System) runSampled(ck *Checkpoints) Result {
	r, ok := s.sampleIntervals()
	if ok {
		return r
	}
	cfg := s.Cfg
	cfg.Sampled = false
	ns := Build(cfg, s.mix)
	ns.reseed(s.mix, s.seed)
	if ck != nil {
		ns = ck.restoreOrWarm(ns, cfg, s.mix, s.seed)
	} else {
		ns.Warmup()
	}
	full := ns.Measure()
	rep := *r.Sampling
	rep.FellBack = true
	full.Sampling = &rep
	return full
}

// sampleIntervals runs the measured-interval train. It returns ok=false
// only when the run completed normally but did not converge; an aborted run
// (watchdog stall, cycle-budget blowout) comes back ok=true with Abort set
// so the caller surfaces the error instead of paying for a doomed full run.
func (s *System) sampleIntervals() (Result, bool) {
	cfg := s.Cfg
	interval := max(cfg.MeasureInstr/50, sampleMinInterval)
	s.Ctrl.ResetStats()
	s.MM.ResetStats()
	if s.sectored != nil {
		s.sectored.StartBATMAN()
	}

	start := s.Eng.Now()
	limit := cfg.MaxCycles
	if limit == 0 {
		limit = mem.Cycle(400 * cfg.MeasureInstr)
	}
	s.armWatchdog(nil)
	run := telemetry.Runs.Start(telemetry.RunInfo{
		Mix:         s.mixName,
		Arch:        cfg.Arch.String(),
		Policy:      cfg.Policy.String(),
		Fingerprint: Fingerprint(cfg),
		Seed:        s.seed,
		Horizon:     uint64(limit),
	})

	rep := &SamplingReport{IntervalInstr: interval, FFAccesses: sampleFF}
	var ipcs, bws, hrs []float64
	var coreAgg []stats.CoreStats
	var totalCycles mem.Cycle
	var abort error
	ms0 := *s.Ctrl.MSStats()
	var cas0 uint64

	for n := 0; n < sampleMaxN; n++ {
		if n > 0 {
			s.CPU.Warm(sampleFF)
		}
		c0 := s.Eng.Now()
		s.CPU.Start(interval)
		s.Eng.RunWhile(func() bool {
			return !s.CPU.Done() && s.Eng.Now()-start < limit
		})
		if err := s.Eng.Err(); err != nil {
			abort = err
			break
		}
		if !s.CPU.Done() {
			// cumulative cycle budget exhausted mid-interval: treat like the
			// full run's horizon overrun (partial stats, no abort error)
			break
		}
		intervalCycles := s.Eng.Now() - c0
		// Halt fetch and drain the in-flight tail so the next fast-forward
		// starts from a quiesced machine (cpu.Warm requires it).
		s.CPU.Halt()
		s.Eng.RunWhile(func() bool { return !s.CPU.Quiesced() })
		if err := s.Eng.Err(); err != nil {
			abort = err
			break
		}

		cs := s.CPU.CoreStats()
		if coreAgg == nil {
			coreAgg = make([]stats.CoreStats, len(cs))
		}
		// The IPC sample is the sum of per-core IPCs, each over the core's
		// own retirement time — the aggregate the figure drivers report.
		// Dividing total instructions by the interval's wall cycles instead
		// would charge every core for the slowest core's tail, a straggler
		// bias that short intervals amplify.
		var aggIPC float64
		for i := range cs {
			aggIPC += cs[i].IPC()
			mergeCoreStats(&coreAgg[i], &cs[i])
		}
		ms1 := *s.Ctrl.MSStats()
		cas1 := s.Ctrl.CacheCAS() + s.MM.Stats().CAS()
		ipcs = append(ipcs, aggIPC)
		bws = append(bws, mem.GBPerSec((cas1-cas0)*mem.LineBytes, intervalCycles))
		hrs = append(hrs, deltaHitRatio(&ms0, &ms1))
		ms0, cas0 = ms1, cas1
		totalCycles += intervalCycles
		run.Progress(uint64(totalCycles))

		if len(ipcs) >= 4 {
			ci := metricCI(ipcs)
			if ci.Mean <= 0 {
				continue
			}
			if len(ipcs) >= sampleMinN && ci.Half/ci.Mean <= sampleCI {
				rep.Converged = true
				break
			}
			// Predictive abandonment: the half-width shrinks as t(n)/sqrt(n),
			// so the interval count this variance needs is
			// (t(sampleMaxN)·sd / (sampleCI·mean))². A run that provably
			// cannot converge within sampleMaxN intervals stops paying for
			// them now and goes straight to the full-run fallback. Before
			// sampleMinN the sample standard deviation is still noisy, so
			// require a 2x overshoot.
			sd := ci.Half * math.Sqrt(float64(ci.N)) / tCrit95(ci.N-1)
			need := tCrit95(sampleMaxN-1) * sd / (sampleCI * ci.Mean)
			need *= need
			headroom := 1.0
			if len(ipcs) < sampleMinN {
				headroom = 2.0
			}
			if need > headroom*float64(sampleMaxN) {
				break
			}
		}
	}
	if s.dap != nil {
		s.dap.Stop()
	}

	rep.Intervals = len(ipcs)
	rep.IPC = metricCI(ipcs)
	rep.DeliveredGBps = metricCI(bws)
	rep.HitRatio = metricCI(hrs)

	var r Result
	r.Config = cfg
	r.Sampling = rep
	r.Abort = abort
	r.Cycles = totalCycles
	r.Cores = coreAgg
	r.MemSide = *s.Ctrl.MSStats()
	r.DAP = s.Part.Decisions()
	r.MSCacheCAS = s.Ctrl.CacheCAS()
	r.MainMemCAS = s.MM.Stats().CAS()
	if totalCycles > 0 {
		r.DeliveredGBps = mem.GBPerSec((r.MSCacheCAS+r.MainMemCAS)*mem.LineBytes, totalCycles)
	}

	var aggIPC float64
	for i := range r.Cores {
		aggIPC += r.Cores[i].IPC()
	}
	run.Finish(abort, map[string]float64{
		"ipc":            aggIPC,
		"cycles":         float64(r.Cycles),
		"delivered_gbps": r.DeliveredGBps,
	})
	return r, abort != nil || rep.Converged
}

// mergeCoreStats folds one interval's per-core stats into the running total.
func mergeCoreStats(dst, src *stats.CoreStats) {
	dst.Instructions += src.Instructions
	dst.Cycles += src.Cycles
	dst.L3Misses += src.L3Misses
	dst.L3ReadMissLatSum += src.L3ReadMissLatSum
	dst.L3ReadMisses += src.L3ReadMisses
	for i := range dst.L3MissLat.Buckets {
		dst.L3MissLat.Buckets[i] += src.L3MissLat.Buckets[i]
	}
	dst.L3MissLat.Count += src.L3MissLat.Count
	dst.L3MissLat.Sum += src.L3MissLat.Sum
	if src.L3MissLat.MaxSeen > dst.L3MissLat.MaxSeen {
		dst.L3MissLat.MaxSeen = src.L3MissLat.MaxSeen
	}
}

// deltaHitRatio is the MS$ hit ratio over the window between two snapshots.
func deltaHitRatio(a, b *stats.MemSideStats) float64 {
	h := (b.ReadHits - a.ReadHits) + (b.WriteHits - a.WriteHits)
	m := (b.ReadMisses - a.ReadMisses) + (b.WriteMisses - a.WriteMisses)
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
