package main

import (
	"sort"
	"time"

	"dap/internal/harness"
)

type metricUnit struct{ name, unit string }

// endToEndMetrics are reported by an untraced run (--trace 0).
var endToEndMetrics = []metricUnit{
	{"sweep_s", "s"},
	{"sim_mips", "Minstr/s"},
	{"point_s_p50", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
	{"ok_frac", "ratio"},
}

var policyNames = []harness.Policy{harness.Baseline, harness.DAP, harness.SBDWT, harness.BATMAN}

// perLayerMetrics are reported by a traced run (--trace 1).
var perLayerMetrics = func() []metricUnit {
	m := []metricUnit{
		{"build_s", "s"}, {"warm_s", "s"}, {"ckpt.load_s", "s"}, {"measure_s", "s"},
		{"point.self_s", "s"}, {"ckpt.save_s", "s"}, {"setup.warm_s", "s"},
		{"warm.maps", "Maccess/s"},
	}
	for _, a := range archs {
		m = append(m, metricUnit{"warm.maps." + a.String(), "Maccess/s"})
	}
	m = append(m, metricUnit{"measure.mips", "Minstr/s"})
	for _, a := range archs {
		m = append(m, metricUnit{"measure.mips." + a.String(), "Minstr/s"})
	}
	for _, p := range policyNames {
		m = append(m, metricUnit{"measure.mips." + p.String(), "Minstr/s"})
	}
	m = append(m, metricUnit{"measure.ns_per_l3miss", "ns"})
	for _, a := range archs {
		m = append(m, metricUnit{"ckpt.blob_mb." + a.String(), "MB"}, metricUnit{"ckpt.load_ms." + a.String(), "ms"})
	}
	m = append(m,
		metricUnit{"obs.decision_records", "count"}, metricUnit{"obs.metric_rows", "count"},
		metricUnit{"sim.cycles", "cycles"}, metricUnit{"cpu.instr", "count"}, metricUnit{"cpu.l3_misses", "count"},
		metricUnit{"mscache.read_hit_ratio", "ratio"}, metricUnit{"mscache.write_hit_ratio", "ratio"},
		metricUnit{"mscache.tagcache_miss_ratio", "ratio"},
		metricUnit{"dram.cas_cache", "count"}, metricUnit{"dram.cas_main", "count"}, metricUnit{"dram.main_cas_frac", "ratio"},
		metricUnit{"core.fwb", "count"}, metricUnit{"core.wb", "count"}, metricUnit{"core.ifrm", "count"},
		metricUnit{"core.sfrm", "count"}, metricUnit{"core.sfrm_waste", "ratio"},
	)
	for _, l := range layers {
		m = append(m, metricUnit{"cpu_share." + l, "ratio"})
	}
	return append(m,
		metricUnit{"host.probe_ms", "ms"}, metricUnit{"host.sweep_s", "s"},
		metricUnit{"runtime.gc_count", "count"}, metricUnit{"runtime.gc_pause_ms", "ms"},
		metricUnit{"alloc.mb_per_point", "MB"}, metricUnit{"trace.overhead", "ratio"},
	)
}()

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (JSON has no NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func seconds(d time.Duration) float64 { return d.Seconds() }

// sweepSeconds is the host time of each sweep's figure points.
func sweepSeconds(sweeps [][]pointResult) []float64 {
	out := make([]float64, len(sweeps))
	for i, sw := range sweeps {
		for _, r := range sw {
			out[i] += seconds(r.phases.total)
		}
	}
	return out
}

func pointSeconds(sweeps [][]pointResult) []float64 {
	var out []float64
	for _, sw := range sweeps {
		for _, r := range sw {
			out = append(out, seconds(r.phases.total))
		}
	}
	return out
}

func probeSeconds(sweeps [][]pointResult) []float64 {
	var out []float64
	for _, sw := range sweeps {
		for _, r := range sw {
			out = append(out, seconds(r.probe))
		}
	}
	return out
}

func sweepInstructions(sw []pointResult) float64 {
	var n float64
	for _, r := range sw {
		n += float64(r.instructions())
	}
	return n
}

// endToEnd computes the untraced run's metrics. Timings are in
// reference-host seconds (see probeRefS).
func endToEnd(o *outcome) map[string]float64 {
	var points, sweeps []float64
	ok := 0
	for _, sw := range o.plain {
		var sum float64
		for _, r := range sw {
			t := scaled(r.phases.total, r.probe)
			points = append(points, t)
			sum += t
			if r.ok() {
				ok++
			}
		}
		sweeps = append(sweeps, sum)
	}
	setup := make([]float64, len(o.setup))
	for i, d := range o.setup {
		setup[i] = scaled(d, o.setupProbe[i])
	}
	sweep := median(sweeps)
	return map[string]float64{
		"sweep_s":     sweep,
		"sim_mips":    ratio(sweepInstructions(o.plain[0]), sweep) / 1e6,
		"point_s_p50": median(points),
		"setup_s":     median(setup),
		"peak_rss_mb": o.peakRSS / 1e6,
		"alloc_mb":    float64(o.mem.alloc) / 1e6,
		"ok_frac":     ratio(float64(ok), float64(len(points))),
	}
}

// perLayer computes the traced run's metrics. Phase times and counts are
// per sweep; rates pool every traced point.
func perLayer(o *outcome) map[string]float64 {
	m := map[string]float64{}
	n := float64(len(o.traced))
	var instr, measure, l3 float64
	mipsBy := map[string][2]float64{} // group → {instructions, measure seconds}
	loadMS := map[string][]float64{}
	warmBy := map[string][2]float64{} // group → {accesses, seconds}
	addWarm := func(arch harness.Arch, d time.Duration, accesses int) {
		for _, g := range []string{"", "." + arch.String()} {
			w := warmBy[g]
			warmBy[g] = [2]float64{w[0] + float64(accesses), w[1] + seconds(d)}
		}
	}
	for _, sw := range o.traced {
		for _, r := range sw {
			ph := r.phases
			m["build_s"] += seconds(ph.build) / n
			m["warm_s"] += seconds(ph.warm) / n
			m["ckpt.load_s"] += seconds(ph.load) / n
			m["measure_s"] += seconds(ph.measure) / n
			m["point.self_s"] += seconds(ph.total-ph.build-ph.load-ph.warm-ph.measure) / n
			in := float64(r.instructions())
			instr += in
			measure += seconds(ph.measure)
			for _, c := range r.run.Cores {
				l3 += float64(c.L3Misses)
			}
			for _, g := range []string{r.p.cfg.Arch.String(), r.p.cfg.Policy.String()} {
				v := mipsBy[g]
				mipsBy[g] = [2]float64{v[0] + in, v[1] + seconds(ph.measure)}
			}
			if r.p.ckpt {
				a := r.p.cfg.Arch.String()
				loadMS[a] = append(loadMS[a], seconds(ph.load)*1e3)
			}
			if ph.warm > 0 {
				addWarm(r.p.cfg.Arch, ph.warm, r.p.cfg.WarmAccesses*r.p.cfg.CPU.Cores)
			}
		}
	}
	for _, w := range o.warms {
		addWarm(w.arch, w.d, w.accesses)
	}
	for _, s := range o.tr.spans {
		if s.point < 0 { // set-up spans
			switch s.name {
			case "ckpt.save":
				m["ckpt.save_s"] += seconds(s.end.Sub(s.start)) / float64(len(o.setup))
			case "warm":
				m["setup.warm_s"] += seconds(s.end.Sub(s.start)) / float64(len(o.setup))
			}
		}
	}
	m["warm.maps"] = ratio(warmBy[""][0], warmBy[""][1]) / 1e6
	m["measure.mips"] = ratio(instr, measure) / 1e6
	m["measure.ns_per_l3miss"] = ratio(measure*1e9, l3)
	for _, a := range archs {
		w := warmBy["."+a.String()]
		m["warm.maps."+a.String()] = ratio(w[0], w[1]) / 1e6
		v := mipsBy[a.String()]
		m["measure.mips."+a.String()] = ratio(v[0], v[1]) / 1e6
		m["ckpt.load_ms."+a.String()] = median(loadMS[a.String()])
	}
	for _, p := range policyNames {
		v := mipsBy[p.String()]
		m["measure.mips."+p.String()] = ratio(v[0], v[1]) / 1e6
	}
	blobs := map[string][]float64{}
	for _, p := range o.w.points {
		if p.ckpt {
			a := p.cfg.Arch.String()
			blobs[a] = append(blobs[a], float64(len(o.blobs[harness.WarmKey(p.cfg, p.mix, o.seed)]))/1e6)
		}
	}
	for _, a := range archs {
		m["ckpt.blob_mb."+a.String()] = median(blobs[a.String()])
	}

	// Simulated counts of one sweep: deterministic at a fixed seed.
	var rh, rt, wh, wt, tm, tt, cc, cm, fwb, wb, ifrm, sfrm, sw, sf float64
	for _, r := range o.traced[0] {
		run := r.run
		ms := run.MemSide
		m["sim.cycles"] += float64(run.Cycles)
		m["cpu.instr"] += float64(r.instructions())
		for _, c := range run.Cores {
			m["cpu.l3_misses"] += float64(c.L3Misses)
		}
		m["obs.decision_records"] += float64(r.decisions)
		m["obs.metric_rows"] += float64(r.metricRows)
		rh, rt = rh+float64(ms.ReadHits), rt+float64(ms.ReadHits+ms.ReadMisses)
		wh, wt = wh+float64(ms.WriteHits), wt+float64(ms.WriteHits+ms.WriteMisses)
		tm, tt = tm+float64(ms.TagCacheMisses), tt+float64(ms.TagCacheHits+ms.TagCacheMisses)
		cc, cm = cc+float64(run.MSCacheCAS), cm+float64(run.MainMemCAS)
		fwb, wb = fwb+float64(run.DAP.FWB), wb+float64(run.DAP.WB)
		ifrm, sfrm = ifrm+float64(run.DAP.IFRM), sfrm+float64(run.DAP.SFRM)
		sw, sf = sw+float64(ms.SpecWasted), sf+float64(ms.SpecForced)
	}
	m["mscache.read_hit_ratio"] = ratio(rh, rt)
	m["mscache.write_hit_ratio"] = ratio(wh, wt)
	m["mscache.tagcache_miss_ratio"] = ratio(tm, tt)
	m["dram.cas_cache"], m["dram.cas_main"] = cc, cm
	m["dram.main_cas_frac"] = ratio(cm, cc+cm)
	m["core.fwb"], m["core.wb"], m["core.ifrm"], m["core.sfrm"] = fwb, wb, ifrm, sfrm
	m["core.sfrm_waste"] = ratio(sw, sf)

	var total float64
	for _, v := range o.cpu {
		total += v
	}
	for _, l := range layers {
		m["cpu_share."+l] = ratio(o.cpu[l], total)
	}
	m["host.probe_ms"] = median(probeSeconds(o.traced)) * 1e3
	m["host.sweep_s"] = median(sweepSeconds(o.traced))
	m["runtime.gc_count"] = float64(o.mem.gcs)
	m["runtime.gc_pause_ms"] = seconds(o.mem.pause) * 1e3
	m["alloc.mb_per_point"] = ratio(float64(o.sweepAlloc)/1e6, float64(len(o.traced)*len(o.w.points)))
	m["trace.overhead"] = ratio(median(sweepSeconds(o.traced)), median(sweepSeconds(o.plain))) - 1
	return m
}
