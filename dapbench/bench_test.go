package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"dap/internal/harness"
)

// tiny is a configuration small enough for every workload to run in a
// test: the full system, but short warmup and timed regions.
func tiny() harness.Config {
	c := harness.Quick()
	c.WarmAccesses = 2_000
	c.MeasureInstr = 5_000
	return c
}

func TestMedianAndRatio(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		in := append([]float64(nil), c.xs...)
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
		if !reflect.DeepEqual(in, c.xs) {
			t.Errorf("median reordered its input: %v", c.xs)
		}
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %v, want 0", got)
	}
	w := &benchWorkload{sweepS: 10}
	for secs, want := range map[float64]int{1: 1, 10: 1, 19: 1, 20: 2, 60: 6} {
		if got := w.sweeps(secs); got != want {
			t.Errorf("sweeps(%v) = %d, want %d", secs, got, want)
		}
	}
	sw := [][]pointResult{
		{{phases: phases{total: time.Second}}, {phases: phases{total: 2 * time.Second}}},
		{{phases: phases{total: 4 * time.Second}}, {phases: phases{total: time.Second}}},
	}
	if got := sweepSeconds(sw); !reflect.DeepEqual(got, []float64{3, 5}) {
		t.Errorf("sweepSeconds = %v, want [3 5]", got)
	}
	refS := probeRefS
	ref := time.Duration(refS * float64(time.Second))
	if got := scaled(3*time.Second, 2*ref); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("3 s with a probe twice the reference scales to %v, want 1.5", got)
	}
}

// TestEveryMetricReportedOnceWithItsUnit runs every workload at tiny scale
// in trace mode and checks both result lines against BENCHMARK.json.
func TestEveryMetricReportedOnceWithItsUnit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, name := range workloadNames {
		w, err := newWorkload(name, tiny())
		if err != nil {
			t.Fatal(err)
		}
		out, err := run(w, options{workload: name, seed: 3, seconds: 1, trace: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			trace bool
			want  []struct{ Name, Unit string }
		}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
			res := summarize(out, c.trace)
			if !res.Correct || res.Failed != 0 || res.Attempted != 2*len(w.points) {
				t.Errorf("%s: correct=%v failed=%d attempted=%d", name, res.Correct, res.Failed, res.Attempted)
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, c.trace, err)
			}
			var back result
			if err := json.Unmarshal(line, &back); err != nil {
				t.Fatal(err)
			}
			if len(back.Metrics) != len(c.want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, c.trace, len(back.Metrics), len(c.want))
			}
			for _, m := range c.want {
				if got, ok := back.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, c.trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestTruncatedCheckpointIsOneFailedPoint restores one of two points from a
// truncated blob: that point fails, falls back to Warmup as harness's
// restoreOrWarm does, and still yields the uninterrupted run's statistics.
func TestTruncatedCheckpointIsOneFailedPoint(t *testing.T) {
	w, err := newWorkload("ckpt-read", tiny())
	if err != nil {
		t.Fatal(err)
	}
	w.points = []point{w.points[0], w.points[4]} // sectored hpcg and mcf: distinct checkpoints
	const seed = 5
	blobs, _, err := w.setup(seed, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := harness.WarmKey(w.points[0].cfg, w.points[0].mix, seed)
	blobs[key] = blobs[key][:len(blobs[key])/2]
	id := 0
	out := &outcome{w: w, seed: seed, setup: []time.Duration{time.Second}, setupProbe: []time.Duration{time.Second}}
	out.blobs = blobs
	out.plain = [][]pointResult{w.sweep(blobs, seed, nil, &id)}
	bad := out.plain[0][0]
	if bad.loadErr == nil || bad.ok() || len(bad.problems) != 0 {
		t.Fatalf("truncated blob: loadErr=%v ok=%v problems=%v", bad.loadErr, bad.ok(), bad.problems)
	}
	ref, err := reference(bad.p, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, bad.run) {
		t.Error("fallback run's statistics differ from the uninterrupted run")
	}
	res := summarize(out, false)
	if res.Attempted != 2 || res.Failed != 1 || res.Metrics["ok_frac"].Value != 0.5 {
		t.Errorf("attempted=%d failed=%d ok_frac=%v, want 2, 1, 0.5", res.Attempted, res.Failed, res.Metrics["ok_frac"].Value)
	}
}

// TestPointSpansAddUp checks the traced run's span tree: each point's
// children lie inside it, one after another, and together with the point's
// self time make up its duration.
func TestPointSpansAddUp(t *testing.T) {
	w, err := newWorkload("ckpt-read", tiny())
	if err != nil {
		t.Fatal(err)
	}
	w.points = w.points[:4]
	tr := newTracer()
	blobs, _, err := w.setup(1, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	id := 0
	sweep := w.sweep(blobs, 1, tr, &id)
	self := tr.selfTimes()
	points := 0
	for i, s := range tr.spans {
		if s.name != "point" || s.point < 0 {
			continue
		}
		points++
		sum, prevEnd := self[i], s.start
		for _, c := range tr.spans {
			if c.parent != i {
				continue
			}
			if c.point != s.point || c.start.Before(prevEnd) || c.end.After(s.end) {
				t.Errorf("point %d: child %s [%v, %v] overlaps or leaves its parent", s.point, c.name, c.start, c.end)
			}
			prevEnd = c.end
			sum += c.end.Sub(c.start)
		}
		if d := s.end.Sub(s.start); sum != d || d != sweep[s.point].phases.total {
			t.Errorf("point %d: children+self %v, span %v, measured %v", s.point, sum, d, sweep[s.point].phases.total)
		}
	}
	if points != len(w.points) {
		t.Errorf("%d point spans for %d points", points, len(w.points))
	}
	var b bytes.Buffer
	if err := tr.writeChrome(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct{ TraceEvents []json.RawMessage }
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil || len(doc.TraceEvents) != len(tr.spans) {
		t.Errorf("chrome trace: %d events for %d spans, err %v", len(doc.TraceEvents), len(tr.spans), err)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"dap/internal/cache.(*Cache).Lookup":      "cache",
		"dap/internal/cpu.(*core).warmExecute":    "cpu",
		"dap/internal/mscache.(*Sectored).probe":  "mscache",
		"dap/internal/harness.(*System).Measure":  "other",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "runtime",
		"internal/cpu.Initialize":                 "other",
		"sort.Float64s":                           "other",
		"":                                        "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestCPUByLayerDecodesARealProfile(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	w, err := newWorkload("warm-fill", tiny())
	if err != nil {
		pprof.StopCPUProfile()
		t.Fatal(err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		runPoint(w.points[0], nil, 1, nil, 0, -1)
	}
	pprof.StopCPUProfile()
	byLayer, err := cpuByLayer(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for l, ns := range byLayer {
		if layerOf("dap/internal/"+l+".f") != l && l != "runtime" && l != "other" {
			t.Errorf("unknown layer %q", l)
		}
		total += ns
	}
	if total <= 0 || byLayer["cache"]+byLayer["cpu"] <= 0 {
		t.Errorf("profile rolled up to %v", byLayer)
	}
	if _, err := cpuByLayer(prof.Bytes()[:prof.Len()/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}
