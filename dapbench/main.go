// Command dapbench is the repository's benchmark: it drives DAP figure
// points serially through harness's public phase calls and reports the host
// time users wait for, per workload, plus a per-layer breakdown in a
// separate traced run.
//
// Run it from the repository root through its launcher, which builds it:
//
//	bash dapbench/run.sh --workload ckpt-read --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Earlier lines give the machine
// fingerprint and one stats digest per figure point.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"dap/internal/harness"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string // directory for the traced run's spans and CPU profile
}

// outcome is everything one run measured.
type outcome struct {
	w     *benchWorkload
	seed  uint64
	setup []time.Duration // one per set-up repetition
	// setupProbe is the mean host probe around each set-up repetition.
	setupProbe []time.Duration
	warms      []warmSample // set-up warmups
	blobs      map[string][]byte
	plain      [][]pointResult // untraced sweeps
	traced     [][]pointResult // traced sweeps (trace mode only)
	tr         *tracer
	cpu        map[string]float64 // sampled CPU ns by layer, traced sweeps
	// profile is the first traced sweep's CPU profile.
	profile []byte
	// sweepAlloc is the bytes allocated during the traced sweeps.
	sweepAlloc uint64
	mem        struct {
		alloc uint64 // bytes allocated over the whole run
		gcs   uint32
		pause time.Duration
	}
	peakRSS  float64 // bytes
	crossErr error
}

// run sets up setupReps times, then runs the workload's sweeps. In trace
// mode every untraced sweep is followed by a traced one, so the two sides
// of trace.overhead run interleaved under the same host conditions.
func run(w *benchWorkload, o options) (*outcome, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	out := &outcome{w: w, seed: o.seed, cpu: map[string]float64{}}
	if o.trace {
		out.tr = newTracer()
	}
	before := hostProbe()
	for rep := 0; rep < setupReps; rep++ {
		t := time.Now()
		blobs, warms, err := w.setup(o.seed, out.tr, rep)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setup = append(out.setup, time.Since(t))
		after := hostProbe()
		out.setupProbe = append(out.setupProbe, (before+after)/2)
		before = after
		out.blobs, out.warms = blobs, append(out.warms, warms...)
	}
	id := 0
	for i := 0; i < w.sweeps(o.seconds); i++ {
		out.plain = append(out.plain, w.sweep(out.blobs, o.seed, nil, &id))
		if !o.trace {
			continue
		}
		var prof bytes.Buffer
		var a0, a1 runtime.MemStats
		runtime.ReadMemStats(&a0)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		out.traced = append(out.traced, w.sweep(out.blobs, o.seed, out.tr, &id))
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&a1)
		out.sweepAlloc += a1.TotalAlloc - a0.TotalAlloc
		byLayer, err := cpuByLayer(prof.Bytes())
		if err != nil {
			return nil, err
		}
		for l, ns := range byLayer {
			out.cpu[l] += ns
		}
		if out.profile == nil {
			out.profile = prof.Bytes()
		}
	}
	out.crossErr = crossCheck(out.plain[0], o.seed)
	runtime.ReadMemStats(&m1)
	out.mem.alloc = m1.TotalAlloc - m0.TotalAlloc
	out.mem.gcs = m1.NumGC - m0.NumGC
	out.mem.pause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		out.peakRSS = float64(ru.Maxrss) * 1024 // Linux reports KiB
	}
	return out, nil
}

// sweep runs every figure point of the workload once, in order, one at a
// time, with a host probe between points. id numbers the points across
// sweeps.
func (w *benchWorkload) sweep(blobs map[string][]byte, seed uint64, tr *tracer, id *int) []pointResult {
	res := make([]pointResult, len(w.points))
	before := hostProbe()
	for i, p := range w.points {
		var blob []byte
		if p.ckpt {
			blob = blobs[harness.WarmKey(p.cfg, p.mix, seed)]
		}
		res[i] = runPoint(p, blob, seed, tr, *id, -1)
		after := hostProbe()
		res[i].probe = (before + after) / 2
		before = after
		*id++
	}
	return res
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize turns an outcome into the final result line: end-to-end
// metrics for an untraced run, per-layer metrics for a traced one.
func summarize(o *outcome, trace bool) result {
	res := result{Correct: o.crossErr == nil, Metrics: map[string]metricValue{}}
	for _, sweeps := range [][][]pointResult{o.plain, o.traced} {
		for _, sw := range sweeps {
			for _, r := range sw {
				res.Attempted++
				if !r.ok() {
					res.Failed++
				}
				if len(r.problems) > 0 {
					res.Correct = false
				}
			}
		}
	}
	defs, vals := endToEndMetrics, endToEnd
	if trace {
		defs, vals = perLayerMetrics, perLayer
	}
	v := vals(o)
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{v[d.name], d.unit}
	}
	return res
}

// provenance is the machine fingerprint printed with every result.
func provenance(o options, w *benchWorkload, rev string) map[string]any {
	return map[string]any{
		"workload":         o.workload,
		"seed":             o.seed,
		"trace":            o.trace,
		"points_per_sweep": len(w.points),
		"sweeps":           w.sweeps(o.seconds),
		"setup_reps":       setupReps,
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"cpu_model":        cpuModel(),
		"go_version":       runtime.Version(),
		"git_rev":          rev,
		"source_digest":    sourceDigest("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest fingerprints the simulator's Go sources under root (the
// benchmark's own directory and hidden directories excluded), so results
// from a tree without version control still name the code they measured.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "dapbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := fnv.New64a()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&o.seed, "seed", 0, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 15, "run length; sets the number of sweeps")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/dapbench", "directory for the traced run's spans and CPU profile")
	rev := flag.String("rev", "unknown", "git revision of the measured tree")
	flag.Parse()
	o.trace = traceFlag == 1
	if err := realMain(o, *rev); err != nil {
		fmt.Fprintln(os.Stderr, "dapbench:", err)
		os.Exit(1)
	}
}

func realMain(o options, rev string) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	w, err := newWorkload(o.workload, harness.Quick())
	if err != nil {
		return err
	}
	prov, err := json.Marshal(provenance(o, w, rev))
	if err != nil {
		return err
	}
	fmt.Printf("provenance %s\n", prov)
	out, err := run(w, o)
	if err != nil {
		return err
	}
	res := summarize(out, o.trace)
	for s, sw := range append(out.plain, out.traced...) {
		for i := range sw {
			r := &sw[i]
			fmt.Printf("point sweep=%d %-40v ok=%-5v t=%.4fs probe=%.2fms digest=%s",
				s, r.p, r.ok(), seconds(r.phases.total), 1e3*seconds(r.probe), r.digest())
			if r.loadErr != nil {
				fmt.Printf(" restore-failed=%q", r.loadErr.Error())
			}
			for _, p := range r.problems {
				fmt.Printf(" problem=%q", p)
			}
			fmt.Println()
		}
	}
	if out.crossErr != nil {
		fmt.Println("cross-check:", out.crossErr)
	}
	fmt.Printf("host seconds: sweep %.4f, point p50 %.4f over %d points in %d sweeps; probe p50 %.2f ms\n",
		median(sweepSeconds(out.plain)), median(pointSeconds(out.plain)), len(out.plain)*len(w.points),
		len(out.plain), 1e3*median(probeSeconds(out.plain)))
	if o.trace {
		if err := writeArtifacts(out, o); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeArtifacts saves the traced run's spans (Chrome trace JSON) and CPU
// profile under o.out.
func writeArtifacts(out *outcome, o options) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	var b bytes.Buffer
	if err := out.tr.writeChrome(&b); err != nil {
		return err
	}
	if err := os.WriteFile(base+".trace.json", b.Bytes(), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(base+".cpu.pprof", out.profile, 0o644); err != nil {
		return err
	}
	fmt.Printf("trace %s.trace.json (%d spans), cpu profile %s.cpu.pprof\n", base, len(out.tr.spans), base)
	return nil
}
