package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"time"

	"dap/internal/harness"
	"dap/internal/stats"
)

// phases are the host times of one point's public harness calls. The
// point's own time also covers SetStreams, which is no child span and so
// lands in its self time.
type phases struct {
	build, load, warm, measure, total time.Duration
}

// pointResult is what one figure point produced and how long it took.
type pointResult struct {
	p      point
	run    stats.Run
	phases phases
	// loadErr is LoadCheckpoint's error: the point fell back to Warmup, as
	// harness's restoreOrWarm does, and counts as failed.
	loadErr error
	// problems lists failed output checks; any one makes the run incorrect.
	problems []string
	// decisions and metricRows count the observers' records.
	decisions, metricRows int
	// probe is the mean of the host probes just before and just after the
	// point.
	probe time.Duration
}

func (r *pointResult) ok() bool { return r.loadErr == nil && len(r.problems) == 0 }

func (r *pointResult) instructions() uint64 {
	var n uint64
	for _, c := range r.run.Cores {
		n += c.Instructions
	}
	return n
}

// digest is a short fingerprint of the point's simulated statistics.
func (r *pointResult) digest() string {
	b, err := json.Marshal(r.run)
	if err != nil {
		panic(err) // stats.Run holds only numbers
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// runPoint runs one figure point through harness's public phase calls —
// the sequence RunSeededE and RunSeededCkptE perform internally — timing
// each call. A checkpoint point restores blob and, if that fails, warms
// the same system instead, exactly as harness's restoreOrWarm does. With
// tr non-nil the point's spans are recorded under id, below parent.
func runPoint(p point, blob []byte, seed uint64, tr *tracer, id, parent int) pointResult {
	r := pointResult{p: p}
	t0 := time.Now()
	s, err := harness.BuildE(p.cfg, p.mix)
	if err != nil {
		r.problems = append(r.problems, "build: "+err.Error())
		return r
	}
	t1 := time.Now()
	s.CPU.SetStreams(p.mix.StreamsSeeded(seed))
	t2 := time.Now()
	if p.ckpt {
		r.loadErr = s.LoadCheckpoint(blob)
	}
	t3 := time.Now()
	if !p.ckpt || r.loadErr != nil {
		s.Warmup()
	}
	t4 := time.Now()
	res := s.Measure()
	t5 := time.Now()

	r.run = res.Run
	r.phases = phases{build: t1.Sub(t0), load: t3.Sub(t2), warm: t4.Sub(t3), measure: t5.Sub(t4), total: t5.Sub(t0)}
	if tr != nil {
		pt := tr.add("point", id, parent, t0, t5)
		tr.add("build", id, pt, t0, t1)
		if p.ckpt {
			tr.add("ckpt.load", id, pt, t2, t3)
		}
		if t4.After(t3) {
			tr.add("warm", id, pt, t3, t4)
		}
		tr.add("measure", id, pt, t4, t5)
	}
	if res.Abort != nil {
		r.problems = append(r.problems, "abort: "+res.Abort.Error())
	}
	r.problems = append(r.problems, check(p.cfg, res.Run)...)
	if res.Decisions != nil {
		r.decisions = len(res.Decisions.Records()) + int(res.Decisions.Evicted()) +
			len(res.Decisions.Events()) + int(res.Decisions.Dropped())
	}
	if res.Metrics != nil {
		r.metricRows = res.Metrics.Samples() + int(res.Metrics.Dropped())
	}
	return r
}

// check validates one point's statistics against what any correct run
// must show.
func check(cfg harness.Config, run stats.Run) []string {
	var bad []string
	for i, c := range run.Cores {
		if c.Instructions < cfg.MeasureInstr {
			bad = append(bad, fmt.Sprintf("core %d retired %d < %d instructions", i, c.Instructions, cfg.MeasureInstr))
		}
	}
	if len(run.Cores) != cfg.CPU.Cores {
		bad = append(bad, fmt.Sprintf("%d core results for %d cores", len(run.Cores), cfg.CPU.Cores))
	}
	ms := run.MemSide
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"hit ratio", ms.HitRatio()},
		{"read hit ratio", ms.ReadHitRatio()},
		{"tag-cache miss ratio", ms.TagCacheMissRatio()},
		{"SFRM waste ratio", ms.SpecWastedRatio()},
	} {
		if !(r.v >= 0 && r.v <= 1) {
			bad = append(bad, fmt.Sprintf("%s %v outside [0,1]", r.name, r.v))
		}
	}
	if cfg.Policy != harness.DAP && cfg.Policy != harness.DAPFWBWB && run.DAP.Total() != 0 {
		bad = append(bad, fmt.Sprintf("%s point applied DAP techniques %+v", cfg.Policy, run.DAP))
	}
	return bad
}

// reference recomputes a point's statistics through a second public path:
// RunSeededE for a full run, and for a restored run the uninterrupted
// system that warms, saves its checkpoint and measures without a restore.
func reference(p point, seed uint64) (stats.Run, error) {
	if !p.ckpt {
		res, err := harness.RunSeededE(p.cfg, p.mix, seed)
		return res.Run, err
	}
	s, err := harness.BuildE(p.cfg, p.mix)
	if err != nil {
		return stats.Run{}, err
	}
	s.CPU.SetStreams(p.mix.StreamsSeeded(seed))
	s.Warmup()
	if _, err := s.SaveCheckpoint(); err != nil {
		return stats.Run{}, err
	}
	res := s.Measure()
	return res.Run, res.Abort
}

// crossCheck compares, for each architecture, the first point of the sweep
// that passed its own checks with its reference run. A point that failed
// already counts as failed; its statistics are not the ones to vouch for.
func crossCheck(sweep []pointResult, seed uint64) error {
	seen := map[harness.Arch]bool{}
	for i := range sweep {
		r := &sweep[i]
		if seen[r.p.cfg.Arch] || !r.ok() {
			continue
		}
		seen[r.p.cfg.Arch] = true
		ref, err := reference(r.p, seed)
		if err != nil {
			r.problems = append(r.problems, "reference run: "+err.Error())
		} else if !reflect.DeepEqual(ref, r.run) {
			r.problems = append(r.problems, "statistics differ from the reference run")
		}
	}
	for _, a := range archs {
		if !seen[a] {
			return fmt.Errorf("no %s point passed its checks; nothing to cross-check", a)
		}
	}
	return nil
}

// warmSample is one Warmup call: its architecture, host time and the
// accesses it streamed (all cores).
type warmSample struct {
	arch     harness.Arch
	d        time.Duration
	accesses int
}

// setup prepares one run: it builds and saves the warm checkpoint of every
// distinct WarmKey in sweep order, each from the configuration of the first
// point that uses it, or, for a workload without checkpoints, runs the
// first point once untimed so lazy set-up is paid here. Its spans carry
// the negative id -1-rep.
func (w *benchWorkload) setup(seed uint64, tr *tracer, rep int) (map[string][]byte, []warmSample, error) {
	id := -1 - rep
	root := tr.add("setup", id, -1, time.Now(), time.Time{})
	defer func() { tr.end(root, time.Now()) }()
	blobs := map[string][]byte{}
	var warms []warmSample
	for _, p := range w.points {
		accesses := p.cfg.WarmAccesses * p.cfg.CPU.Cores
		if !p.ckpt {
			r := runPoint(p, nil, seed, tr, id, root)
			if len(r.problems) > 0 {
				return nil, nil, fmt.Errorf("priming point %v: %v", p, r.problems)
			}
			return nil, []warmSample{{p.cfg.Arch, r.phases.warm, accesses}}, nil
		}
		key := harness.WarmKey(p.cfg, p.mix, seed)
		if _, ok := blobs[key]; ok {
			continue
		}
		t0 := time.Now()
		s, err := harness.BuildE(p.cfg, p.mix)
		if err != nil {
			return nil, nil, err
		}
		s.CPU.SetStreams(p.mix.StreamsSeeded(seed))
		t1 := time.Now()
		s.Warmup()
		t2 := time.Now()
		blob, err := s.SaveCheckpoint()
		if err != nil {
			return nil, nil, fmt.Errorf("checkpoint %v: %w", p, err)
		}
		t3 := time.Now()
		blobs[key] = blob
		warms = append(warms, warmSample{p.cfg.Arch, t2.Sub(t1), accesses})
		tr.add("build", id, root, t0, t1)
		tr.add("warm", id, root, t1, t2)
		tr.add("ckpt.save", id, root, t2, t3)
	}
	return blobs, warms, nil
}
