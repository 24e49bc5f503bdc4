package harness

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"dap/internal/ckpt"
	"dap/internal/dram"
	"dap/internal/store"
	"dap/internal/workload"
)

// Warmup checkpoints: a versioned, checksummed snapshot of the full
// post-warmup simulator state, keyed by a fingerprint of the warmup prefix
// only. Functional warmup (cpu.Warm → WarmRead/WarmWriteback) touches the
// SRAM hierarchy, the prefetchers, the workload stream cursors and the
// memory-side tag/metadata structures — and nothing else: it never advances
// the engine clock, never issues a timed DRAM request, and never consults
// the partitioning policy. The warmup state of a (config, mix, seed) triple
// therefore depends only on the fields WarmKey hashes, so every policy
// variant of the same figure point (baseline, DAP, SBD, ...) resumes from
// one shared checkpoint instead of re-running the warmup per variant.

// WarmKey fingerprints the warmup prefix of a (config, mix, seed) triple:
// the workload (mix name, per-core specs after resizing, stream seed), the
// warmup length, and every geometry knob the functional warmup can observe
// (SRAM hierarchy, prefetcher, memory-side tag structures). Runtime-only
// knobs — policy, DAP parameters, DRAM timing, latencies, observability —
// are deliberately excluded: they cannot influence warmup, and excluding
// them is what lets ablation variants share a checkpoint.
func WarmKey(cfg Config, mix workload.Mix, seed uint64) string {
	specs := mix.Specs
	if len(specs) != cfg.CPU.Cores {
		specs = resize(specs, cfg.CPU.Cores)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "mix=%s seed=%d arch=%s warm=%d", mix.Name, seed, cfg.Arch, cfg.WarmAccesses)
	for _, sp := range specs {
		fmt.Fprintf(h, " spec=%+v", sp)
	}
	c := cfg.CPU
	fmt.Fprintf(h, " cpu=%d l1=%d/%d l2=%d/%d l3=%d/%d pf=%d/%d/%d",
		c.Cores, c.L1Bytes, c.L1Ways, c.L2Bytes, c.L2Ways, c.L3Bytes, c.L3Ways,
		c.PFStreams, c.PFDegree, c.PFDistance)
	switch cfg.Arch {
	case AlloyCache:
		a := cfg.Alloy
		fmt.Fprintf(h, " alloy=%d dbc=%d/%d", a.CapacityBytes, a.DBCEntries, a.DBCWays)
	case SectoredEDRAM:
		e := cfg.EDRAM
		fmt.Fprintf(h, " edram=%d/%d/%d", e.CapacityBytes, e.SectorBytes, e.Ways)
	case NoMSCache:
		// main memory only: no memory-side structures to warm
	default:
		sc := cfg.Sectored
		fmt.Fprintf(h, " sectored=%d/%d/%d tc=%d/%d repl=%v fp=%v/%d",
			sc.CapacityBytes, sc.SectorBytes, sc.Ways,
			sc.TagCacheEntries, sc.TagCacheWays, sc.Replacement,
			sc.Footprint, sc.FootprintEntries)
	}
	return fmt.Sprintf("warm-%016x", h.Sum64())
}

// devTag fingerprints a DRAM device configuration. Device sections are
// tagged with it so a checkpoint written under one DRAM timing model is not
// applied to a variant built with another (bandwidth sweeps share a warmup
// checkpoint across DRAM configurations).
func devTag(cfg dram.Config) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", cfg)
	return h.Sum64()
}

// ckptDevice pairs a device with its stable section name.
type ckptDevice struct {
	name string
	dev  *dram.Device
}

func (s *System) ckptDevices() []ckptDevice {
	out := []ckptDevice{{"dram.mm", s.MM}}
	switch {
	case s.sectored != nil:
		out = append(out, ckptDevice{"dram.cache", s.sectored.Device()})
	case s.alloy != nil:
		out = append(out, ckptDevice{"dram.cache", s.alloy.Device()})
	case s.edram != nil:
		out = append(out,
			ckptDevice{"dram.cache-rd", s.edram.ReadDevice()},
			ckptDevice{"dram.cache-wr", s.edram.WriteDevice()})
	}
	return out
}

// SaveCheckpoint serializes the full simulator state after functional
// warmup: the CPU (SRAM caches, prefetchers, stream cursors), the
// memory-side cache controller, the DRAM devices, and the policy machines
// (DAP, SBD, BATMAN) when present. It must be called after Warmup and
// before the timed region; the per-component savers enforce that (no
// in-flight requests, drained DRAM queues, engine at cycle zero).
func (s *System) SaveCheckpoint() ([]byte, error) {
	if now := s.Eng.Now(); now != 0 {
		return nil, fmt.Errorf("harness: checkpoint at cycle %d; must be taken after warmup, before the timed region", now)
	}
	w := ckpt.NewWriter()
	if err := s.CPU.SaveState(w.Section("cpu")); err != nil {
		return nil, fmt.Errorf("harness: checkpoint cpu: %w", err)
	}
	switch {
	case s.sectored != nil:
		s.sectored.SaveState(w.Section("ctrl.sectored"))
	case s.alloy != nil:
		s.alloy.SaveState(w.Section("ctrl.alloy"))
	case s.edram != nil:
		s.edram.SaveState(w.Section("ctrl.edram"))
	}
	for _, cd := range s.ckptDevices() {
		e := w.Section(cd.name)
		e.U64(devTag(cd.dev.Cfg))
		if err := cd.dev.SaveState(e); err != nil {
			return nil, fmt.Errorf("harness: checkpoint %s: %w", cd.name, err)
		}
	}
	if s.dap != nil {
		s.dap.SaveState(w.Section("dap"))
	}
	if s.sectored != nil {
		if s.sectored.SBD != nil {
			s.sectored.SBD.SaveState(w.Section("sbd"))
		}
		if s.sectored.BATMAN != nil {
			s.sectored.BATMAN.SaveState(w.Section("batman"))
		}
	}
	return w.Bytes(), nil
}

// LoadCheckpoint restores a SaveCheckpoint blob into a freshly built,
// reseeded system, leaving it in exactly the state Warmup would have. The
// cpu and controller sections are mandatory for the architectures that
// have them; the device/policy sections are applied only when this
// system's matching component exists and its configuration tag agrees —
// a mismatch (a variant with different DRAM timing, or without DAP) leaves
// the freshly built component untouched, which is correct because warmup
// provably never mutates those components.
func (s *System) LoadCheckpoint(blob []byte) error {
	r, err := ckpt.NewReader(blob)
	if err != nil {
		return err
	}
	d, ok := r.Section("cpu")
	if !ok {
		return fmt.Errorf("harness: checkpoint missing cpu section")
	}
	if err := s.CPU.LoadState(d); err != nil {
		return fmt.Errorf("harness: restore cpu: %w", err)
	}
	type ctrlLoad struct {
		name string
		load func(*ckpt.Dec) error
	}
	var ctrl *ctrlLoad
	switch {
	case s.sectored != nil:
		ctrl = &ctrlLoad{"ctrl.sectored", s.sectored.LoadState}
	case s.alloy != nil:
		ctrl = &ctrlLoad{"ctrl.alloy", s.alloy.LoadState}
	case s.edram != nil:
		ctrl = &ctrlLoad{"ctrl.edram", s.edram.LoadState}
	}
	if ctrl != nil {
		d, ok := r.Section(ctrl.name)
		if !ok {
			return fmt.Errorf("harness: checkpoint missing %s section", ctrl.name)
		}
		if err := ctrl.load(d); err != nil {
			return fmt.Errorf("harness: restore %s: %w", ctrl.name, err)
		}
	}
	for _, cd := range s.ckptDevices() {
		d, ok := r.Section(cd.name)
		if !ok || d.U64() != devTag(cd.dev.Cfg) {
			continue
		}
		if err := cd.dev.LoadState(d); err != nil {
			return fmt.Errorf("harness: restore %s: %w", cd.name, err)
		}
	}
	if s.dap != nil {
		if d, ok := r.Section("dap"); ok {
			if err := s.dap.LoadState(d); err != nil {
				return fmt.Errorf("harness: restore dap: %w", err)
			}
		}
	}
	if s.sectored != nil {
		if d, ok := r.Section("sbd"); ok && s.sectored.SBD != nil {
			if err := s.sectored.SBD.LoadState(d); err != nil {
				return fmt.Errorf("harness: restore sbd: %w", err)
			}
		}
		if d, ok := r.Section("batman"); ok && s.sectored.BATMAN != nil {
			if err := s.sectored.BATMAN.LoadState(d); err != nil {
				return fmt.Errorf("harness: restore batman: %w", err)
			}
		}
	}
	return nil
}

// Checkpoints is the process-wide warmup-checkpoint cache: a single-flight
// in-memory memo (concurrent variants of the same figure point build each
// checkpoint exactly once; the rest wait and restore) optionally backed by
// a crash-safe on-disk store so checkpoints survive across processes. A
// damaged store file is quarantined by the store layer and counted as a
// miss, and a blob that fails semantic restore is dropped and rebuilt — in
// both cases the affected run silently falls back to the plain warmup.
type Checkpoints struct {
	st *store.Store // nil = in-memory only

	mu sync.Mutex
	m  map[string]*ckptEntry

	builds    atomic.Uint64
	storeHits atomic.Uint64
	loadFails atomic.Uint64
}

type ckptEntry struct {
	once sync.Once
	blob []byte
	err  error
}

// NewCheckpoints opens a checkpoint cache backed by a store under dir.
func NewCheckpoints(dir string) (*Checkpoints, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	return &Checkpoints{st: st, m: map[string]*ckptEntry{}}, nil
}

// MemCheckpoints returns an in-memory checkpoint cache (no disk store):
// single-flight sharing within one process only.
func MemCheckpoints() *Checkpoints {
	return &Checkpoints{m: map[string]*ckptEntry{}}
}

// CkptStats are the observable cache counters.
type CkptStats struct {
	// Builds counts warmups actually executed to build a checkpoint.
	Builds uint64
	// StoreHits counts checkpoints served from the on-disk store.
	StoreHits uint64
	// LoadFailures counts blobs that failed to restore (the run fell back
	// to a plain warmup and the blob was dropped for rebuild).
	LoadFailures uint64
	// Store carries the underlying store counters, including quarantined
	// corrupt files (zero-valued when the cache is memory-only).
	Store store.Stats
}

// Stats snapshots the cache counters.
func (c *Checkpoints) Stats() CkptStats {
	s := CkptStats{
		Builds:       c.builds.Load(),
		StoreHits:    c.storeHits.Load(),
		LoadFailures: c.loadFails.Load(),
	}
	if c.st != nil {
		s.Store = c.st.Stats()
	}
	return s
}

// Builds reports how many warmups were actually executed — the single-flight
// assertion hook: N variants sharing one warm prefix must yield Builds()==1.
func (c *Checkpoints) Builds() uint64 { return c.builds.Load() }

func (c *Checkpoints) get(key string, cfg Config, mix workload.Mix, seed uint64) ([]byte, error) {
	c.mu.Lock()
	e := c.m[key]
	if e == nil {
		e = new(ckptEntry)
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		if c.st != nil {
			if blob, ok := c.st.Get(key); ok {
				c.storeHits.Add(1)
				e.blob = blob
				return
			}
		}
		sys := Build(cfg, mix)
		sys.reseed(mix, seed)
		sys.Warmup()
		blob, err := sys.SaveCheckpoint()
		if err != nil {
			e.err = fmt.Errorf("harness: build checkpoint %s: %w", key, err)
			return
		}
		c.builds.Add(1)
		if c.st != nil {
			// Best-effort cache write: the blob is served from memory this
			// process regardless, and a missing file is just a future miss.
			_ = c.st.Put(key, blob)
		}
		e.blob = blob
	})
	return e.blob, e.err
}

func (c *Checkpoints) drop(key string) {
	c.mu.Lock()
	delete(c.m, key)
	c.mu.Unlock()
}

// restoreOrWarm brings s, freshly built and reseeded, to the post-warmup
// state: restored from the shared checkpoint when possible, by running the
// warmup otherwise. A failed restore may already have applied some
// sections (the cpu section loads before a damaged controller section is
// found), so the fallback warms a newly built, reseeded system and returns
// it in place of s. Both paths leave bit-identical state, so the choice is
// purely a wall-clock optimization.
func (c *Checkpoints) restoreOrWarm(s *System, cfg Config, mix workload.Mix, seed uint64) *System {
	key := WarmKey(cfg, mix, seed)
	blob, err := c.get(key, cfg, mix, seed)
	if err == nil {
		if err = s.LoadCheckpoint(blob); err == nil {
			return s
		}
	}
	// Version skew or semantic damage behind a valid store envelope: drop
	// the blob so the next run rebuilds it, and warm a fresh system.
	c.loadFails.Add(1)
	c.drop(key)
	s = Build(cfg, mix)
	s.reseed(mix, seed)
	s.Warmup()
	return s
}

// RunMixCkpt is RunMix resuming from a shared warmup checkpoint.
func RunMixCkpt(cfg Config, mix workload.Mix, ck *Checkpoints) Result {
	return RunSeededCkpt(cfg, mix, 0, ck)
}

// RunSeededCkpt is RunSeeded resuming from a shared warmup checkpoint
// (ck == nil degrades to RunSeeded).
func RunSeededCkpt(cfg Config, mix workload.Mix, seed uint64, ck *Checkpoints) Result {
	if ck == nil {
		return RunSeeded(cfg, mix, seed)
	}
	s := Build(cfg, mix)
	s.reseed(mix, seed)
	s = ck.restoreOrWarm(s, cfg, mix, seed)
	if cfg.Sampled {
		return s.runSampled(ck)
	}
	return s.Measure()
}

// RunSeededCkptE is RunSeededCkpt with configuration validation and
// abnormal-end reporting (the checkpoint counterpart of RunSeededE).
func RunSeededCkptE(cfg Config, mix workload.Mix, seed uint64, ck *Checkpoints) (Result, error) {
	if ck == nil {
		return RunSeededE(cfg, mix, seed)
	}
	s, err := BuildE(cfg, mix)
	if err != nil {
		return Result{}, err
	}
	s.reseed(mix, seed)
	s = ck.restoreOrWarm(s, cfg, mix, seed)
	var r Result
	if cfg.Sampled {
		r = s.runSampled(ck)
	} else {
		r = s.Measure()
	}
	return r, r.Abort
}
