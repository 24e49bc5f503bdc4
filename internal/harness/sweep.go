package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"dap/internal/obs"
	"dap/internal/runner"
	"dap/internal/store"
	"dap/internal/telemetry"
)

// A sweep is a list of figure points, and a figure point is a
// deterministic simulation keyed by its configuration fingerprint
// (SweepKey). Re-running a point that failed gives the same failure, and a
// point that finished has its result in the store under its key, so the
// store entry is the only completion record the sweep layer keeps: a
// restart re-reads every saved sweep spec and runs the keys the store does
// not have yet. There is no journal to replay, no lease to expire and no
// put-then-ack window to crash in.

// PointSpec describes one figure point: which mix on which architecture
// under which policy and seed, plus optional run-length knobs.
type PointSpec struct {
	Mix    string `json:"mix"`
	Arch   string `json:"arch"`
	Policy string `json:"policy"`
	Seed   uint64 `json:"seed"`

	Cores int    `json:"cores,omitempty"`
	Instr uint64 `json:"instr,omitempty"`
	Warm  int    `json:"warm,omitempty"`
	Quick bool   `json:"quick,omitempty"`
	// Sampled asks for SMARTS-style interval sampling instead of the full
	// timed region (the result carries confidence intervals).
	Sampled bool `json:"sampled,omitempty"`
}

func (p PointSpec) String() string {
	return fmt.Sprintf("%s|%s|%s|seed=%d|cores=%d|instr=%d|warm=%d|quick=%v|sampled=%v",
		p.Mix, p.Arch, p.Policy, p.Seed, p.Cores, p.Instr, p.Warm, p.Quick, p.Sampled)
}

// SweepSpec is the client-facing request (POST /jobs): the cross product
// of mixes × archs × policies × seeds, sharing the run-length knobs.
type SweepSpec struct {
	Mixes    []string `json:"mixes"`
	Archs    []string `json:"archs"`
	Policies []string `json:"policies"`
	Seeds    []uint64 `json:"seeds"`

	Cores   int    `json:"cores,omitempty"`
	Instr   uint64 `json:"instr,omitempty"`
	Warm    int    `json:"warm,omitempty"`
	Quick   bool   `json:"quick,omitempty"`
	Sampled bool   `json:"sampled,omitempty"`
}

// Expand returns the sweep's points in deterministic order (mix-major,
// then arch, policy, seed). Absent dimensions default to the simulator's
// defaults: arch "sectored", policy "baseline", seed 0.
func (s SweepSpec) Expand() []PointSpec {
	archs := s.Archs
	if len(archs) == 0 {
		archs = []string{"sectored"}
	}
	policies := s.Policies
	if len(policies) == 0 {
		policies = []string{"baseline"}
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{0}
	}
	var out []PointSpec
	for _, mix := range s.Mixes {
		for _, arch := range archs {
			for _, pol := range policies {
				for _, seed := range seeds {
					out = append(out, PointSpec{
						Mix: mix, Arch: arch, Policy: pol, Seed: seed,
						Cores: s.Cores, Instr: s.Instr, Warm: s.Warm, Quick: s.Quick,
						Sampled: s.Sampled,
					})
				}
			}
		}
	}
	return out
}

// Executor runs one point and returns the payload the store keeps under
// its key. It must be deterministic in the spec: SweepExecutor and
// SweepExecutorCkpt are the production executors.
type Executor func(ctx context.Context, spec PointSpec) ([]byte, error)

// Point states reported by GET /jobs/{id}. "missing" is a key that is
// neither pending in this process nor readable from the store (an entry
// quarantined after it was written); a restart runs it again.
const (
	pointQueued  = "queued"
	pointRunning = "running"
	pointFailed  = "failed"
	pointDone    = "done"
	pointMissing = "missing"
)

// Sweeper runs submitted sweeps on a fixed worker pool and keeps their
// results in a store. Each sweep spec is saved once, as <dir>/<id>; opening
// the same directory again resumes every saved sweep by queueing the keys
// the store does not hold. A key is queued at most once per process, even
// when several sweeps share it, and a failed key stays failed — with its
// error and flight dump in the status — until the next restart.
type Sweeper struct {
	dir  string
	st   *store.Store
	exec Executor
	log  *slog.Logger
	wg   sync.WaitGroup

	mu      sync.Mutex
	work    *sync.Cond // signalled when queue grows or closing is set
	closing bool
	nextID  int64
	sweeps  map[int64]*sweep
	pending map[string]*point // keys queued, running or failed in this process
	queue   []string
	running int
}

type sweep struct {
	spec   SweepSpec
	points []PointSpec
	keys   []string
}

type point struct {
	spec   PointSpec
	state  string
	err    string
	flight *obs.FlightDump
}

// OpenSweeper resumes the sweeps saved under dir and starts workers
// goroutines (≤ 0 = GOMAXPROCS) running their missing keys. A saved spec
// that is torn, tampered with or undecodable is logged and skipped; the
// other sweeps still resume. log may be nil.
func OpenSweeper(dir string, st *store.Store, exec Executor, workers int, log *slog.Logger) (*Sweeper, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	s := &Sweeper{
		dir: dir, st: st, exec: exec, log: obs.OrNop(log), nextID: 1,
		sweeps: map[int64]*sweep{}, pending: map[string]*point{},
	}
	s.work = sync.NewCond(&s.mu)
	var ids []int64
	for _, e := range ents {
		if id, err := strconv.ParseInt(e.Name(), 10, 64); err == nil && id > 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		s.nextID = id + 1 // a skipped spec's id is never reused
		spec, err := s.readSpec(id)
		if err != nil {
			s.log.Error("sweep spec skipped", "sweep", id, "err", err.Error())
			continue
		}
		s.add(id, spec)
		s.log.Info("sweep resumed", "sweep", id, "points", len(s.sweeps[id].keys))
	}
	for i := runner.Parallelism(workers); i > 0; i-- {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

func (s *Sweeper) path(id int64) string { return filepath.Join(s.dir, strconv.FormatInt(id, 10)) }

func (s *Sweeper) readSpec(id int64) (SweepSpec, error) {
	payload, _, err := store.ReadFileVerified(s.path(id))
	if err != nil {
		return SweepSpec{}, err
	}
	var spec SweepSpec
	if err := json.Unmarshal(payload, &spec); err != nil {
		return SweepSpec{}, fmt.Errorf("decode: %w", err)
	}
	return spec, nil
}

// Submit validates every point of spec, saves the spec and queues the
// points whose keys are neither stored nor already pending. It returns the
// sweep's id.
func (s *Sweeper) Submit(spec SweepSpec) (int64, error) {
	points := spec.Expand()
	if len(points) == 0 {
		return 0, errors.New("sweep: spec expands to no points (mixes is empty)")
	}
	for _, p := range points {
		if err := SweepValidate(p); err != nil {
			return 0, fmt.Errorf("sweep: invalid point %s: %w", p, err)
		}
	}
	payload, err := json.Marshal(spec)
	if err != nil {
		return 0, fmt.Errorf("sweep: encode spec: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextID
	if err := store.WriteFileAtomic(s.path(id), fmt.Sprintf("sweep-%d", id), payload); err != nil {
		return 0, fmt.Errorf("sweep: save spec: %w", err)
	}
	s.nextID++
	s.add(id, spec)
	s.log.Info("sweep submitted", "sweep", id, "points", len(points))
	return id, nil
}

// add registers a sweep and queues its missing keys. Caller holds s.mu.
func (s *Sweeper) add(id int64, spec SweepSpec) {
	sw := &sweep{spec: spec, points: spec.Expand()}
	for _, p := range sw.points {
		key := SweepKey(p)
		sw.keys = append(sw.keys, key)
		if _, busy := s.pending[key]; busy || s.st.Has(key) {
			continue
		}
		s.pending[key] = &point{spec: p, state: pointQueued}
		s.queue = append(s.queue, key)
		s.log.Debug("point queued", "corr", key, "sweep", id)
	}
	s.sweeps[id] = sw
	s.work.Broadcast()
}

func (s *Sweeper) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closing {
			s.work.Wait()
		}
		if s.closing {
			s.mu.Unlock()
			return
		}
		key := s.queue[0]
		s.queue = s.queue[1:]
		p := s.pending[key]
		p.state = pointRunning
		s.running++
		s.mu.Unlock()
		s.run(key, p)
	}
}

// run executes one point and stores its result. The executor sees the
// sweeper's logger on the context and stamps its records with the key.
func (s *Sweeper) run(key string, p *point) {
	payload, err := s.exec(obs.WithLogger(context.Background(), s.log), p.spec)
	if err == nil {
		err = s.st.Put(key, payload)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	if err == nil {
		delete(s.pending, key)
		s.log.Info("point stored", "corr", key)
		return
	}
	p.state, p.err = pointFailed, err.Error()
	var fe *obs.FlightError
	if errors.As(err, &fe) {
		p.flight = fe.Dump
	}
	s.log.Error("point failed", "corr", key, "err", p.err)
}

// Wait blocks until no point is queued or running, or ctx expires.
func (s *Sweeper) Wait(ctx context.Context) error {
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		s.mu.Lock()
		idle := len(s.queue) == 0 && s.running == 0
		s.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

// Close stops the workers once their running points finish; queued points
// stay unstored and run on the next open. ctx bounds the wait.
func (s *Sweeper) Close(ctx context.Context) error {
	s.mu.Lock()
	s.closing = true
	s.work.Broadcast()
	s.mu.Unlock()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// PointStatus is one key of a sweep as GET /jobs/{id} reports it.
type PointStatus struct {
	Key    string          `json:"key"`
	Spec   PointSpec       `json:"spec"`
	State  string          `json:"state"`
	Error  string          `json:"error,omitempty"`
	Flight *obs.FlightDump `json:"flight,omitempty"`
}

// SweepStatus is a sweep's progress: how many of its keys are done,
// running and failed, and with detail, each key's state.
type SweepStatus struct {
	ID      int64         `json:"id"`
	Total   int           `json:"total"`
	Done    int           `json:"done"`
	Running int           `json:"running"`
	Failed  int           `json:"failed"`
	Spec    SweepSpec     `json:"spec"`
	Points  []PointStatus `json:"points,omitempty"`
}

// Status reports sweep id; ok is false for an unknown id.
func (s *Sweeper) Status(id int64, detail bool) (SweepStatus, bool) {
	s.mu.Lock()
	sw, ok := s.sweeps[id]
	if !ok {
		s.mu.Unlock()
		return SweepStatus{}, false
	}
	points := make([]PointStatus, len(sw.keys))
	for i, key := range sw.keys {
		points[i] = PointStatus{Key: key, Spec: sw.points[i]}
		if p, ok := s.pending[key]; ok {
			points[i].State, points[i].Error, points[i].Flight = p.state, p.err, p.flight
		}
	}
	s.mu.Unlock()

	st := SweepStatus{ID: id, Total: len(points), Spec: sw.spec}
	for i := range points {
		p := &points[i]
		if p.State == "" {
			p.State = pointMissing
			if s.st.Has(p.Key) {
				p.State = pointDone
			}
		}
		switch p.State {
		case pointDone:
			st.Done++
		case pointRunning:
			st.Running++
		case pointFailed:
			st.Failed++
		}
	}
	if detail {
		st.Points = points
	}
	return st, true
}

// Sweeps lists every sweep's summary in id order.
func (s *Sweeper) Sweeps() []SweepStatus {
	s.mu.Lock()
	ids := make([]int64, 0, len(s.sweeps))
	for id := range s.sweeps {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]SweepStatus, 0, len(ids))
	for _, id := range ids {
		st, _ := s.Status(id, false)
		out = append(out, st)
	}
	return out
}

// Mount serves the sweep API on the telemetry server's mux:
//
//	POST /jobs               submit a sweep spec, returns {id, jobs}
//	GET  /jobs               every sweep's summary
//	GET  /jobs/{id}          one sweep with each key's state, error and flight dump
//	GET  /jobs/{id}/results  the stored result of each done key
//
// Call it before the server starts.
func (s *Sweeper) Mount(srv *telemetry.Server) {
	srv.Handle("POST /jobs", s.handleSubmit)
	srv.Handle("GET /jobs", func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, s.Sweeps()) })
	srv.Handle("GET /jobs/{id}", s.handleStatus)
	srv.Handle("GET /jobs/{id}/results", s.handleResults)
}

func (s *Sweeper) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec SweepSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		http.Error(w, fmt.Sprintf("bad sweep spec: %v", err), http.StatusBadRequest)
		return
	}
	id, err := s.Submit(spec)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, map[string]any{"id": id, "jobs": len(spec.Expand())})
}

// sweepStatus resolves the {id} path value, answering 400 or 404 itself.
func (s *Sweeper) sweepStatus(w http.ResponseWriter, r *http.Request, detail bool) (SweepStatus, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad sweep id", http.StatusBadRequest)
		return SweepStatus{}, false
	}
	st, ok := s.Status(id, detail)
	if !ok {
		http.Error(w, "no such sweep", http.StatusNotFound)
	}
	return st, ok
}

func (s *Sweeper) handleStatus(w http.ResponseWriter, r *http.Request) {
	if st, ok := s.sweepStatus(w, r, true); ok {
		writeJSON(w, st)
	}
}

// sweepResults is the GET /jobs/{id}/results response: each done key's
// stored payload, verbatim.
type sweepResults struct {
	ID      int64         `json:"id"`
	Done    int           `json:"done"`
	Total   int           `json:"total"`
	Results []pointResult `json:"results"`
}

// pointResult is one stored payload of sweepResults.
type pointResult struct {
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result"`
}

func (s *Sweeper) handleResults(w http.ResponseWriter, r *http.Request) {
	st, ok := s.sweepStatus(w, r, true)
	if !ok {
		return
	}
	out := sweepResults{ID: st.ID, Total: st.Total, Results: []pointResult{}}
	for _, p := range st.Points {
		payload, ok := s.st.Get(p.Key)
		if !ok {
			continue
		}
		if !json.Valid(payload) {
			payload, _ = json.Marshal(string(payload))
		}
		out.Results = append(out.Results, pointResult{Key: p.Key, Result: payload})
	}
	out.Done = len(out.Results)
	writeJSON(w, out)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone
}
