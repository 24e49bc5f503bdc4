package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dap/internal/faultinject"
	"dap/internal/obs"
	"dap/internal/store"
	"dap/internal/telemetry"
)

// The sweeper tests drive the sweep layer with stand-in executors, so they
// exercise queueing, storing, resuming and the HTTP API without simulating.
// TestSweepResumeAfterKill covers the real executor across a process crash.

// echoExec returns a deterministic payload derived from the spec.
func echoExec(_ context.Context, spec PointSpec) ([]byte, error) {
	return []byte("result-of-" + spec.String()), nil
}

// countingExec wraps exec and counts its calls per key.
type countingExec struct {
	mu    sync.Mutex
	calls map[string]int
	exec  Executor
}

func newCountingExec(exec Executor) *countingExec {
	return &countingExec{calls: map[string]int{}, exec: exec}
}

func (c *countingExec) run(ctx context.Context, spec PointSpec) ([]byte, error) {
	c.mu.Lock()
	c.calls[SweepKey(spec)]++
	c.mu.Unlock()
	return c.exec(ctx, spec)
}

func (c *countingExec) count(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[key]
}

func (c *countingExec) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.calls {
		n += v
	}
	return n
}

// openSweeperT opens a sweeper over dir/sweeps and dir/results and closes
// it when the test ends.
func openSweeperT(t *testing.T, dir string, exec Executor, log *slog.Logger) (*Sweeper, *store.Store) {
	t.Helper()
	st, err := store.Open(filepath.Join(dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := OpenSweeper(filepath.Join(dir, "sweeps"), st, exec, 2, log)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeSweeper(t, sw) })
	return sw, st
}

func closeSweeper(t *testing.T, sw *Sweeper) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sw.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func waitSweeper(t *testing.T, sw *Sweeper) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sw.Wait(ctx); err != nil {
		t.Fatalf("sweeper never drained: %v (%+v)", err, sw.Sweeps())
	}
}

func submitT(t *testing.T, sw *Sweeper, spec SweepSpec) int64 {
	t.Helper()
	id, err := sw.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return id
}

func statusT(t *testing.T, sw *Sweeper, id int64) SweepStatus {
	t.Helper()
	st, ok := sw.Status(id, true)
	if !ok {
		t.Fatalf("no sweep %d", id)
	}
	return st
}

func TestSweepExpandOrder(t *testing.T) {
	points := SweepSpec{
		Mixes: []string{"mcf", "hpcg"}, Policies: []string{"baseline", "dap"}, Seeds: []uint64{0, 1},
	}.Expand()
	if len(points) != 8 {
		t.Fatalf("expanded %d points; want 8 (2 mixes x 2 policies x 2 seeds)", len(points))
	}
	want := PointSpec{Mix: "mcf", Arch: "sectored", Policy: "baseline", Seed: 0}
	if points[0] != want {
		t.Fatalf("point 0 = %+v; want %+v", points[0], want)
	}
	if p := points[1]; p.Mix != "mcf" || p.Policy != "baseline" || p.Seed != 1 {
		t.Fatalf("point 1 = %+v; want mix-major order with seed innermost", p)
	}
	if p := points[4]; p.Mix != "hpcg" {
		t.Fatalf("point 4 = %+v; want the second mix", p)
	}
}

func TestSweeperRunsSweepToCompletion(t *testing.T) {
	sw, st := openSweeperT(t, t.TempDir(), echoExec, nil)
	id := submitT(t, sw, SweepSpec{Mixes: []string{"mcf", "hpcg", "omnetpp"}, Seeds: []uint64{0, 1}})
	waitSweeper(t, sw)

	status := statusT(t, sw, id)
	if status.Total != 6 || status.Done != 6 || status.Running != 0 || status.Failed != 0 {
		t.Fatalf("status = %+v", status)
	}
	if n := st.Len(); n != 6 {
		t.Fatalf("store has %d entries; want 6", n)
	}
	for _, p := range status.Points {
		got, ok := st.Get(p.Key)
		if p.State != pointDone || !ok || string(got) != "result-of-"+p.Spec.String() {
			t.Fatalf("point %s: state %s, result %q, %v", p.Key, p.State, got, ok)
		}
	}
}

func TestSubmitEmptySweepFails(t *testing.T) {
	sw, _ := openSweeperT(t, t.TempDir(), echoExec, nil)
	if _, err := sw.Submit(SweepSpec{Policies: []string{"dap"}}); err == nil {
		t.Fatal("Submit accepted a sweep with no mixes")
	}
	if n := len(sw.Sweeps()); n != 0 {
		t.Fatalf("empty sweep registered: %d sweeps", n)
	}
}

func TestValidateRejectsAtSubmission(t *testing.T) {
	dir := t.TempDir()
	exec := newCountingExec(echoExec)
	sw, _ := openSweeperT(t, dir, exec.run, nil)
	_, err := sw.Submit(SweepSpec{Mixes: []string{"mcf", "bogus"}})
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("Submit of an unknown mix = %v; want an error naming it", err)
	}
	if n := len(sw.Sweeps()); n != 0 {
		t.Fatalf("invalid sweep registered: %d sweeps", n)
	}
	// Nothing was saved, so a restart has nothing to resume either.
	closeSweeper(t, sw)
	sw2, _ := openSweeperT(t, dir, exec.run, nil)
	waitSweeper(t, sw2)
	if n := len(sw2.Sweeps()); n != 0 || exec.total() != 0 {
		t.Fatalf("after restart: %d sweeps, %d executions; want none", n, exec.total())
	}
}

// TestIdenticalPointsShareStoredResult submits one key from three sweeps:
// while it runs, after it is stored, and from a second process. It must be
// simulated once.
func TestIdenticalPointsShareStoredResult(t *testing.T) {
	dir := t.TempDir()
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	exec := newCountingExec(func(ctx context.Context, spec PointSpec) ([]byte, error) {
		once.Do(func() { close(started) })
		<-release
		return echoExec(ctx, spec)
	})
	sw, _ := openSweeperT(t, dir, exec.run, nil)
	spec := SweepSpec{Mixes: []string{"mcf"}}
	first := submitT(t, sw, spec)
	<-started
	second := submitT(t, sw, spec) // the key is running: not queued again
	if st := statusT(t, sw, second); st.Running != 1 {
		t.Fatalf("second sweep status = %+v; want its key running", st)
	}
	close(release)
	waitSweeper(t, sw)
	third := submitT(t, sw, spec) // the key is stored: not queued at all
	waitSweeper(t, sw)
	for _, id := range []int64{first, second, third} {
		if st := statusT(t, sw, id); st.Done != 1 {
			t.Fatalf("sweep %d status = %+v; want done", id, st)
		}
	}
	closeSweeper(t, sw)

	sw2, _ := openSweeperT(t, dir, exec.run, nil)
	waitSweeper(t, sw2)
	if n := len(sw2.Sweeps()); n != 3 {
		t.Fatalf("restart resumed %d sweeps; want 3", n)
	}
	if n := exec.total(); n != 1 {
		t.Fatalf("executor ran %d times; want 1 (every other request served from the store)", n)
	}
}

// TestGracefulCloseDrainsInFlight closes a sweeper while a point runs:
// Close must wait for it and store its result, leave the queued points
// unstored, and the next open must run exactly those.
func TestGracefulCloseDrainsInFlight(t *testing.T) {
	dir := t.TempDir()
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	blocking := newCountingExec(func(ctx context.Context, spec PointSpec) ([]byte, error) {
		once.Do(func() { close(started) })
		<-release
		return echoExec(ctx, spec)
	})
	st, err := store.Open(filepath.Join(dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := OpenSweeper(filepath.Join(dir, "sweeps"), st, blocking.run, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	id := submitT(t, sw, SweepSpec{Mixes: []string{"mcf", "hpcg", "omnetpp"}})
	<-started

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- sw.Close(ctx)
	}()
	select {
	case err := <-done:
		t.Fatalf("Close returned before the running point finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := st.Len(); n != 1 || blocking.total() != 1 {
		t.Fatalf("after close: %d stored, %d executed; want the running point only", n, blocking.total())
	}

	resumed := newCountingExec(echoExec)
	sw2, _ := openSweeperT(t, dir, resumed.run, nil)
	waitSweeper(t, sw2)
	if status := statusT(t, sw2, id); status.Done != 3 {
		t.Fatalf("resumed status = %+v; want 3 done", status)
	}
	if n := resumed.total(); n != 2 {
		t.Fatalf("resume executed %d points; want the 2 unstored ones", n)
	}
}

// TestFailedPointReportedNotRetried fails one point with a flight dump: the
// status shows its error and dump, the same process never runs it again
// (not even for a new sweep), and a restart does.
func TestFailedPointReportedNotRetried(t *testing.T) {
	dir := t.TempDir()
	doomed := SweepKey(PointSpec{Mix: "hpcg", Arch: "sectored", Policy: "baseline"})
	exec := newCountingExec(func(ctx context.Context, spec PointSpec) ([]byte, error) {
		if SweepKey(spec) == doomed {
			dump := &obs.FlightDump{Key: doomed, Reason: "watchdog-stall", Entries: []obs.FlightEntry{{Cycle: 1000, Note: "pending=42"}}}
			return nil, &obs.FlightError{Dump: dump, Err: errors.New("watchdog: no forward progress")}
		}
		return echoExec(ctx, spec)
	})
	sw, st := openSweeperT(t, dir, exec.run, nil)
	id := submitT(t, sw, SweepSpec{Mixes: []string{"mcf", "hpcg"}})
	waitSweeper(t, sw)
	again := submitT(t, sw, SweepSpec{Mixes: []string{"hpcg"}})
	waitSweeper(t, sw)

	status := statusT(t, sw, id)
	if status.Done != 1 || status.Failed != 1 {
		t.Fatalf("status = %+v; want 1 done, 1 failed", status)
	}
	failed := status.Points[1]
	if failed.Key != doomed || failed.State != pointFailed ||
		failed.Error != "watchdog: no forward progress" ||
		failed.Flight == nil || failed.Flight.Reason != "watchdog-stall" || len(failed.Flight.Entries) != 1 {
		t.Fatalf("failed point = %+v", failed)
	}
	if status.Points[0].Flight != nil {
		t.Fatal("clean point carries a flight dump")
	}
	if st := statusT(t, sw, again); st.Failed != 1 {
		t.Fatalf("resubmitted sweep status = %+v; want its key failed", st)
	}
	if n := exec.count(doomed); n != 1 {
		t.Fatalf("failed point ran %d times in one process; want 1", n)
	}
	if st.Has(doomed) {
		t.Fatal("failed point stored a result")
	}
	closeSweeper(t, sw)

	sw2, _ := openSweeperT(t, dir, exec.run, nil)
	waitSweeper(t, sw2)
	if n := exec.count(doomed); n != 2 {
		t.Fatalf("failed point ran %d times across a restart; want 2", n)
	}
}

// TestSweeperSkipsTornSpec tears one saved spec and tampers with another:
// on open both are reported and skipped, the intact sweep resumes, and the
// skipped ids are not reused.
func TestSweeperSkipsTornSpec(t *testing.T) {
	dir := t.TempDir()
	failing := func(context.Context, PointSpec) ([]byte, error) { return nil, errors.New("not now") }
	sw, _ := openSweeperT(t, dir, failing, nil)
	for _, mix := range []string{"mcf", "hpcg", "omnetpp"} {
		submitT(t, sw, SweepSpec{Mixes: []string{mix}})
	}
	waitSweeper(t, sw)
	closeSweeper(t, sw)
	specPath := func(id int) string { return filepath.Join(dir, "sweeps", strconv.Itoa(id)) }
	if err := faultinject.TruncateTail(specPath(1), 4); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.FlipByte(specPath(2), -2); err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	exec := newCountingExec(echoExec)
	sw2, _ := openSweeperT(t, dir, exec.run, obs.NewLogger(&logs, "info", "json"))
	waitSweeper(t, sw2)
	for _, id := range []string{`"sweep":1`, `"sweep":2`} {
		if !regexp.MustCompile(`"msg":"sweep spec skipped".*` + id + `.*corrupt`).MatchString(logs.String()) {
			t.Errorf("no skip record for %s:\n%s", id, logs.String())
		}
	}
	list := sw2.Sweeps()
	if len(list) != 1 || list[0].ID != 3 || list[0].Done != 1 {
		t.Fatalf("resumed sweeps = %+v; want only sweep 3, done", list)
	}
	if n := exec.total(); n != 1 {
		t.Fatalf("resume executed %d points; want sweep 3's only", n)
	}
	if id := submitT(t, sw2, SweepSpec{Mixes: []string{"mcf"}}); id != 4 {
		t.Fatalf("next id = %d; want 4 (skipped ids are not reused)", id)
	}
}

// syncBuffer is a goroutine-safe log sink: workers log concurrently.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSweeperObservability checks what an operator sees: every record about
// a point carries its store key as "corr" from queueing to storing or
// failing, and the store's Put latency histogram counted the puts.
func TestSweeperObservability(t *testing.T) {
	var logs syncBuffer
	var puts atomic.Uint64
	exec := func(ctx context.Context, spec PointSpec) ([]byte, error) {
		key := SweepKey(spec)
		obs.LoggerFrom(ctx).Info("simulation start", "corr", key)
		if spec.Mix == "hpcg" {
			return nil, errors.New("boom")
		}
		puts.Add(1)
		return echoExec(ctx, spec)
	}
	before := promCount(t, "store_put_seconds")
	sw, _ := openSweeperT(t, t.TempDir(), exec, obs.NewLogger(&logs, "debug", "json"))
	submitT(t, sw, SweepSpec{Mixes: []string{"mcf", "hpcg"}})
	waitSweeper(t, sw)

	out := logs.String()
	for _, c := range []struct{ mix, final string }{{"mcf", "point stored"}, {"hpcg", "point failed"}} {
		key := SweepKey(PointSpec{Mix: c.mix, Arch: "sectored", Policy: "baseline"})
		for _, msg := range []string{"point queued", "simulation start", c.final} {
			if !strings.Contains(out, `"msg":"`+msg+`","corr":"`+key+`"`) {
				t.Errorf("no %q record stamped with corr %s", msg, key)
			}
		}
	}
	if !strings.Contains(out, `"msg":"sweep submitted","sweep":1,"points":2`) {
		t.Errorf("no sweep submitted record")
	}
	if t.Failed() {
		t.Logf("logs:\n%s", out)
	}
	if got := promCount(t, "store_put_seconds") - before; got < int(puts.Load()) {
		t.Errorf("store_put_seconds_count grew by %d; want at least %d", got, puts.Load())
	}
}

// promCount reads a histogram's _count from the process-wide registry.
func promCount(t *testing.T, name string) int {
	t.Helper()
	var prom strings.Builder
	if err := telemetry.Default.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(name + `_count (\d+)`).FindStringSubmatch(prom.String())
	if m == nil {
		t.Fatalf("/metrics missing %s_count", name)
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// newAPIServer serves the sweep API over a fresh sweeper.
func newAPIServer(t *testing.T, exec Executor) *httptest.Server {
	t.Helper()
	sw, _ := openSweeperT(t, t.TempDir(), exec, nil)
	reg := telemetry.NewRegistry()
	srv := telemetry.NewServer(reg, telemetry.NewRunRegistry(reg))
	sw.Mount(srv)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func doJSON(t *testing.T, method, url, body string, wantStatus int, out any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck // test helper
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s = %d (%s); want %d", method, url, resp.StatusCode, strings.TrimSpace(buf.String()), wantStatus)
	}
	if out != nil {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("decode %s response %q: %v", url, buf.String(), err)
		}
	}
}

func TestSubmitPollResultsLifecycle(t *testing.T) {
	ts := newAPIServer(t, echoExec)

	var created struct {
		ID   int64 `json:"id"`
		Jobs int   `json:"jobs"`
	}
	doJSON(t, "POST", ts.URL+"/jobs", `{"mixes":["mcf","hpcg"],"policies":["baseline","dap"]}`,
		http.StatusCreated, &created)
	if created.ID != 1 || created.Jobs != 4 {
		t.Fatalf("created = %+v", created)
	}

	deadline := time.Now().Add(10 * time.Second)
	var status SweepStatus
	for {
		doJSON(t, "GET", fmt.Sprintf("%s/jobs/%d", ts.URL, created.ID), "", http.StatusOK, &status)
		if status.Done == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never completed: %+v", status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if status.Total != 4 || len(status.Points) != 4 {
		t.Fatalf("detail view = %+v", status)
	}
	for _, p := range status.Points {
		if p.State != pointDone || p.Key != SweepKey(p.Spec) {
			t.Fatalf("point = %+v", p)
		}
	}

	// The results endpoint returns each stored payload, in sweep order.
	var res sweepResults
	doJSON(t, "GET", fmt.Sprintf("%s/jobs/%d/results", ts.URL, created.ID), "", http.StatusOK, &res)
	if res.Done != 4 || res.Total != 4 || len(res.Results) != 4 {
		t.Fatalf("results = done %d total %d n %d", res.Done, res.Total, len(res.Results))
	}
	var first string
	if err := json.Unmarshal(res.Results[0].Result, &first); err != nil {
		t.Fatalf("payload not passed through: %v", err)
	}
	if !strings.HasPrefix(first, "result-of-mcf|sectored|baseline|") {
		t.Fatalf("payload = %q", first)
	}

	var list []SweepStatus
	doJSON(t, "GET", ts.URL+"/jobs", "", http.StatusOK, &list)
	if len(list) != 1 || list[0].ID != 1 || list[0].Done != 4 || list[0].Points != nil {
		t.Fatalf("list = %+v", list)
	}

	doJSON(t, "GET", ts.URL+"/jobs/99", "", http.StatusNotFound, nil)
	doJSON(t, "GET", ts.URL+"/jobs/99/results", "", http.StatusNotFound, nil)
	doJSON(t, "GET", ts.URL+"/jobs/xyz", "", http.StatusBadRequest, nil)
}

func TestSubmitValidationAndDecodeErrors(t *testing.T) {
	ts := newAPIServer(t, echoExec)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"mixes":["bogus"]}`))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck // test helper
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(buf.String(), "unknown mix") {
		t.Fatalf("invalid submit = %d %q", resp.StatusCode, buf.String())
	}
	// Malformed JSON, unknown fields and an empty sweep -> 400.
	for _, body := range []string{`{not json`, `{"mixxes":["mcf"]}`, `{}`} {
		doJSON(t, "POST", ts.URL+"/jobs", body, http.StatusBadRequest, nil)
	}
}

func TestTelemetryRoutesStillServe(t *testing.T) {
	// Mounting the sweep API must not displace the telemetry surface.
	ts := newAPIServer(t, echoExec)
	for _, path := range []string{"/healthz", "/metrics", "/runs", "/jobs"} {
		doJSON(t, "GET", ts.URL+path, "", http.StatusOK, nil)
	}
}
