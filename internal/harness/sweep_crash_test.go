package harness

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dap/internal/store"
)

// The kill-and-restart integration test: a sweep process is crashed
// mid-sweep at a deterministic point (its executor exits the process once
// two results are stored), then a second process reopens the same state
// directory and resumes. The resumed sweep must
//
//   - complete every point,
//   - produce result payloads byte-identical to an uninterrupted in-process
//     reference run, and
//   - never re-simulate a point whose result already landed in the store
//     (each key is simulated exactly once across both processes).
//
// The "process" is this test binary re-executed against its own helper test,
// so the crash is a real os.Exit in a real separate process — not a
// goroutine standing in for one.

const (
	sweepHelperEnv     = "DAP_SWEEP_HELPER_DIR"
	sweepCrashAfterEnv = "DAP_CRASH_AFTER_PUTS"
	sweepCrashExitCode = 7
)

// crashSweepSpec is the sweep both processes work on: 4 tiny points.
func crashSweepSpec() SweepSpec {
	return SweepSpec{
		Mixes:    []string{"mcf", "omnetpp"},
		Policies: []string{"baseline", "dap"},
		Cores:    2, Instr: 40_000, Warm: 20_000, Quick: true,
	}
}

// TestSweepCrashHelper is the subprocess body (skipped in a normal test
// run): it opens the sweeper under $DAP_SWEEP_HELPER_DIR, submits the sweep
// on first start, and runs to completion — or, when $DAP_CRASH_AFTER_PUTS
// is n, exits from the executor of point n+1, after n results are stored.
func TestSweepCrashHelper(t *testing.T) {
	dir := os.Getenv(sweepHelperEnv)
	if dir == "" {
		t.Skip("subprocess helper (driven by TestSweepResumeAfterKill)")
	}
	st, err := store.Open(filepath.Join(dir, "results"))
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	crashAfter, _ := strconv.ParseUint(os.Getenv(sweepCrashAfterEnv), 10, 64)

	// With one worker a point's result is stored before the next point
	// starts, so the (n+1)-th call runs with exactly n results stored. Each
	// actual simulation is logged so the parent can prove stored points
	// were not re-run.
	var calls atomic.Uint64
	exec := func(ctx context.Context, spec PointSpec) ([]byte, error) {
		if crashAfter > 0 && calls.Add(1) > crashAfter {
			os.Exit(sweepCrashExitCode)
		}
		payload, err := SweepExecutor(ctx, spec)
		if err == nil {
			fmt.Printf("SIMDONE %s\n", SweepKey(spec))
		}
		return payload, err
	}

	sw, err := OpenSweeper(filepath.Join(dir, "sweeps"), st, exec, 1, nil)
	if err != nil {
		t.Fatalf("open sweeper: %v", err)
	}
	if len(sw.Sweeps()) == 0 { // first start: submit; restarts resume
		if _, err := sw.Submit(crashSweepSpec()); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := sw.Wait(ctx); err != nil {
		t.Fatalf("sweep never drained: %v", err)
	}
	if err := sw.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	fmt.Println("ALL DONE")
}

// runSweepHelper re-executes the test binary against the helper with the
// given state dir and crash env, returning combined output and exit code.
func runSweepHelper(t *testing.T, dir string, extraEnv ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestSweepCrashHelper$", "-test.v")
	cmd.Env = append(os.Environ(), sweepHelperEnv+"="+dir)
	cmd.Env = append(cmd.Env, extraEnv...)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("run helper: %v\n%s", err, buf.String())
	}
	return buf.String(), code
}

func simDoneKeys(out string) []string {
	var keys []string
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "SIMDONE "); ok {
			keys = append(keys, strings.TrimSpace(rest))
		}
	}
	return keys
}

func TestSweepResumeAfterKill(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess simulations in -short mode")
	}
	dir := t.TempDir()
	specs := crashSweepSpec().Expand()

	// Uninterrupted in-process reference: the payloads the resumed sweep
	// must reproduce bit-for-bit.
	reference := make(map[string][]byte, len(specs))
	for _, spec := range specs {
		payload, err := SweepExecutor(context.Background(), spec)
		if err != nil {
			t.Fatalf("reference run %s: %v", spec.String(), err)
		}
		reference[SweepKey(spec)] = payload
	}

	// Process 1: crash once the 2nd result has landed in the store, with
	// the 3rd point taken off the queue but not yet simulated.
	out1, code1 := runSweepHelper(t, dir, sweepCrashAfterEnv+"=2")
	if code1 != sweepCrashExitCode {
		t.Fatalf("process 1 exited %d; want crash exit %d\n%s", code1, sweepCrashExitCode, out1)
	}
	keys1 := simDoneKeys(out1)
	if len(keys1) != 2 {
		t.Fatalf("process 1 simulated %d points before the crash; want 2\n%s", len(keys1), out1)
	}

	// Process 2: same dir, no crash. It must re-read the saved spec, skip
	// the stored keys and finish the remaining points.
	out2, code2 := runSweepHelper(t, dir)
	if code2 != 0 {
		t.Fatalf("resumed process exited %d\n%s", code2, out2)
	}
	if !strings.Contains(out2, "ALL DONE") {
		t.Fatalf("resumed process never drained\n%s", out2)
	}
	keys2 := simDoneKeys(out2)

	// No point was simulated twice across the crash: every stored result
	// was reused.
	seen := map[string]bool{}
	for _, k := range append(append([]string(nil), keys1...), keys2...) {
		if seen[k] {
			t.Fatalf("key %s simulated in both processes (stored result not reused)", k)
		}
		seen[k] = true
	}
	if got := len(keys1) + len(keys2); got != len(specs) {
		t.Fatalf("simulated %d points across both processes; want exactly %d", got, len(specs))
	}

	// Bit-identical results: the interrupted-and-resumed sweep's merged
	// store matches the uninterrupted reference byte for byte.
	st, err := store.Open(filepath.Join(dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range reference {
		got, ok := st.Get(key)
		if !ok {
			t.Fatalf("key %s missing from resumed store", key)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("key %s: resumed result differs from uninterrupted reference", key)
		}
	}
	if st.Len() != len(reference) {
		t.Fatalf("store holds %d entries; want %d", st.Len(), len(reference))
	}
}
