#!/usr/bin/env bash
# crash_smoke.sh — kill -9 a running sweep service and verify it resumes.
#
# Boots `dapsim -serve -sweep-dir` on a random port, submits a small sweep
# over the HTTP API, waits until at least one point has completed, SIGKILLs
# the process mid-sweep, restarts it against the same state directory, and
# asserts the resumed service drives the sweep to completion: every point
# reported "done", every result served by /jobs/1/results, and a clean
# exit 0 on SIGINT. This is the shell-level counterpart of the in-repo
# kill-and-restart test (internal/harness/sweep_crash_test.go), exercising
# the real binary, real signals and the real resume path.
set -u

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
log="$tmp/dapsim.log"
state="$tmp/state"
pid=""

cleanup() {
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null
    rm -rf "$tmp"
}
trap cleanup EXIT

dump_log() {
    echo "--- dapsim output ($log) ---" >&2
    if [ -s "$log" ]; then
        cat "$log" >&2
    else
        echo "(no output captured)" >&2
    fi
    echo "--- end dapsim output ---" >&2
}

fail() {
    echo "crash-smoke: FAIL: $*" >&2
    dump_log
    exit 1
}

# start_service: launches the sweep service (appending to the shared log)
# and waits for its bound address; sets $pid and $addr. Each start must
# print its own address line — matching on the line count, not just the
# last match, keeps a restart from reading the dead predecessor's address.
starts=0
start_service() {
    "$tmp/dapsim" -serve 127.0.0.1:0 -sweep-dir "$state" -sweep-workers 1 \
        >>"$log" 2>&1 &
    pid=$!
    starts=$((starts + 1))
    addr=""
    for _ in $(seq 1 120); do
        addrs=$(sed -n 's|^sweep service: serving on http://\([^ ]*\).*|\1|p' "$log")
        if [ "$(printf '%s\n' "$addrs" | grep -c .)" -ge "$starts" ]; then
            addr=$(printf '%s\n' "$addrs" | tail -1)
            return 0
        fi
        kill -0 "$pid" 2>/dev/null || fail "dapsim exited during startup"
        sleep 0.5
    done
    fail "timeout: no bound address within 60s"
}

# done_count: prints the sweep's "done" count from GET /jobs/1 (0 if the
# request fails — the service may be mid-restart).
done_count() {
    curl -s "http://$addr/jobs/1" 2>/dev/null |
        grep -o '"done": *[0-9]*' | head -1 | grep -o '[0-9]*$'
}

echo "crash-smoke: building dapsim"
go build -o "$tmp/dapsim" ./cmd/dapsim || fail "build"

echo "crash-smoke: starting sweep service"
start_service
echo "crash-smoke: serving on $addr"

# 4 points: 2 mixes x 2 policies, quick config. One worker and ~half-second
# points, so the kill lands with the sweep genuinely in progress.
spec='{"mixes":["mcf","omnetpp"],"policies":["baseline","dap"],"cores":2,"instr":1000000,"warm":100000,"quick":true}'
code=$(curl -s -o "$tmp/submit" -w '%{http_code}' \
    -X POST -d "$spec" "http://$addr/jobs") || fail "curl POST /jobs"
[ "$code" = 201 ] || fail "POST /jobs returned $code: $(cat "$tmp/submit")"
grep -q '"jobs": *4' "$tmp/submit" || fail "submit response lacks 4 jobs: $(cat "$tmp/submit")"

# Wait for partial progress (>=1 done, ideally not all 4), then pull the plug.
for _ in $(seq 1 240); do
    n=$(done_count)
    [ "${n:-0}" -ge 1 ] 2>/dev/null && break
    kill -0 "$pid" 2>/dev/null || fail "dapsim died while sweeping"
    sleep 0.25
done
[ "${n:-0}" -ge 1 ] || fail "timeout: no point completed within 60s"
echo "crash-smoke: $n/4 done — SIGKILL"
kill -9 "$pid"
wait "$pid" 2>/dev/null
pid=""

echo "crash-smoke: restarting against the same state dir"
start_service

# The resumed service must finish the sweep from its saved spec.
for _ in $(seq 1 240); do
    n=$(done_count)
    [ "${n:-0}" = 4 ] && break
    kill -0 "$pid" 2>/dev/null || fail "resumed dapsim died"
    sleep 0.25
done
[ "${n:-0}" = 4 ] || fail "timeout: resumed sweep stuck at ${n:-0}/4 done"
echo "crash-smoke: sweep complete after resume"

# Every result is durably stored and served.
code=$(curl -s -o "$tmp/results" -w '%{http_code}' "http://$addr/jobs/1/results") || fail "curl /jobs/1/results"
[ "$code" = 200 ] || fail "/jobs/1/results returned $code"
results=$(grep -o '"agg_ipc"' "$tmp/results" | wc -l)
[ "$results" = 4 ] || fail "expected 4 stored results, found $results: $(cat "$tmp/results")"

kill -INT "$pid"
wait "$pid"
status=$?
[ "$status" = 0 ] || fail "dapsim exited $status after SIGINT, want clean 0"
pid=""

echo "crash-smoke: PASS"
