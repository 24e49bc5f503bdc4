# Tier-1 verification gate: everything must vet, build, and pass the test
# suite with the race detector on. The observability package gets an extra
# explicit vet + race pass so its strict-observer guarantees are always
# exercised even when the main suite is filtered.
GO ?= go

.PHONY: check vet build test race bench bench-figures runner-race obs-check obs-race pool-debug telemetry-race queue-race ckpt-race serve-smoke crash-smoke trace-demo profile profile-diff profile-base fuzz-smoke

check: vet build race runner-race obs-check obs-race pool-debug telemetry-race queue-race ckpt-race serve-smoke crash-smoke fuzz-smoke profile-diff

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The harness integration suite is simulation-bound; under the race
# detector it needs far more than go test's default 10-minute budget.
race:
	$(GO) test -race -timeout 90m ./...

obs-check:
	$(GO) vet ./internal/obs/...
	$(GO) test -race ./internal/obs/... -run . -count=1
	$(GO) test -race ./internal/harness/ -run 'TestObservability|TestObsConfig|TestServe' -count=1

# obs-race drives the service-grade observability surface under the race
# detector: the latency histograms and request-log middleware
# (internal/telemetry), and the harness's flight-recorder stall capture and
# bit-identity guarantees.
obs-race:
	$(GO) test -race -count=1 ./internal/telemetry/ \
		-run 'TestHistogram|TestRequestLog|TestStatusWriter'
	$(GO) test -race -count=1 -short ./internal/harness/ \
		-run 'TestObservabilityIsBitIdenticalWithFlight|TestFlightRecorder|TestSweepExecutor'

# telemetry-race exercises the live telemetry service under the race
# detector: 8 concurrent publishers against a scraping /metrics loop, the
# SSE stream, run-registry lifecycle, and the Prometheus golden file.
telemetry-race:
	$(GO) vet ./internal/telemetry/...
	$(GO) test -race ./internal/telemetry/... -count=1

# queue-race runs the sweep layer under the race detector: the
# crash-consistent result store (concurrent puts and gets on one key), and
# the harness sweeper's worker pool racing submissions, status reads,
# graceful close and resume against each other.
queue-race:
	$(GO) vet ./internal/store/...
	$(GO) test -race -count=1 ./internal/store/...
	$(GO) test -race -count=1 ./internal/harness/ \
		-run 'TestSweep|TestSubmit|TestValidateRejectsAtSubmission|TestIdenticalPointsShareStoredResult|TestGracefulCloseDrainsInFlight|TestFailedPointReportedNotRetried|TestTelemetryRoutesStillServe'

# ckpt-race drives the warmup-checkpoint cache under the race detector:
# eight concurrent policy/DRAM variants of one figure point restore from a
# single-flight snapshot (asserting it was built exactly once and every
# variant stays bit-identical), the nws figure driver does the same through
# its worker pool, and the store-backed path recovers from flipped-byte and
# torn-tail corruption.
ckpt-race:
	$(GO) test -race -count=1 -timeout 20m ./internal/harness/ \
		-run 'TestCheckpointSharedParallelVariants|TestCheckpointFigureDriverSingleFlight|TestCheckpointStoreReuseAndCorruption'

# serve-smoke boots `dapsim -serve` on a random port (race detector on),
# curls /healthz and /metrics, asserts the DAP credit and runner pool
# families are exposed, and checks clean shutdown on SIGINT.
serve-smoke:
	./scripts/serve_smoke.sh

# crash-smoke SIGKILLs a running sweep service mid-sweep and verifies the
# restarted process resumes from its saved sweep spec and result store: all
# points done, all results served, clean SIGINT exit. The in-process counterpart lives in
# internal/harness/sweep_crash_test.go.
crash-smoke:
	./scripts/crash_smoke.sh

# runner-race exercises the worker pool and the parallel experiment drivers
# under the race detector: the full runner suite (ordering, panic/error
# propagation), the harness unit tests, and the parallel-vs-serial figure
# identity sweep (which shrinks itself to race-affordable drivers — see
# raceEnabled in internal/harness). The full harness integration suite is
# simulation-bound and exceeds any sane race budget; `make race` covers it
# without the detector's ~10x tax via the plain test target.
runner-race:
	$(GO) test -race ./internal/runner
	$(GO) test -race -short ./internal/harness
	$(GO) test -race -run 'TestParallelFiguresBitIdentical|TestAloneFingerprintSeparates' -timeout 20m -count=1 ./internal/harness

# pool-debug reruns the pooled-allocation paths with the request-pool poison
# mode armed (-tags dappooldebug): double-free, use-after-free and
# freed-record callbacks panic instead of corrupting an unrelated request.
# The harness test drives full simulations of all three architectures
# through the armed pools.
pool-debug:
	$(GO) test -tags dappooldebug ./internal/mem/
	$(GO) test -tags dappooldebug -run 'TestPoolingUnderParallelRuns' ./internal/harness/

# bench runs the substrate microbenchmarks plus the end-to-end quick run.
# The long end-to-end benchmarks run in a second invocation with a fixed
# iteration count: under the default 1s benchtime they get only 1-2
# iterations, and a single noisy run then dominates the reported ns/op.
# bench-figures is the full figure-regeneration benchmark suite. The
# repository benchmark, which compares revisions, is dapbench/ (see
# dapbench/README.md).
bench:
	$(GO) test -bench='EngineEvent|CacheLookup|DRAMStream|WorkloadGen' \
		-benchmem -run=^$$ .
	$(GO) test -bench='EndToEndQuickRun|EndToEndCheckpointResume|Replicate6' \
		-benchtime=5x -benchmem -run=^$$ .

bench-figures:
	$(GO) test -bench=. -benchmem -run=^$$ .

# fuzz-smoke runs each envelope fuzzer for 10 seconds — the checkpoint
# envelope, and the store envelope that guards result entries and saved
# sweep specs: corrupt, truncated and bit-flipped envelopes must always be
# rejected with an ErrCorrupt-wrapping error, never a panic.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecEnvelope -fuzztime 10s ./internal/ckpt/
	$(GO) test -run '^$$' -fuzz FuzzDecodeEnvelope -fuzztime 10s ./internal/store/

# profile captures CPU and allocation profiles of the end-to-end quick run
# and prints the top-10 allocation sites — the view that drove (and guards)
# the allocation-free hot path work.
profile:
	mkdir -p out
	$(GO) test -bench=EndToEndQuickRun -benchmem -run=^$$ \
		-cpuprofile out/cpu.prof -memprofile out/mem.prof .
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_objects out/mem.prof
	@echo "profiles in out/cpu.prof, out/mem.prof (go tool pprof -http=: out/cpu.prof)"

# profile-diff re-profiles the end-to-end quick run and diffs its allocation
# sites against the committed baseline (profiles/mem_base.prof, recorded by
# profile-base at the data-layout pass): a hot path that starts allocating
# again shows up as a positive flat delta at the guilty function instead of
# a silent allocs/op creep. Refresh the baseline with `make profile-base`
# after intentional allocation-behavior changes.
profile-diff:
	mkdir -p out
	$(GO) test -bench=EndToEndQuickRun -benchmem -run=^$$ \
		-memprofile out/mem.prof .
	$(GO) tool pprof -top -nodecount=12 -sample_index=alloc_objects \
		-diff_base=profiles/mem_base.prof out/mem.prof

# profile-base records the allocation-profile baseline that profile-diff
# compares against. Run it (and commit profiles/mem_base.prof) only when an
# allocation-behavior change is intentional.
profile-base:
	mkdir -p profiles
	$(GO) test -bench=EndToEndQuickRun -benchmem -run=^$$ \
		-memprofile profiles/mem_base.prof .

# trace-demo produces a small end-to-end observability artifact set: a
# Perfetto-loadable Chrome trace of L3-miss lifecycles and a per-window
# metrics CSV (DAP credits, per-source bandwidth, hit ratios, per-core IPC).
trace-demo:
	mkdir -p out
	$(GO) run ./cmd/dapsim -quick -workload mcf -policy dap \
		-trace out/trace.json -metrics-every 1000 -metrics-out out/metrics.csv
	@echo "open out/trace.json in https://ui.perfetto.dev, plot out/metrics.csv"
