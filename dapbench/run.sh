#!/usr/bin/env bash
# Builds the DAP benchmark from the source tree it sits in, then runs it.
# Run from the repository root:
#
#   bash dapbench/run.sh --workload warm-fill --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write goes under .bench_build/dapbench.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/dapbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

rev=unknown
if [ -d "$root/.git" ]; then
	rev=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

(cd "$root/dapbench" && go build -buildvcs=false -o "$out/dapbench" .) >&2
exec "$out/dapbench" -out "$out" -rev "$rev" "$@"
