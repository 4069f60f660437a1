#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through.
# Run from the repository root:
#   bash perfbench/run.sh --workload fuzz-cosim --seed 1 --seconds 10 --trace 0
# Build outputs, the Go build cache and span files stay under .bench_build.
set -euo pipefail
out=".bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOTMPDIR="$PWD/$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C perfbench build -o "../$out/perfbench" . >&2
exec "$out/perfbench" "$@"
