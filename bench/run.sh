#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (build cache included,
# so nothing outside the checkout is written) and runs it with the caller's
# arguments. Run from the repository root: bash bench/run.sh --workload ...
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$build/sdpbench" .
exec "$build/sdpbench" "$@"
