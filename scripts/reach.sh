#!/usr/bin/env bash
# make reach: one merged coverage profile over the paths that are the system,
# then cmd/reach lists what none of them executes and checks REACH.allow.
set -euo pipefail
cd "$(dirname "$0")/.."
out=$(mktemp -d) && mkdir "$out/cov"
trap 'rm -rf "$out"' EXIT
pkgs=sdp/...

# Tests that drive the platform from outside: the root package, the paper's
# experiments, and the frozen benchmark's smoke test.
# A failing test still writes its profile: `make test` gates the tests, this
# only needs what they executed.
cover() { go test -C "$1" -count=1 -coverpkg=$pkgs -coverprofile="$out/$2.out" "${@:3}" >"$out/log" 2>&1 || grep -A12 -e '^--- FAIL' -e '^panic' "$out/log" || tail -n 20 "$out/log"; }
cover . root .
cover . exp ./internal/experiments
cover bench bench ./...

# The commands, built with coverage, run as the verify skill runs them.
for cmd in experiments sdpsh doccheck; do
	go build -cover -coverpkg=$pkgs -o "$out/$cmd" ./cmd/$cmd
done
export GOCOVERDIR="$out/cov"
# The quick benchmarks kill controllers under load and now and then lose
# their lease on a busy box: one retry, and a second failure is fatal.
run() { "$@" >"$out/log" 2>&1 || "$@" >"$out/log" 2>&1 || { cat "$out/log"; echo "reach: failed: $*"; exit 1; }; }
run "$out/experiments" -exp all -quick
run "$out/experiments" -chaos -quick -seed 1
run "$out/experiments" -chaos -placement -quick -seed 1
run "$out/experiments" -metrics -quick -sla-report
run "$out/experiments" -trace-demo
run "$out/experiments" -slow
run "$out/experiments" -admin 127.0.0.1:0 -admin-duration 2s -sla-report
run "$out/experiments" -bench-sqldb -quick -bench-out "$out/b.json"
run "$out/experiments" -bench-wal -quick -bench-wal-out "$out/b.json"
run "$out/experiments" -bench-net -quick -bench-net-out "$out/b.json"
run "$out/experiments" -bench-consensus -quick -bench-consensus-out "$out/b.json"
run "$out/experiments" -bench-placement -quick -bench-placement-out "$out/b.json"
run "$out/doccheck" -proto PROTOCOL.md -metrics OBSERVABILITY.md ./internal/core ./internal/wire
run "$out/sdpsh" -machines 6 -controllers 3 <scripts/reach.sdpsh

go tool covdata textfmt -i="$out/cov" -o="$out/cmd.out"
cat "$out"/*.out >"$out/merged"
go run ./cmd/reach -profile "$out/merged" -allow REACH.allow
