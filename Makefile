GO ?= go

.PHONY: all build test race vet doc-check reach crash chaos obs-dump admin-demo net-demo trace-demo consensus-demo bench bench-sqldb bench-wal bench-net bench-consensus bench-gate bench-placement placement-gate heap-comp kind-lat experiments mutants clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the packages with lock-sensitive hot paths: the
# query engine (plan cache, striped buffer pool, lock manager, 2PL readers
# against writers and DDL), the cluster controller (2PC, replica management,
# fault-injected sessions, the adaptive placement loop vs concurrent
# Algorithm 1 copies and controller failover), the consensus log (elections,
# lease hand-off, kill/restart lifecycle), the write-ahead log's
# group-commit pipeline, the wait-free metrics registry, the SLA monitor,
# the placement selector and planners, the TPC-W client's concurrent
# sessions, and the wire protocol's pipelined sessions (multiplexed client
# pool vs concurrent DDL). This is the one list: CI's race job runs
# `make race`.
RACE_PKGS = ./internal/sqldb/... ./internal/core/... ./internal/consensus/... ./internal/wal/... ./internal/obs/... ./internal/sla/... ./internal/tpcw/... ./internal/wire/... ./internal/placement/...
race:
	$(GO) test -race $(RACE_PKGS)

# vet also smoke-tests the wait-free metrics instruments, the SLA monitor's
# epoch-recycled windows, the admin plane, and the write-ahead log under the
# race detector — the obs package is the foundation every layer reports into.
vet:
	$(GO) vet ./...
	$(GO) test -race ./internal/obs/ ./internal/sla/ ./internal/admin/ ./internal/wal/

# Verify every exported identifier in the controller, durability, engine,
# and wire packages carries a doc comment, that PROTOCOL.md names exactly
# the Msg*/ErrCode* constants internal/wire declares, and that
# OBSERVABILITY.md names exactly the metric families a representative
# platform run registers and the sqldb_engine_stat statistics it sets (see
# OBSERVABILITY.md and the package docs citing paper sections).
doc-check:
	$(GO) run ./cmd/doccheck -proto PROTOCOL.md -metrics OBSERVABILITY.md ./internal/core ./internal/system ./internal/obs ./internal/admin ./internal/sla ./internal/wal ./internal/sqldb ./internal/wire ./internal/consensus ./internal/placement

# Reachability audit: merge one coverage profile over the paths that are the
# system — the root and internal/experiments tests, the bench/ smoke test,
# and cmd/experiments, cmd/sdpsh and cmd/doccheck run the way the verify
# skill runs them — and fail on any function of internal/... or the root
# package that none of them executes and REACH.allow does not excuse, or that
# REACH.allow excuses without need. A package's own unit tests and examples/
# do not count as callers.
reach:
	bash scripts/reach.sh

# Crash-recovery soak: the randomized log-cut property test, 20 runs with
# distinct injection seeds. Any failure reproduces with
# SDP_CRASH_SEED=<seed> go test -run TestCrashRandomizedCut ./internal/sqldb/
crash:
	@set -e; for seed in $$(seq 1 20); do \
		echo "crash suite seed $$seed"; \
		SDP_CRASH_SEED=$$seed $(GO) test -count=1 -race -run 'TestCrash' ./internal/sqldb/ >/dev/null; \
	done; echo "crash suite: 20 seeds passed"

# Chaos soak: TPC-W traffic under a seeded schedule of network faults,
# asymmetric partitions, machine crashes (including kills in the 2PC
# in-doubt window), and controller-leader kills (immediate, armed on the
# next PREPARE, and mid-Algorithm-1 copy), checked for one-copy
# serializability, replica convergence, controller state-machine
# convergence, and zero leaked locks. Each seed replays its exact fault
# schedule; a failure reproduces with
# go run ./cmd/experiments -chaos -quick -seed <seed>
chaos:
	@set -e; for seed in 1 2 3 4 5; do \
		echo "chaos soak seed $$seed"; \
		$(GO) run ./cmd/experiments -chaos -quick -seed $$seed; \
	done; echo "chaos soak: 5 seeds passed"

# Mutants: each patch in scripts/mutants/ breaks one claim — of the commit
# protocol, of Algorithm 1, of the copy's restore — at its one site in a
# temporary copy, and the check it names (a package and a -run pattern) must
# fail; prints a kill table and fails past a 900 s budget.
mutants:
	bash scripts/mutants/run.sh

# Dump the unified observability snapshot after a representative run: a
# TPC-W mix with an Algorithm 1 replica copy started mid-run.
obs-dump:
	$(GO) run ./cmd/experiments -metrics -quick

# Boot a platform with the HTTP admin plane, scrape /metrics for a known
# family, and show the live SLA violation report — the fastest way to see
# the operator surface end to end.
admin-demo:
	@set -e; \
	dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o $$dir/sdp-experiments ./cmd/experiments; \
	$$dir/sdp-experiments -admin 127.0.0.1:8344 -admin-duration 6s -sla-report & pid=$$!; \
	sleep 2; \
	curl -fsS http://127.0.0.1:8344/metrics | grep -m1 '^core_txn_committed_total'; \
	curl -fsS http://127.0.0.1:8344/healthz; echo; \
	curl -fsS 'http://127.0.0.1:8344/slaz?format=text'; \
	wait $$pid

# Boot a wire server with a seeded demo database and print connection
# instructions; point `go run ./cmd/sdpsh -connect 127.0.0.1:8346 -db app
# -token demo` at it from another terminal. Ctrl-C drains gracefully.
net-demo:
	$(GO) run ./cmd/experiments -serve 127.0.0.1:8346

# Boot a fully traced platform, run wire-client calls over a real socket,
# and print the resulting distributed span trees (client → wire → system →
# core/sql → wal) plus the slow-query log — the fastest way to see the
# tracing pipeline end to end (see OBSERVABILITY.md, "Distributed tracing").
trace-demo:
	$(GO) run ./cmd/experiments -trace-demo

# Replicated-control-plane demo: run the quick consensus benchmark — three
# controller replicas, repeated leader kills under TPC-W load — and print
# the per-kill failover timings it recorded.
consensus-demo:
	@set -e; \
	dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/experiments -bench-consensus -quick -bench-consensus-out $$dir/consensus-demo.json; \
	cat $$dir/consensus-demo.json

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Regenerate BENCH_sqldb.json (hot-path query-engine latencies) and the
# accompanying BENCH_sqldb.metrics.txt snapshot.
bench-sqldb:
	$(GO) run ./cmd/experiments -bench-sqldb

# Regenerate BENCH_wal.json (group-commit scaling and the restart-recovery
# vs full-copy comparison).
bench-wal:
	$(GO) run ./cmd/experiments -bench-wal

# Regenerate BENCH_net.json (wire-protocol latency and throughput vs
# connection count, up to 10k+ concurrent connections).
bench-net:
	$(GO) run ./cmd/experiments -bench-net

# Regenerate BENCH_consensus.json (control-plane operation latency through
# the consensus log, and leader-failover time under TPC-W load).
bench-consensus:
	$(GO) run ./cmd/experiments -bench-consensus

# Perf regression gate: fail if the point-read or replicated-write latency
# (median of three runs) is more than 20% above the committed
# BENCH_sqldb.json baseline, or a point read allocates one object more.
bench-gate:
	$(GO) run ./cmd/experiments -bench-gate

# Regenerate BENCH_placement.json: the adaptive-placement experiment (static
# vs adaptive replica provisioning under Zipfian tenant skew, plus the
# balanced-load inertness check).
bench-placement:
	$(GO) run ./cmd/experiments -bench-placement

# Quick placement regression gate: rerun the skew experiment in quick mode
# and fail unless adaptive provisioning beats the static baseline and stays
# inert under balanced load. CI runs this on every push.
placement-gate:
	@set -e; \
	dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/experiments -bench-placement -quick -bench-placement-out $$dir/placement-gate.json

# Live heap by allocation site where bench/ reads resident_mb (EXPERIMENTS.md,
# "Heap composition"): make heap-comp WORKLOAD=replica_churn SEED=2
WORKLOAD ?= tpcw_tenants
SEED ?= 1
heap-comp:
	bash scripts/heapcomp.sh $(WORKLOAD) $(SEED)

# Share, p50, p90 and p99 of each TPC-W transaction kind in the measured
# window, and the window's CPU profile (EXPERIMENTS.md, "LIKE in linear time"):
# make kind-lat WORKLOAD=replica_churn SEED=2
kind-lat:
	bash scripts/kindlat.sh $(WORKLOAD) $(SEED)

experiments:
	$(GO) run ./cmd/experiments -quick

clean:
	$(GO) clean ./...
