package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sdp/internal/obs"
)

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// names and units (smoke_test.go holds the two together); bench/README.md is
// the glossary.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the platform sees; printed with -trace 0.
var endToEnd = []metricDef{
	{"txn_per_s", "1/s"},
	{"lat_p50_us", "us"},
	{"lat_p90_us", "us"},
	{"resident_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer is printed with -trace 1. Source of each number: L = the layer
// ladder of the traced run, R = registry counter or histogram delta over the
// window, C = counted by the benchmark's own clients.
var perLayer = []metricDef{
	{"wire.self_us_p50", "us"},                    // L
	{"wire.allocs_per_txn", "count"},              // L
	{"wire.bytes_per_txn", "B"},                   // R
	{"wire.msgs_per_txn", "count"},                // R
	{"wire.retryable_errors_per_ktxn", "count"},   // R
	{"system.self_us_p50", "us"},                  // L
	{"system.allocs_per_txn", "count"},            // L
	{"system.routes_per_txn", "count"},            // R
	{"core.self_us_p50", "us"},                    // L
	{"core.allocs_per_txn", "count"},              // L
	{"core.prepare_us_p50", "us"},                 // R
	{"core.commit_us_p50", "us"},                  // R
	{"core.prepares_per_txn", "count"},            // R
	{"core.readonly_commit_share", "ratio"},       // R
	{"core.aborted_share", "ratio"},               // R
	{"core.net_retries_per_ktxn", "count"},        // R
	{"core.lease_refusals_per_ktxn", "count"},     // C
	{"core.stale_table_errors_per_ktxn", "count"}, // C
	{"core.copies_per_s", "1/s"},                  // C
	{"core.copy_ms_p50", "ms"},                    // C
	{"core.copy_failures", "count"},               // C
	{"core.copy_dump_ms_p50", "ms"},               // R
	{"core.rejected_per_copy", "count"},           // R
	{"core.rejected_share", "ratio"},              // C
	{"consensus.proposals_per_copy", "count"},     // R
	{"consensus.leader_changes", "count"},         // R
	{"consensus.elections", "count"},              // R
	{"sqldb.self_us_p50", "us"},                   // L
	{"sqldb.allocs_per_txn", "count"},             // L
	{"sqldb.stmts_per_txn", "count"},              // R
	{"sqldb.compiled_fraction", "ratio"},          // R
	{"sqldb.plan_cache_hit_rate", "ratio"},        // R
	{"sqldb.pool_hit_rate", "ratio"},              // R
	{"sqldb.pool_evictions_per_txn", "count"},     // R
	{"sqldb.optimistic_read_share", "ratio"},      // R
	{"sqldb.deadlocks_per_ktxn", "count"},         // C
	{"sqldb.lock_timeouts_per_ktxn", "count"},     // C
	{"wal.self_us_p50", "us"},                     // L
	{"wal.append_us_per_txn", "us"},               // L
	{"wal.sync_us_per_txn", "us"},                 // L
	{"wal.flushes_per_txn", "count"},              // R
	{"wal.bytes_per_txn", "B"},                    // R
	{"wal.flush_batch_mean", "count"},             // R
	{"wal.restart_ms", "ms"},                      // C
	{"sla.violation_windows", "count"},            // R
	{"obs.span_overhead_share", "ratio"},          // L
	{"obs.spans_per_txn", "count"},                // R
	{"obs.spans_dropped_share", "ratio"},          // R
	{"bench.span_overhead_share", "ratio"},        // L
	{"client.samples", "count"},                   // C
	{"client.txn_per_s_mean", "1/s"},              // C
	{"client.lat_p50_us", "us"},                   // C
	{"client.lat_p95_us", "us"},                   // C
	{"client.lat_p99_us", "us"},                   // C
	{"client.lat_p999_us", "us"},                  // C
	{"client.lat_max_ms", "ms"},                   // C
	{"client.retry_share", "ratio"},               // C
	{"client.failed_share", "ratio"},              // C
	{"process.cpu_us_per_txn", "us"},              // C
	{"process.allocs_per_txn", "count"},           // C
	{"process.alloc_bytes_per_txn", "B"},          // C
	{"process.gc_cycles", "count"},                // C
	{"process.gc_pause_ms", "ms"},                 // C
	{"process.resident_mb", "MB"},                 // C
	{"process.peak_rss_mb", "MB"},                 // C
	{"process.steal_share", "ratio"},              // C
	{"unattributed_us_p50", "us"},                 // L
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSet collects one run's metrics against a catalogue, so a name is
// reported once, with the catalogue's unit, and none is forgotten.
type metricSet struct {
	defs []metricDef
	vals map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]metric, len(defs))}
}

func (m *metricSet) set(name string, v float64) {
	if _, dup := m.vals[name]; dup {
		panic("bench: metric reported twice: " + name)
	}
	for _, d := range m.defs {
		if d.name == name {
			m.vals[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("bench: metric not in the catalogue: " + name)
}

// finish reports every catalogue metric the workload has no source for as 0
// (a wire metric on an in-process workload, a copy metric without copies) and
// returns the full set.
func (m *metricSet) finish() map[string]metric {
	for _, d := range m.defs {
		if _, ok := m.vals[d.name]; !ok {
			m.vals[d.name] = metric{Value: 0, Unit: d.unit}
		}
	}
	return m.vals
}

// print lists the metrics by name with their units, in catalogue order.
func (m *metricSet) print(workload string) {
	for _, d := range m.defs {
		fmt.Printf("%-16s %-32s %16.4f %s\n", workload, d.name, m.vals[d.name].Value, d.unit)
	}
}

// ---- registry deltas (source R) ----

// regDelta is the change of the platform's public registry over a window.
type regDelta struct{ before, after obs.Snapshot }

func (d regDelta) counter(name string, kv ...string) float64 {
	return float64(d.after.Counter(name, kv...)) - float64(d.before.Counter(name, kv...))
}

// engineStat is the change of one bridged per-engine statistic, summed over
// the cluster's machines.
func (d regDelta) engineStat(stat string) float64 {
	return d.after.Gauge("sqldb_engine_stat", "stat", stat) - d.before.Gauge("sqldb_engine_stat", "stat", stat)
}

// hist returns the histogram of the observations made inside the window.
func (d regDelta) hist(name string) obs.HistogramSnapshot {
	a, ok := d.after.Histogram(name)
	if !ok {
		return obs.HistogramSnapshot{}
	}
	b, _ := d.before.Histogram(name)
	out := obs.HistogramSnapshot{Bounds: a.Bounds, Buckets: append([]uint64(nil), a.Buckets...), Sum: a.Sum - b.Sum}
	for i := range b.Buckets {
		out.Buckets[i] -= b.Buckets[i]
	}
	for _, c := range out.Buckets {
		out.Count += c
	}
	return out
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// retryableCodes are the wire_errors_total labels a client may retry.
var retryableCodes = []string{"rejected", "deadlock", "lock_timeout", "optimistic_conflict",
	"stale_route", "machine_failed", "unavailable", "shutdown", "not_leader"}

// registryMetrics derives every R metric from the registry's change over a
// window in which txns operations committed and copies replica copies ran.
func registryMetrics(m *metricSet, d regDelta, txns, copies float64) {
	m.set("wire.bytes_per_txn", div(d.counter("wire_bytes_read_total")+d.counter("wire_bytes_written_total"), txns))
	m.set("wire.msgs_per_txn", div(d.counter("wire_msgs_total"), txns))
	var wireErrs float64
	for _, code := range retryableCodes {
		wireErrs += d.counter("wire_errors_total", "code", code)
	}
	m.set("wire.retryable_errors_per_ktxn", div(1000*wireErrs, txns))

	m.set("system.routes_per_txn", div(d.counter("system_route_total"), txns))

	committed, aborted := d.counter("core_txn_committed_total"), d.counter("core_txn_aborted_total")
	m.set("core.prepare_us_p50", 1e6*d.hist("core_2pc_prepare_seconds").Quantile(0.5))
	m.set("core.commit_us_p50", 1e6*d.hist("core_2pc_commit_seconds").Quantile(0.5))
	m.set("core.prepares_per_txn", div(d.counter("core_2pc_prepare_total"), txns))
	m.set("core.readonly_commit_share", div(d.counter("core_2pc_readonly_commit_total"), committed))
	m.set("core.aborted_share", div(aborted, committed+aborted))
	m.set("core.net_retries_per_ktxn", div(1000*d.counter("core_net_retry_total"), txns))
	m.set("core.copy_dump_ms_p50", 1e3*d.hist("core_copy_dump_seconds").Quantile(0.5))
	m.set("core.rejected_per_copy", div(d.counter("core_writes_rejected_total"), copies))

	m.set("consensus.proposals_per_copy", div(d.counter("consensus_proposals_total", "result", "committed"), copies))
	m.set("consensus.leader_changes", d.counter("consensus_leader_changes_total"))
	m.set("consensus.elections", d.counter("consensus_elections_total"))

	stmts := d.engineStat("stmt_exec_total")
	m.set("sqldb.stmts_per_txn", div(stmts, txns))
	m.set("sqldb.compiled_fraction", div(d.engineStat("compiled_exec_total"), stmts))
	planHits, planMisses := d.engineStat("plan_cache_hits"), d.engineStat("plan_cache_misses")
	m.set("sqldb.plan_cache_hit_rate", div(planHits, planHits+planMisses))
	poolHits, poolMisses := d.engineStat("pool_hits"), d.engineStat("pool_misses")
	m.set("sqldb.pool_hit_rate", div(poolHits, poolHits+poolMisses))
	m.set("sqldb.pool_evictions_per_txn", div(d.engineStat("pool_evictions"), txns))
	m.set("sqldb.optimistic_read_share", div(d.engineStat("readpath_optimistic_hits"), stmts))

	batch := d.hist("wal_flush_batch_size")
	m.set("wal.flushes_per_txn", div(d.counter("wal_flush_total"), txns))
	m.set("wal.bytes_per_txn", div(d.counter("wal_appended_bytes_total"), txns))
	m.set("wal.flush_batch_mean", batch.Mean())

	m.set("sla.violation_windows", d.counter("sla_violations_total"))
}

// ---- process counters (source C) ----

// procCounters is a reading of the process's own cost counters, and of the
// time the hypervisor took the box's processors away from it.
type procCounters struct {
	cpu            time.Duration
	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        time.Duration
	steal          time.Duration
}

func readProc() procCounters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procCounters{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcCycles: ms.NumGC,
		gcPause:  time.Duration(ms.PauseTotalNs),
		steal:    stealTime(),
	}
}

// stealTime reads the steal column of /proc/stat's first line (USER_HZ is
// 100 on Linux); 0 where the file or the column is missing.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

func processMetrics(m *metricSet, before, after procCounters, txns float64, window time.Duration) {
	m.set("process.steal_share", div(float64(after.steal-before.steal), float64(window)*float64(runtime.NumCPU())))
	m.set("process.cpu_us_per_txn", div(float64(after.cpu-before.cpu)/1e3, txns))
	m.set("process.allocs_per_txn", div(float64(after.mallocs-before.mallocs), txns))
	m.set("process.alloc_bytes_per_txn", div(float64(after.bytes-before.bytes), txns))
	m.set("process.gc_cycles", float64(after.gcCycles-before.gcCycles))
	m.set("process.gc_pause_ms", float64(after.gcPause-before.gcPause)/1e6)
}

// procStatusMB reads one kB field of /proc/self/status — VmRSS, the resident
// set, or VmHWM, its high-water mark — in MB.
func procStatusMB(field string) (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}
