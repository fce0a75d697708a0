package core

import (
	"strconv"

	"sdp/internal/obs"
)

// clusterMetrics holds the controller's resolved observability instruments.
// Every instrument is looked up once at cluster construction, so the hot
// paths (read routing, write routing, 2PC) touch only wait-free atomics.
// The metric families are documented in OBSERVABILITY.md; the prefix is
// core_ for controller-owned families and sqldb_ for the per-engine
// statistics bridged into the registry by the snapshot hook.
type clusterMetrics struct {
	reg *obs.Registry

	// Transaction outcomes (Stats() reads these back).
	committed *obs.Counter
	aborted   *obs.Counter
	rejected  *obs.Counter

	// 2PC phase counters and latencies.
	prepareTotal   *obs.Counter
	voteNoTotal    *obs.Counter
	readonlyCommit *obs.Counter
	unsafePrepare  *obs.Counter
	prepareSeconds *obs.Histogram
	commitSeconds  *obs.Histogram

	// Read routing, resolved per option so routing pays one atomic add.
	readRoute1 *obs.Counter
	readRoute2 *obs.Counter
	readRoute3 *obs.Counter

	// Algorithm 1 replica creation.
	copyPhase     *obs.CounterVec
	copyDump      *obs.Histogram
	copiesRunning *obs.Gauge

	// Machine-failure recovery.
	recoveryTotal   *obs.CounterVec
	recoverySeconds *obs.Histogram
	walRecovery     *obs.CounterVec

	// SLA placement (Algorithm 2 inside the cluster).
	slaProbes     *obs.Counter
	slaPlacements *obs.CounterVec

	// Failure-aware controller: deadline expiries, retries, presumed
	// aborts, degraded read routing, and out-of-band outcome resolution
	// (all zero unless a simulated network injects faults).
	twopcTimeout  *obs.CounterVec
	presumedAbort *obs.Counter
	netRetry      *obs.CounterVec
	readDegraded  *obs.Counter
	bgResolved    *obs.CounterVec

	// Counted by the machines' engines themselves (sqldb.Config.PoolWritebacks).
	poolWritebacks *obs.Counter

	// Gauges refreshed by the snapshot hook.
	machineUtil *obs.GaugeVec
	machineDBs  *obs.GaugeVec
	engineStat  *obs.GaugeVec
}

// newClusterMetrics resolves every instrument family on reg.
func newClusterMetrics(reg *obs.Registry) *clusterMetrics {
	return &clusterMetrics{
		reg: reg,

		committed: reg.Counter("core_txn_committed_total",
			"Distributed transactions committed (1PC read-only and 2PC)"),
		aborted: reg.Counter("core_txn_aborted_total",
			"Distributed transactions aborted, any cause"),
		rejected: reg.Counter("core_writes_rejected_total",
			"Writes proactively rejected by Algorithm 1 during replica creation (Figure 8)"),

		prepareTotal: reg.Counter("core_2pc_prepare_total",
			"2PC PREPARE rounds issued (one per read-write commit attempt)"),
		voteNoTotal: reg.Counter("core_2pc_vote_no_total",
			"2PC PREPARE rounds in which at least one participant voted no"),
		readonlyCommit: reg.Counter("core_2pc_readonly_commit_total",
			"Read-only transactions committed in one phase (no PREPARE)"),
		unsafePrepare: reg.Counter("core_2pc_unsafe_readlock_release_total",
			"PREPAREs issued while read locks are released at PREPARE under an aggressive controller with Option 2/3 — the Table 1 anomaly window"),
		prepareSeconds: reg.Histogram("core_2pc_prepare_seconds",
			"Latency of 2PC phase 1 (all participants voting)", nil),
		commitSeconds: reg.Histogram("core_2pc_commit_seconds",
			"Latency of 2PC phase 2 (commit applied on all participants)", nil),

		readRoute1: reg.CounterVec("core_read_route_total",
			"Read operations routed, by read option", "option").With("option1"),
		readRoute2: reg.CounterVec("core_read_route_total", "", "option").With("option2"),
		readRoute3: reg.CounterVec("core_read_route_total", "", "option").With("option3"),

		copyPhase: reg.CounterVec("core_copy_phase_total",
			"Algorithm 1 replica-copy phase transitions (Figures 8-9)", "phase"),
		copyDump: reg.Histogram("core_copy_dump_seconds",
			"Duration of one table dump+restore during replica creation", nil),
		copiesRunning: reg.Gauge("core_copies_running",
			"Replica copies currently in progress"),

		recoveryTotal: reg.CounterVec("core_recovery_total",
			"Databases processed by machine-failure recovery, by result", "result"),
		recoverySeconds: reg.Histogram("core_recovery_seconds",
			"Per-database re-replication duration during recovery", nil),
		walRecovery: reg.CounterVec("wal_recovery_total",
			"Databases re-replicated by recovery, by path: fast (a restarted machine caught up, only tables written since copied) or full (every table copied onto the least-loaded machine)", "path"),

		twopcTimeout: reg.CounterVec("twopc_timeout_total",
			"2PC deliveries that exceeded the coordinator's deadline or exhausted retries, by phase (prepare: vote missing, presumed abort; commit: COMMIT lost to the network, its branch settled by the in-doubt resolver)", "phase"),
		presumedAbort: reg.Counter("core_2pc_presumed_abort_total",
			"Transactions aborted by the presumed-abort rule after a PREPARE vote timeout"),
		netRetry: reg.CounterVec("core_net_retry_total",
			"Machine-call retries after a transient network fault, by operation", "op"),
		readDegraded: reg.Counter("core_read_route_degraded_total",
			"Reads routed away from their preferred replica because the controller link to it is partitioned"),
		bgResolved: reg.CounterVec("core_2pc_background_resolution_total",
			"Background in-doubt resolutions and ROLLBACK re-deliveries after in-band delivery failed, by result", "result"),

		slaProbes: reg.Counter("core_sla_probe_total",
			"First-Fit machine probes during SLA placement (Algorithm 2)"),
		slaPlacements: reg.CounterVec("core_sla_placement_total",
			"SLA placements attempted, by result", "result"),

		machineUtil: reg.GaugeVec("core_machine_utilization",
			"Fraction of a machine's capacity reserved by SLA placement", "machine", "resource"),
		machineDBs: reg.GaugeVec("core_machine_dbs",
			"Databases hosted per machine", "machine"),
		poolWritebacks: reg.Counter("sqldb_pool_writebacks_total",
			"Dirty buffer-pool pages encoded into their disk image, on eviction or when a dump, checkpoint or replica copy flushes them"),
		engineStat: reg.GaugeVec("sqldb_engine_stat",
			"Per-engine DBMS counters aggregated over a cluster's machines (commits, aborts, deadlocks, pool and plan-cache activity and compiled-execution counters)", "cluster", "stat"),
	}
}

// gidString renders a transaction's trace correlation ID.
func gidString(gid uint64) string { return "gid:" + strconv.FormatUint(gid, 10) }

// readRouteCounter returns the routing counter for the configured option.
func (m *clusterMetrics) readRouteCounter(o ReadOption) *obs.Counter {
	switch o {
	case ReadOption2:
		return m.readRoute2
	case ReadOption3:
		return m.readRoute3
	default:
		return m.readRoute1
	}
}

// bridgeStats is the registry snapshot hook: it pulls every live machine's
// engine statistics and SLA reservations into gauges, so one Snapshot()
// carries the whole cluster's state — buffer-pool hit rates (Figures 2-4),
// deadlocks (Figures 5-7), and per-machine utilization (Table 2) — without
// the reader touching any engine directly.
func (c *Cluster) bridgeStats() {
	c.mu.Lock()
	ms := make([]*Machine, 0, len(c.order))
	for _, id := range c.order {
		ms = append(ms, c.machines[id])
	}
	c.mu.Unlock()

	m := c.metrics
	var commits, aborts, deadlocks uint64
	var poolHits, poolMisses, poolEvict, poolRowsDecoded uint64
	var planHits, planMisses uint64
	var planCompiles, compiledExecs, stmtExecs uint64
	for _, mach := range ms {
		m.machineDBs.With(mach.ID()).Set(float64(mach.dbCount.Load()))
		used, capacity := mach.Used(), mach.Capacity()
		for _, res := range [...]struct {
			name      string
			used, cap float64
		}{
			{"cpu", used.CPU, capacity.CPU},
			{"memory", used.Memory, capacity.Memory},
			{"disk", used.Disk, capacity.Disk},
			{"diskbw", used.DiskBW, capacity.DiskBW},
		} {
			frac := 0.0
			if res.cap > 0 {
				frac = res.used / res.cap
			}
			m.machineUtil.With(mach.ID(), res.name).Set(frac)
		}
		if mach.Failed() {
			continue
		}
		st := mach.Engine().Stats()
		commits += st.Commits
		aborts += st.Aborts
		deadlocks += st.Deadlocks
		poolHits += st.Pool.Hits
		poolMisses += st.Pool.Misses
		poolEvict += st.Pool.Evictions
		poolRowsDecoded += st.Pool.RowsDecoded
		planHits += st.PlanCache.Hits
		planMisses += st.PlanCache.Misses
		planCompiles += st.PlanCompiles
		compiledExecs += st.CompiledExecs
		stmtExecs += st.StmtExecs
	}
	set := func(stat string, v float64) { m.engineStat.With(c.name, stat).Set(v) }
	set("commits", float64(commits))
	set("aborts", float64(aborts))
	set("deadlocks", float64(deadlocks))
	set("pool_hits", float64(poolHits))
	set("pool_misses", float64(poolMisses))
	set("pool_rows_decoded", float64(poolRowsDecoded))
	set("pool_evictions", float64(poolEvict))
	set("pool_hit_rate", ratio(poolHits, poolMisses))
	set("plan_cache_hits", float64(planHits))
	set("plan_cache_misses", float64(planMisses))
	set("plan_cache_hit_rate", ratio(planHits, planMisses))
	set("plan_compile_total", float64(planCompiles))
	set("compiled_exec_total", float64(compiledExecs))
	set("stmt_exec_total", float64(stmtExecs))
}

// ratio returns hits/(hits+misses), or 0 with no accesses.
func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
