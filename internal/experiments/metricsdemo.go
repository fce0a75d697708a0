package experiments

import (
	"fmt"
	"time"

	"sdp/internal/core"
	"sdp/internal/obs"
	"sdp/internal/sla"
	"sdp/internal/sqldb"
	"sdp/internal/tpcw"
)

// RunMetricsDemo drives a representative workload against one cluster and
// returns its registry and the unified observability snapshot — the
// `experiments -metrics` artefact. The run covers every instrumented path at once:
//
//   - a TPC-W shopping mix on a 2-replica database (2PC phase latencies,
//     read routing, buffer-pool and plan-cache activity),
//   - an Algorithm 1 replica creation started mid-run (copy phase
//     transitions, dump durations, rejected writes),
//   - an SLA compliance monitor on the database, evaluated every 100ms, so
//     sla_* families and the returned compliance report are populated,
//
// so the resulting snapshot prints non-zero values for the families that
// back the paper's Figures 2–4 and 8–9. OBSERVABILITY.md walks through
// reading the output.
func RunMetricsDemo(cfg Config) (*obs.Registry, obs.Snapshot, sla.ComplianceReport, error) {
	reg := obs.NewRegistry()
	mon := sla.NewMonitor(reg, sla.MonitorOptions{Window: 100 * time.Millisecond})
	c := core.NewCluster("demo", core.Options{
		Replicas:     2,
		EngineConfig: cfg.engineConfig(),
		Metrics:      reg,
		SLAMonitor:   mon,
	})
	if _, err := c.AddMachines(3); err != nil {
		return nil, obs.Snapshot{}, sla.ComplianceReport{}, err
	}
	if err := c.CreateDatabase("tpcw"); err != nil {
		return nil, obs.Snapshot{}, sla.ComplianceReport{}, err
	}
	// A deliberately tight mean-latency bound: the demo is meant to show the
	// violation machinery firing, not a healthy report.
	mon.Track("tpcw", sla.SLA{MaxMeanLatency: time.Nanosecond})
	db := clusterDB{c: c, db: "tpcw"}
	scale := tpcw.SmallScale(cfg.Seed)
	if err := tpcw.Load(db, scale); err != nil {
		return nil, obs.Snapshot{}, sla.ComplianceReport{}, err
	}
	workload := tpcw.NewWorkload(scale)

	// Find the machine not hosting the database: the replica-copy target.
	hosts, err := c.Replicas("tpcw")
	if err != nil {
		return nil, obs.Snapshot{}, sla.ComplianceReport{}, err
	}
	target := ""
	for _, id := range c.MachineIDs() {
		hosting := false
		for _, h := range hosts {
			hosting = hosting || h == id
		}
		if !hosting {
			target = id
			break
		}
	}
	if target == "" {
		return nil, obs.Snapshot{}, sla.ComplianceReport{}, fmt.Errorf("experiments: no free machine for the copy target")
	}

	const concurrency = 4
	stop := make(chan struct{})
	results := make(chan tpcw.Stats, concurrency)
	for s := 0; s < concurrency; s++ {
		client := &tpcw.Client{DB: db, Mix: tpcw.ShoppingMix, Workload: workload, Classify: classify}
		go func(seed int64) {
			results <- client.RunSession(seed, stop)
		}(cfg.Seed + int64(s)*104729)
	}

	d := cfg.measureDuration()
	time.Sleep(d / 2)
	// Mid-run: create the third replica while writes keep arriving, so the
	// snapshot shows Algorithm 1's phases and any proactive rejections.
	copyErr := c.CreateReplica("tpcw", target)
	time.Sleep(d / 2)
	close(stop)
	for s := 0; s < concurrency; s++ {
		<-results
	}
	if copyErr != nil {
		return nil, obs.Snapshot{}, sla.ComplianceReport{}, fmt.Errorf("experiments: replica creation during demo: %w", copyErr)
	}
	// Snapshot first: its OnSnapshot hook evaluates the pending compliance
	// windows, so the snapshot and the report agree on the violation counts.
	snap := reg.Snapshot()
	return reg, snap, mon.Report(), nil
}

// bridgeEngine registers a snapshot hook exposing one standalone engine's
// statistics under sqldb_engine_stat, the same family the cluster
// controller bridges its machines into.
func bridgeEngine(reg *obs.Registry, name string, e *sqldb.Engine) {
	g := reg.GaugeVec("sqldb_engine_stat",
		"Per-engine DBMS counters aggregated over a cluster's machines (commits, aborts, deadlocks, pool and plan-cache activity)",
		"cluster", "stat")
	reg.OnSnapshot(func() {
		st := e.Stats()
		set := func(stat string, v float64) { g.With(name, stat).Set(v) }
		set("commits", float64(st.Commits))
		set("aborts", float64(st.Aborts))
		set("deadlocks", float64(st.Deadlocks))
		set("pool_hits", float64(st.Pool.Hits))
		set("pool_misses", float64(st.Pool.Misses))
		set("pool_rows_decoded", float64(st.Pool.RowsDecoded))
		set("pool_evictions", float64(st.Pool.Evictions))
		set("pool_hit_rate", st.Pool.HitRate())
		set("plan_cache_hits", float64(st.PlanCache.Hits))
		set("plan_cache_misses", float64(st.PlanCache.Misses))
		set("plan_cache_hit_rate", st.PlanCache.HitRate())
		set("plan_compile_total", float64(st.PlanCompiles))
		set("compiled_exec_total", float64(st.CompiledExecs))
		set("stmt_exec_total", float64(st.StmtExecs))
	})
}
