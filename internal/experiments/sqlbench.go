package experiments

import (
	"fmt"
	"runtime"
	"time"

	"sdp/internal/core"
	"sdp/internal/obs"
	"sdp/internal/sqldb"
	"sdp/internal/tpcw"
)

// SQLBench holds the hot-path microbenchmark results tracked across
// revisions of the query engine (see DESIGN.md, "Performance architecture").
// The three ns/op numbers correspond to BenchmarkSQLPointRead,
// BenchmarkClusterReplicatedWrite and BenchmarkTPCWMixSingleEngine; the JSON
// form is what cmd/experiments -bench-sqldb writes to BENCH_sqldb.json.
type SQLBench struct {
	PointReadNsPerOp       float64 `json:"point_read_ns_per_op"`
	PointReadAllocsPerOp   float64 `json:"point_read_allocs_per_op"`
	ReplicatedWriteNsPerOp float64 `json:"replicated_write_ns_per_op"`
	TPCWMixNsPerOp         float64 `json:"tpcw_mix_ns_per_op"`
	TPCWMixTPS             float64 `json:"tpcw_mix_tps"`
	PlanCacheHitRate       float64 `json:"plan_cache_hit_rate"`
	// CompiledFraction is the share of statements served by the compiled
	// executor across the bench engines (compiled_exec_total/stmt_exec_total).
	CompiledFraction float64 `json:"compiled_fraction"`
	Iterations       int     `json:"iterations"`
	// Tracing overhead: the point-read loop on an engine with a span ring
	// attached, with sampling off (the production default — every recording
	// site short-circuits on the zero trace context) and with every call
	// traced. TraceOverheadPct is the on-vs-off regression in percent.
	PointReadTracingOffNsPerOp float64 `json:"point_read_tracing_off_ns_per_op"`
	PointReadTracingOnNsPerOp  float64 `json:"point_read_tracing_on_ns_per_op"`
	TraceOverheadPct           float64 `json:"trace_overhead_pct"`
}

// benchEngineDB adapts one database of a single engine to tpcw.DB.
type benchEngineDB struct {
	e  *sqldb.Engine
	db string
}

func (d benchEngineDB) Begin() (tpcw.Txn, error) { return d.e.Begin(d.db) }

// sqlBenchIters picks the per-benchmark iteration count.
func (c Config) sqlBenchIters() int {
	if c.Quick {
		return 2000
	}
	return 50000
}

// RunSQLBench measures the three headline hot-path latencies: a single-engine
// primary-key point read, a replicated single-row update through the cluster
// controller (2 replicas, 2PC), and one mix-weighted TPC-W transaction on a
// single engine. The point read is the call sequence a cluster controller's
// replica session makes for one (core/session.go): BeginWithID, ExecStmt,
// Commit. Each is reported as mean ns/op over the configured number of
// iterations, after a warmup that fills the buffer pool and the plan caches.
// The returned snapshot carries every engine's and the bench cluster's
// metrics; cmd/experiments writes it next to BENCH_sqldb.json.
func RunSQLBench(cfg Config) (SQLBench, obs.Snapshot, error) {
	iters := cfg.sqlBenchIters()
	res := SQLBench{Iterations: iters}
	reg := obs.NewRegistry()

	// Point read: the same loop as BenchmarkSQLPointRead.
	e := sqldb.NewEngine(sqldb.DefaultConfig())
	bridgeEngine(reg, "bench_point", e)
	if err := e.CreateDatabase("app"); err != nil {
		return res, obs.Snapshot{}, err
	}
	if _, err := e.Exec("app", "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
		return res, obs.Snapshot{}, err
	}
	for i := 0; i < 1000; i++ {
		if _, err := e.Exec("app", fmt.Sprintf("INSERT INTO t VALUES (%d, 'val%d')", i, i)); err != nil {
			return res, obs.Snapshot{}, err
		}
	}
	stmt, err := sqldb.Parse("SELECT v FROM t WHERE id = ?")
	if err != nil {
		return res, obs.Snapshot{}, err
	}
	params := []sqldb.Value{sqldb.NewInt(0)}
	point := func(i int) error {
		tx, err := e.BeginWithID("app", uint64(i)+1)
		if err != nil {
			return err
		}
		params[0] = sqldb.NewInt(int64(i % 1000))
		if _, err := tx.ExecStmt(stmt, params...); err != nil {
			return err
		}
		return tx.Commit()
	}
	for i := 0; i < 200; i++ { // warmup
		if err := point(i); err != nil {
			return res, obs.Snapshot{}, err
		}
	}
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := point(i); err != nil {
			return res, obs.Snapshot{}, err
		}
	}
	res.PointReadNsPerOp = float64(time.Since(start).Nanoseconds()) / float64(iters)
	runtime.ReadMemStats(&msAfter)
	res.PointReadAllocsPerOp = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(iters)
	st := e.Stats().PlanCache
	res.PlanCacheHitRate = st.HitRate()

	// Tracing overhead: the same point-read loop on an engine with a span
	// ring attached, unsampled (zero context on every transaction) and then
	// with every call traced.
	tcfg := sqldb.DefaultConfig()
	tcfg.Spans = reg.Spans()
	et := sqldb.NewEngine(tcfg)
	if err := et.CreateDatabase("app"); err != nil {
		return res, obs.Snapshot{}, err
	}
	if _, err := et.Exec("app", "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
		return res, obs.Snapshot{}, err
	}
	for i := 0; i < 1000; i++ {
		if _, err := et.Exec("app", fmt.Sprintf("INSERT INTO t VALUES (%d, 'val%d')", i, i)); err != nil {
			return res, obs.Snapshot{}, err
		}
	}
	tracedPoint := func(i int, tc obs.SpanContext) error {
		tx, err := et.BeginWithID("app", uint64(i)+1)
		if err != nil {
			return err
		}
		tx.SetTraceContext(tc)
		params[0] = sqldb.NewInt(int64(i % 1000))
		if _, err := tx.ExecStmt(stmt, params...); err != nil {
			return err
		}
		return tx.Commit()
	}
	for i := 0; i < 200; i++ { // warmup
		if err := tracedPoint(i, obs.SpanContext{}); err != nil {
			return res, obs.Snapshot{}, err
		}
	}
	start = time.Now()
	for i := 0; i < iters; i++ {
		if err := tracedPoint(i, obs.SpanContext{}); err != nil {
			return res, obs.Snapshot{}, err
		}
	}
	res.PointReadTracingOffNsPerOp = float64(time.Since(start).Nanoseconds()) / float64(iters)
	start = time.Now()
	for i := 0; i < iters; i++ {
		tid := obs.NewTraceID()
		if err := tracedPoint(i, obs.SpanContext{TraceID: tid, SpanID: tid, Sampled: true}); err != nil {
			return res, obs.Snapshot{}, err
		}
	}
	res.PointReadTracingOnNsPerOp = float64(time.Since(start).Nanoseconds()) / float64(iters)
	if res.PointReadTracingOffNsPerOp > 0 {
		res.TraceOverheadPct = (res.PointReadTracingOnNsPerOp - res.PointReadTracingOffNsPerOp) /
			res.PointReadTracingOffNsPerOp * 100
	}

	// Replicated write: the same loop as BenchmarkClusterReplicatedWrite.
	c := core.NewCluster("bench", core.Options{Replicas: 2, Metrics: reg})
	if _, err := c.AddMachines(2); err != nil {
		return res, obs.Snapshot{}, err
	}
	if err := c.CreateDatabase("app"); err != nil {
		return res, obs.Snapshot{}, err
	}
	if _, err := c.Exec("app", "CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
		return res, obs.Snapshot{}, err
	}
	if _, err := c.Exec("app", "INSERT INTO t VALUES (1, 0)"); err != nil {
		return res, obs.Snapshot{}, err
	}
	wIters := iters / 5
	for i := 0; i < 100; i++ { // warmup
		if _, err := c.Exec("app", "UPDATE t SET v = v + 1 WHERE id = 1"); err != nil {
			return res, obs.Snapshot{}, err
		}
	}
	start = time.Now()
	for i := 0; i < wIters; i++ {
		if _, err := c.Exec("app", "UPDATE t SET v = v + 1 WHERE id = 1"); err != nil {
			return res, obs.Snapshot{}, err
		}
	}
	res.ReplicatedWriteNsPerOp = float64(time.Since(start).Nanoseconds()) / float64(wIters)

	// TPC-W mix: the same loop as BenchmarkTPCWMixSingleEngine.
	te := sqldb.NewEngine(sqldb.DefaultConfig())
	bridgeEngine(reg, "bench_tpcw", te)
	if err := te.CreateDatabase("tpcw"); err != nil {
		return res, obs.Snapshot{}, err
	}
	db := benchEngineDB{e: te, db: "tpcw"}
	sc := tpcw.SmallScale(1)
	if err := tpcw.Load(db, sc); err != nil {
		return res, obs.Snapshot{}, err
	}
	client := &tpcw.Client{DB: db, Mix: tpcw.ShoppingMix, Workload: tpcw.NewWorkload(sc)}
	_ = client.RunN(1, 200) // warmup
	mixIters := iters / 2
	stats := client.RunN(cfg.Seed, mixIters)
	if stats.Fatal > 0 {
		return res, obs.Snapshot{}, fmt.Errorf("experiments: fatal errors in TPC-W bench run")
	}
	res.TPCWMixNsPerOp = float64(stats.Elapsed.Nanoseconds()) / float64(mixIters)
	res.TPCWMixTPS = stats.TPS()
	pointStats, tpcwStats := e.Stats(), te.Stats()
	if total := pointStats.StmtExecs + tpcwStats.StmtExecs; total > 0 {
		res.CompiledFraction = float64(pointStats.CompiledExecs+tpcwStats.CompiledExecs) / float64(total)
	}
	return res, reg.Snapshot(), nil
}
