package sdp

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices called out in DESIGN.md. Each
// bench runs the corresponding experiment at reduced (Quick) scale and
// reports the headline metric via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates every evaluation artefact's shape. cmd/experiments runs the
// same code at full scale and prints the paper-style tables.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdp/internal/history"

	"sdp/internal/core"
	"sdp/internal/experiments"
	"sdp/internal/placement"
	"sdp/internal/sla"
	"sdp/internal/sqldb"
	"sdp/internal/tpcw"
	"sdp/internal/workload"
)

func benchCfg() experiments.Config { return experiments.Config{Quick: true, Seed: 42} }

// BenchmarkTable1Serializability regenerates Table 1: the number of
// serializability violations per cell of (read option) x (ack mode).
func BenchmarkTable1Serializability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunTable1(benchCfg())
		var aggressive23, others int
		for _, cell := range res.Cells {
			if cell.Mode == core.Aggressive && cell.Option != core.ReadOption1 {
				aggressive23 += cell.Violations
			} else {
				others += cell.Violations
			}
		}
		b.ReportMetric(float64(aggressive23), "violations-aggressive-opt23")
		b.ReportMetric(float64(others), "violations-other-cells")
	}
}

// throughputBench runs one of Figures 2–4 and reports the TPS of each
// series at the highest measured concurrency.
func throughputBench(b *testing.B, mix tpcw.Mix) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunThroughput(mix, benchCfg())
		for _, name := range res.Order {
			pts := res.Series[name]
			b.ReportMetric(pts[len(pts)-1].TPS, "tps-"+name)
		}
	}
}

// BenchmarkFig2ShoppingThroughput regenerates Figure 2.
func BenchmarkFig2ShoppingThroughput(b *testing.B) { throughputBench(b, tpcw.ShoppingMix) }

// BenchmarkFig3BrowsingThroughput regenerates Figure 3.
func BenchmarkFig3BrowsingThroughput(b *testing.B) { throughputBench(b, tpcw.BrowsingMix) }

// BenchmarkFig4OrderingThroughput regenerates Figure 4.
func BenchmarkFig4OrderingThroughput(b *testing.B) { throughputBench(b, tpcw.OrderingMix) }

// deadlockBench runs one of Figures 5–7 and reports each option's deadlock
// rate at the largest database size.
func deadlockBench(b *testing.B, mix tpcw.Mix) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunDeadlocks(mix, benchCfg())
		for _, name := range res.Order {
			pts := res.Series[name]
			b.ReportMetric(pts[len(pts)-1].Rate, "deadlocks-per-1k-"+name)
		}
	}
}

// BenchmarkFig5DeadlocksShopping regenerates Figure 5.
func BenchmarkFig5DeadlocksShopping(b *testing.B) { deadlockBench(b, tpcw.ShoppingMix) }

// BenchmarkFig6DeadlocksBrowsing regenerates Figure 6.
func BenchmarkFig6DeadlocksBrowsing(b *testing.B) { deadlockBench(b, tpcw.BrowsingMix) }

// BenchmarkFig7DeadlocksOrdering regenerates Figure 7.
func BenchmarkFig7DeadlocksOrdering(b *testing.B) { deadlockBench(b, tpcw.OrderingMix) }

// BenchmarkFig8RejectedDuringRecovery regenerates Figure 8: proactively
// rejected transactions per recovering database, database- vs table-level
// copying.
func BenchmarkFig8RejectedDuringRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunRecovery(benchCfg())
		for _, name := range res.Order {
			pts := res.Series[name]
			b.ReportMetric(pts[0].RejectedPerDB, "rejected-per-db-"+name)
		}
	}
}

// BenchmarkFig9ThroughputDuringRecovery regenerates Figure 9: throughput
// during the recovery window for both copy granularities.
func BenchmarkFig9ThroughputDuringRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunRecovery(benchCfg())
		for _, name := range res.Order {
			pts := res.Series[name]
			b.ReportMetric(pts[len(pts)-1].TPSDuring, "tps-during-"+name)
		}
	}
}

// BenchmarkTable2SLAPlacement regenerates Table 2: First-Fit vs optimal
// machine counts over the skew sweep. The reported metric is the total gap
// between First-Fit and the optimal across all skew factors.
func BenchmarkTable2SLAPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunTable2(benchCfg())
		gap := 0
		machines := 0
		for _, row := range res.Rows {
			gap += row.MachinesUsed - row.Optimal
			machines += row.MachinesUsed
		}
		b.ReportMetric(float64(gap), "firstfit-minus-optimal")
		b.ReportMetric(float64(machines), "total-machines")
	}
}

// --- ablation benches (design choices called out in DESIGN.md) -------------

// BenchmarkAblationPrepareLockRelease measures how many Table 1 violations
// the release-read-locks-at-PREPARE optimisation is responsible for: with
// the optimisation off, even the aggressive controller with Option 3 must
// be serializable.
func BenchmarkAblationPrepareLockRelease(b *testing.B) {
	run := func(release bool) int {
		engCfg := sqldb.DefaultConfig()
		engCfg.LockTimeout = 50 * time.Millisecond
		engCfg.ReleaseReadLocksAtPrepare = release
		return runAnomalyTrials(b, engCfg, 30)
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(float64(run(true)), "violations-with-optimisation")
		b.ReportMetric(float64(run(false)), "violations-without")
	}
}

// BenchmarkAblationBufferPool sweeps the buffer-pool size and reports the
// Option1/Option3 throughput ratio. The interesting regime is a pool that
// holds about one database's working set (the middle point): Option 1 then
// serves each database from a warm home replica while Option 3 thrashes
// both pools. With a tiny pool both options thrash and with a huge pool
// both fit, so the ratio approaches 1 at the extremes.
func BenchmarkAblationBufferPool(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, pages := range []int{8, 48, 4096} {
			ratio := option1Over3Ratio(b, pages)
			b.ReportMetric(ratio, fmt.Sprintf("opt1-over-opt3-%dpages", pages))
		}
	}
}

// BenchmarkAblationLockGranularity compares deadlock rates with row-level
// write locking (the default) against whole-table write locking.
func BenchmarkAblationLockGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row := deadlockRateFor(b, false)
		table := deadlockRateFor(b, true)
		b.ReportMetric(row, "deadlocks-per-1k-rowlock")
		b.ReportMetric(table, "deadlocks-per-1k-tablelock")
	}
}

// BenchmarkAblationPlacement compares First-Fit against
// First-Fit-Decreasing and Best-Fit across the Table 2 sweep.
func BenchmarkAblationPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var ff, ffd, bf int
		for _, skew := range []float64{0.4, 0.8, 1.2, 1.6, 2.0} {
			w := workload.NewSLAWorkload(42, 12, skew)
			dbs := make([]sla.Database, len(w.SizesMB))
			for j := range dbs {
				dbs[j] = sla.Database{
					Name:     fmt.Sprintf("db%d", j),
					Req:      sla.Profile(w.SizesMB[j], w.TPS[j]),
					Replicas: 1,
				}
			}
			a, _, err := placement.PlaceAll(dbs)
			if err != nil {
				b.Fatal(err)
			}
			c, _, err := placement.PlaceAllFirstFitDecreasing(dbs)
			if err != nil {
				b.Fatal(err)
			}
			d, _, err := placement.PlaceAllBestFit(dbs)
			if err != nil {
				b.Fatal(err)
			}
			ff, ffd, bf = ff+a, ffd+c, bf+d
		}
		b.ReportMetric(float64(ff), "machines-firstfit")
		b.ReportMetric(float64(ffd), "machines-ffd")
		b.ReportMetric(float64(bf), "machines-bestfit")
	}
}

// --- micro benchmarks of the substrate -------------------------------------

// BenchmarkSQLPointRead measures single-machine point-read latency through the
// calls a cluster controller's replica session makes (core/session.go):
// BeginWithID, ExecStmt, Commit.
func BenchmarkSQLPointRead(b *testing.B) {
	e := sqldb.NewEngine(sqldb.DefaultConfig())
	if err := e.CreateDatabase("app"); err != nil {
		b.Fatal(err)
	}
	if _, err := e.Exec("app", "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := e.Exec("app", fmt.Sprintf("INSERT INTO t VALUES (%d, 'val%d')", i, i)); err != nil {
			b.Fatal(err)
		}
	}
	stmt, err := sqldb.Parse("SELECT v FROM t WHERE id = ?")
	if err != nil {
		b.Fatal(err)
	}
	params := []sqldb.Value{sqldb.NewInt(0)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := e.BeginWithID("app", uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		params[0] = sqldb.NewInt(int64(i % 1000))
		if _, err := tx.ExecStmt(stmt, params...); err != nil {
			b.Fatal(err)
		}
		_ = tx.Commit()
	}
}

// BenchmarkPoolMiss measures a cold primary-key read: a one-page pool and a
// key stride of one page, so every read misses, maps the page and decodes its
// one row, through the same calls as BenchmarkSQLPointRead. A miss must not
// cost more on a wide table (22 columns, as TPC-W's item) than on a narrow one
// beyond that one row.
func BenchmarkPoolMiss(b *testing.B) {
	const pages, perPage = 8, 64
	for _, tbl := range []struct {
		name string
		cols int
	}{{"narrow", 2}, {"wide", 22}} {
		b.Run(tbl.name, func(b *testing.B) {
			cfg := sqldb.DefaultConfig()
			cfg.PoolPages = 1
			e := sqldb.NewEngine(cfg)
			if err := e.CreateDatabase("app"); err != nil {
				b.Fatal(err)
			}
			ddl, marks := "CREATE TABLE t (id INT PRIMARY KEY", "?"
			row := []sqldb.Value{sqldb.NewInt(0)}
			for c := 1; c < tbl.cols; c++ {
				ddl += fmt.Sprintf(", c%d TEXT", c)
				marks += ", ?"
				row = append(row, sqldb.NewText(fmt.Sprintf("column %d's text", c)))
			}
			if _, err := e.Exec("app", ddl+")"); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < pages*perPage; i++ {
				row[0] = sqldb.NewInt(int64(i))
				if _, err := e.Exec("app", "INSERT INTO t VALUES ("+marks+")", row...); err != nil {
					b.Fatal(err)
				}
			}
			stmt, err := sqldb.Parse("SELECT c1 FROM t WHERE id = ?")
			if err != nil {
				b.Fatal(err)
			}
			params := []sqldb.Value{sqldb.NewInt(0)}
			before := e.Stats().Pool.Misses
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx, err := e.BeginWithID("app", uint64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				params[0] = sqldb.NewInt(int64(i % pages * perPage))
				if _, err := tx.ExecStmt(stmt, params...); err != nil {
					b.Fatal(err)
				}
				_ = tx.Commit()
			}
			b.StopTimer()
			if got := e.Stats().Pool.Misses - before; got != uint64(b.N) {
				b.Fatalf("%d misses in %d reads: the benchmark is not cold", got, b.N)
			}
		})
	}
}

// BenchmarkRangeAfterInsert measures a ten-row range query on the primary key
// (INT) plus one on an indexed TEXT column: in steady state, and as the first
// range query after an INSERT of a key in the middle of both orders — when an
// index's sorted view, once a range traversal has built it, has to be kept
// current (a binary-search insert) and not sorted again from every key. The
// INSERT, and the DELETE that keeps the table at its size, are untimed.
func BenchmarkRangeAfterInsert(b *testing.B) {
	for _, rows := range []int{200, 10000} {
		for _, mutate := range []bool{false, true} {
			name := fmt.Sprintf("%d/steady", rows)
			if mutate {
				name = fmt.Sprintf("%d/after-insert", rows)
			}
			b.Run(name, func(b *testing.B) {
				e := sqldb.NewEngine(sqldb.DefaultConfig())
				if err := e.CreateDatabase("app"); err != nil {
					b.Fatal(err)
				}
				exec := func(sql string, params ...sqldb.Value) *sqldb.Result {
					res, err := e.Exec("app", sql, params...)
					if err != nil {
						b.Fatal(err)
					}
					return res
				}
				label := func(id int) sqldb.Value { return sqldb.NewText(fmt.Sprintf("n%06d", id)) }
				exec("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
				exec("CREATE INDEX t_name ON t (name)")
				for i := 0; i < rows; i++ { // even ids; the benchmark inserts odd ones
					exec("INSERT INTO t VALUES (?, ?)", sqldb.NewInt(int64(2*i)), label(2*i))
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mid := 2*((i*7919)%(rows-20)) + 1
					if mutate {
						b.StopTimer()
						exec("INSERT INTO t VALUES (?, ?)", sqldb.NewInt(int64(mid)), label(mid))
						b.StartTimer()
					}
					byPK := exec("SELECT id FROM t WHERE id >= ? AND id < ?", sqldb.NewInt(int64(mid+1)), sqldb.NewInt(int64(mid+21)))
					byName := exec("SELECT id FROM t WHERE name >= ? AND name < ?", label(mid+1), label(mid+21))
					if len(byPK.Rows) != 10 || len(byName.Rows) != 10 {
						b.Fatalf("range queries returned %d and %d rows, want 10 and 10", len(byPK.Rows), len(byName.Rows))
					}
					if mutate {
						b.StopTimer()
						exec("DELETE FROM t WHERE id = ?", sqldb.NewInt(int64(mid)))
						b.StartTimer()
					}
				}
			})
		}
	}
}

// BenchmarkClusterReplicatedWrite measures a replicated single-row update
// through the cluster controller (2 replicas, conservative, 2PC).
func BenchmarkClusterReplicatedWrite(b *testing.B) {
	c := core.NewCluster("bench", core.Options{Replicas: 2})
	if _, err := c.AddMachines(2); err != nil {
		b.Fatal(err)
	}
	if err := c.CreateDatabase("app"); err != nil {
		b.Fatal(err)
	}
	if _, err := c.Exec("app", "CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
		b.Fatal(err)
	}
	if _, err := c.Exec("app", "INSERT INTO t VALUES (1, 0)"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Exec("app", "UPDATE t SET v = v + 1 WHERE id = 1"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTPCWMixSingleEngine measures raw TPC-W transaction latency on one
// engine (the no-replication upper bound of Figures 2–4). Each benchmark
// iteration is one mix-weighted transaction, so ns/op is the mean committed
// transaction latency and the derived tps metric the single-session
// throughput.
func BenchmarkTPCWMixSingleEngine(b *testing.B) {
	e := sqldb.NewEngine(sqldb.DefaultConfig())
	if err := e.CreateDatabase("tpcw"); err != nil {
		b.Fatal(err)
	}
	db := engineDB{e: e, db: "tpcw"}
	sc := tpcw.SmallScale(1)
	if err := tpcw.Load(db, sc); err != nil {
		b.Fatal(err)
	}
	w := tpcw.NewWorkload(sc)
	client := &tpcw.Client{DB: db, Mix: tpcw.ShoppingMix, Workload: w}
	// Warm the buffer pool and plan caches before timing.
	_ = client.RunN(1, 200)
	b.ReportAllocs()
	b.ResetTimer()
	st := client.RunN(42, b.N)
	b.StopTimer()
	if st.Fatal > 0 {
		b.Fatal("fatal errors in TPC-W session")
	}
	b.ReportMetric(st.TPS(), "tps")
}

// BenchmarkPlanCache contrasts repeated Engine.Exec statement text with the
// plan cache on (default) and off: the cached path skips the lexer, parser
// and planner on every iteration after the second.
func BenchmarkPlanCache(b *testing.B) {
	setup := func(b *testing.B, cacheSize int) *sqldb.Engine {
		cfg := sqldb.DefaultConfig()
		cfg.PlanCacheSize = cacheSize
		e := sqldb.NewEngine(cfg)
		if err := e.CreateDatabase("app"); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Exec("app", "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			if _, err := e.Exec("app", fmt.Sprintf("INSERT INTO t VALUES (%d, 'val%d')", i, i)); err != nil {
				b.Fatal(err)
			}
		}
		return e
	}
	b.Run("hit", func(b *testing.B) {
		e := setup(b, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Exec("app", "SELECT v FROM t WHERE id = ?", sqldb.NewInt(int64(i%1000))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("off", func(b *testing.B) {
		e := setup(b, -1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Exec("app", "SELECT v FROM t WHERE id = ?", sqldb.NewInt(int64(i%1000))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBufferPoolParallel hammers point reads from parallel goroutines
// over a table an order of magnitude larger than one page, exercising the
// buffer pool's lock striping (a 4096-page pool spreads across 16 stripes).
func BenchmarkBufferPoolParallel(b *testing.B) {
	cfg := sqldb.DefaultConfig()
	cfg.PoolPages = 4096
	e := sqldb.NewEngine(cfg)
	if err := e.CreateDatabase("app"); err != nil {
		b.Fatal(err)
	}
	if _, err := e.Exec("app", "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
		b.Fatal(err)
	}
	const rows = 8192
	for i := 0; i < rows; i += 64 {
		stmt := "INSERT INTO t VALUES "
		for j := 0; j < 64; j++ {
			if j > 0 {
				stmt += ", "
			}
			stmt += fmt.Sprintf("(%d, 'val%d')", i+j, i+j)
		}
		if _, err := e.Exec("app", stmt); err != nil {
			b.Fatal(err)
		}
	}
	stmt, err := sqldb.Parse("SELECT v FROM t WHERE id = ?")
	if err != nil {
		b.Fatal(err)
	}
	var seq atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		base := seq.Add(1) * 977
		i := uint64(0)
		for pb.Next() {
			i++
			tx, err := e.Begin("app")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tx.ExecStmt(stmt, sqldb.NewInt(int64((base+i*31)%rows))); err != nil {
				b.Fatal(err)
			}
			_ = tx.Commit()
		}
	})
}

// engineDB adapts one database of a single engine to tpcw.DB.
type engineDB struct {
	e  *sqldb.Engine
	db string
}

func (d engineDB) Begin() (tpcw.Txn, error) { return d.e.Begin(d.db) }

// runAnomalyTrials runs adversarial transaction pairs against a 2-machine
// aggressive Option-3 cluster and returns the number of serializability
// violations (see internal/core's Table 1 tests for the full matrix).
func runAnomalyTrials(b *testing.B, engCfg sqldb.Config, trials int) int {
	rec := history.NewRecorder()
	c := core.NewCluster("ablate", core.Options{
		ReadOption:   core.ReadOption3,
		AckMode:      core.Aggressive,
		Replicas:     2,
		EngineConfig: engCfg,
		Recorder:     rec,
	})
	if _, err := c.AddMachines(2); err != nil {
		b.Fatal(err)
	}
	if err := c.CreateDatabase("app"); err != nil {
		b.Fatal(err)
	}
	if _, err := c.Exec("app", "CREATE TABLE obj (id INT PRIMARY KEY, v INT)"); err != nil {
		b.Fatal(err)
	}
	if _, err := c.Exec("app", "INSERT INTO obj VALUES (1, 0), (2, 0)"); err != nil {
		b.Fatal(err)
	}
	violations := 0
	for trial := 0; trial < trials; trial++ {
		rec.Reset()
		var wg sync.WaitGroup
		run := func(readID, writeID int64) {
			defer wg.Done()
			tx, err := c.Begin("app")
			if err != nil {
				return
			}
			if _, err := tx.Exec("SELECT v FROM obj WHERE id = ?", sqldb.NewInt(readID)); err != nil {
				return
			}
			if _, err := tx.Exec("UPDATE obj SET v = v + 1 WHERE id = ?", sqldb.NewInt(writeID)); err != nil {
				return
			}
			_ = tx.Commit()
		}
		wg.Add(2)
		go run(1, 2)
		go run(2, 1)
		wg.Wait()
		if ok, _, _ := history.Check(rec); !ok {
			violations++
		}
	}
	return violations
}

// option1Over3Ratio measures shopping-mix TPS under Option 1 divided by
// Option 3 for a given buffer-pool size. Two databases spread Option 1's
// rotated read homes over both machines, as in the paper's multi-tenant
// setting, so the comparison isolates cache locality rather than machine
// idling.
func option1Over3Ratio(b *testing.B, poolPages int) float64 {
	run := func(opt core.ReadOption) float64 {
		engCfg := sqldb.DefaultConfig()
		engCfg.PoolPages = poolPages
		engCfg.MissLatency = 1 * time.Millisecond
		engCfg.LockTimeout = 250 * time.Millisecond
		c := core.NewCluster("pool", core.Options{
			ReadOption:   opt,
			AckMode:      core.Conservative,
			Replicas:     2,
			EngineConfig: engCfg,
		})
		if _, err := c.AddMachines(2); err != nil {
			b.Fatal(err)
		}
		sc := tpcw.ScaleForMB(300, 42)
		total := 0.0
		stop := make(chan struct{})
		results := make(chan tpcw.Stats, 4)
		for i := 0; i < 2; i++ {
			name := fmt.Sprintf("app%d", i)
			if err := c.CreateDatabase(name); err != nil {
				b.Fatal(err)
			}
			db := benchClusterDB{c: c, db: name}
			if err := tpcw.Load(db, sc); err != nil {
				b.Fatal(err)
			}
			w := tpcw.NewWorkload(sc)
			for s := 0; s < 2; s++ {
				client := &tpcw.Client{DB: db, Mix: tpcw.ShoppingMix, Workload: w}
				go func(seed int64) { results <- client.RunSession(seed, stop) }(42 + int64(s))
			}
		}
		// Warm the pools, then measure steady state from cluster counters.
		time.Sleep(150 * time.Millisecond)
		before := c.Stats().Committed
		time.Sleep(250 * time.Millisecond)
		total = float64(c.Stats().Committed - before)
		close(stop)
		for i := 0; i < 4; i++ {
			<-results
		}
		return total
	}
	o1 := run(core.ReadOption1)
	o3 := run(core.ReadOption3)
	if o3 == 0 {
		return 0
	}
	return o1 / o3
}

// deadlockRateFor measures the ordering-mix deadlock rate with row-level
// vs table-level write locking. Table-level locking is emulated by running
// the mix against a schema variant without primary keys, which forces the
// engine onto whole-table X locks.
func deadlockRateFor(b *testing.B, tableLocks bool) float64 {
	e := sqldb.NewEngine(func() sqldb.Config {
		cfg := sqldb.DefaultConfig()
		cfg.LockTimeout = 100 * time.Millisecond
		return cfg
	}())
	if err := e.CreateDatabase("app"); err != nil {
		b.Fatal(err)
	}
	pk := " PRIMARY KEY"
	if tableLocks {
		pk = ""
	}
	if _, err := e.Exec("app", "CREATE TABLE acct (id INT"+pk+", bal INT)"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := e.Exec("app", fmt.Sprintf("INSERT INTO acct VALUES (%d, 100)", i)); err != nil {
			b.Fatal(err)
		}
	}
	stop := make(chan struct{})
	done := make(chan uint64, 8)
	for w := 0; w < 8; w++ {
		go func(seed int64) {
			var committed uint64
			i := int64(0)
			for {
				select {
				case <-stop:
					done <- committed
					return
				default:
				}
				i++
				a := (seed + i) % 8
				bb := (seed + i*7 + 3) % 8
				tx, err := e.Begin("app")
				if err != nil {
					continue
				}
				_, e1 := tx.Exec("UPDATE acct SET bal = bal - 1 WHERE id = ?", sqldb.NewInt(a))
				if e1 == nil {
					_, e1 = tx.Exec("UPDATE acct SET bal = bal + 1 WHERE id = ?", sqldb.NewInt(bb))
				}
				if e1 != nil {
					_ = tx.Rollback()
					continue
				}
				if tx.Commit() == nil {
					committed++
				}
			}
		}(int64(w) * 13)
	}
	time.Sleep(250 * time.Millisecond)
	close(stop)
	var committed uint64
	for w := 0; w < 8; w++ {
		committed += <-done
	}
	deadlocks := e.Stats().Deadlocks
	if committed == 0 {
		return 0
	}
	return float64(deadlocks) / float64(committed) * 1000
}

// benchClusterDB adapts a cluster database to tpcw.DB for benches.
type benchClusterDB struct {
	c  *core.Cluster
	db string
}

func (d benchClusterDB) Begin() (tpcw.Txn, error) { return d.c.Begin(d.db) }
