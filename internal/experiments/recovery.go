package experiments

import (
	"fmt"
	"time"

	"sdp/internal/core"
	"sdp/internal/sqldb"
	"sdp/internal/tpcw"
)

// RecoveryPoint is one measurement of Figures 8–9: recovery concurrency vs
// rejected transactions per recovering database and throughput during
// recovery.
type RecoveryPoint struct {
	Threads        int
	RejectedPerDB  float64
	TPSDuring      float64
	RecoveryTime   time.Duration
	RecoveredDBs   int
	TotalCommitted uint64
	Fatal          uint64
	// FatalErrors samples the first few errors classified as fatal, for
	// diagnosis.
	FatalErrors []string
}

// RecoveryResult holds both figures' series (they come from the same runs,
// as in the paper).
type RecoveryResult struct {
	Series map[string][]RecoveryPoint // by copy granularity
	Order  []string
}

// RunRecovery reproduces Figures 8 and 9: a machine failure is induced
// while a TPC-W shopping-mix workload runs, and the failed machine's
// databases are re-replicated with 1..N concurrent recovery threads, once
// with database-granularity copying and once with table-granularity
// copying. Figure 8 reports proactively rejected transactions per
// recovering database (higher for database-level copying); Figure 9 reports
// throughput during recovery (about the same for both).
func RunRecovery(cfg Config) RecoveryResult {
	threads := []int{1, 2, 4}
	numDBs := 6
	sizeMB := 120.0
	if cfg.Quick {
		threads = []int{1, 2}
		numDBs = 3
		sizeMB = 60
	}
	res := RecoveryResult{Series: make(map[string][]RecoveryPoint)}
	for _, gran := range []sqldb.DumpGranularity{sqldb.GranularityDatabase, sqldb.GranularityTable} {
		name := gran.String() + "-level"
		res.Order = append(res.Order, name)
		for _, th := range threads {
			res.Series[name] = append(res.Series[name], runRecoveryPoint(gran, th, numDBs, sizeMB, cfg))
		}
	}
	return res
}

func runRecoveryPoint(gran sqldb.DumpGranularity, threads, numDBs int, sizeMB float64, cfg Config) RecoveryPoint {
	engCfg := cfg.engineConfig()
	// Slow the "disk" down so the copy window is long enough for client
	// writes to collide with it, as a 2-minute 200 MB copy did in the
	// paper's testbed.
	engCfg.MissLatency = 2 * time.Millisecond
	engCfg.PoolPages = 64
	engCfg.LockTimeout = 500 * time.Millisecond
	if cfg.Quick {
		engCfg.LockTimeout = 200 * time.Millisecond
	}
	c := core.NewCluster("rec", core.Options{
		ReadOption:      core.ReadOption1,
		AckMode:         core.Conservative,
		Replicas:        2,
		CopyGranularity: gran,
		EngineConfig:    engCfg,
	})
	if _, err := c.AddMachines(4); err != nil {
		panic(err)
	}
	scale := tpcw.ScaleForMB(sizeMB, cfg.Seed)
	dbs := make([]clusterDB, numDBs)
	workloads := make([]*tpcw.Workload, numDBs)
	for i := range dbs {
		name := fmt.Sprintf("app%d", i)
		if err := c.CreateDatabase(name); err != nil {
			panic(err)
		}
		dbs[i] = clusterDB{c: c, db: name}
		if err := tpcw.Load(dbs[i], scale); err != nil {
			panic(err)
		}
		workloads[i] = tpcw.NewWorkload(scale)
	}

	// Drive an ordering-mix workload (write-heavy: rejections are a
	// write-side phenomenon) against every database.
	sessions := numDBs * 2
	if cfg.Quick {
		sessions = numDBs
	}
	stop := make(chan struct{})
	results := make(chan tpcw.Stats, sessions)
	var fatal fatalSampler
	sampling := fatal.wrap(classify)
	for s := 0; s < sessions; s++ {
		client := &tpcw.Client{
			DB:            dbs[s%numDBs],
			Mix:           tpcw.OrderingMix,
			Workload:      workloads[s%numDBs],
			Classify:      sampling,
			RejectBackoff: time.Millisecond,
		}
		go func(seed int64) { results <- client.RunSession(seed, stop) }(cfg.Seed + int64(s)*7919)
	}

	// Let the workload warm up, then fail a machine and recover.
	time.Sleep(cfg.measureDuration() / 4)
	victim := c.MachineIDs()[0]
	affected, err := c.FailMachine(victim)
	if err != nil {
		panic(err)
	}
	before := c.Stats()
	start := time.Now()
	report := c.RecoverDatabases(affected, threads)
	recovery := time.Since(start)
	// Keep the workload running over a minimum window so the
	// throughput-during-recovery measurement is stable even when the copy
	// itself finishes quickly.
	if min := cfg.measureDuration() / 2; recovery < min {
		time.Sleep(min - recovery)
	}
	window := time.Since(start)
	after := c.Stats()
	close(stop)

	var total tpcw.Stats
	for s := 0; s < sessions; s++ {
		st := <-results
		total.Committed += st.Committed
		total.Rejected += st.Rejected
		total.Fatal += st.Fatal
	}

	pt := RecoveryPoint{
		Threads:        threads,
		RecoveryTime:   recovery,
		RecoveredDBs:   len(report.Recovered),
		TotalCommitted: total.Committed,
		Fatal:          total.Fatal,
		FatalErrors:    fatal.sampled(),
	}
	rejected := after.Rejected - before.Rejected
	if len(affected) > 0 {
		pt.RejectedPerDB = float64(rejected) / float64(len(affected))
	}
	if window > 0 {
		// Committed during the recovery window, approximated by the
		// cluster-wide commit delta over the window.
		pt.TPSDuring = float64(after.Committed-before.Committed) / window.Seconds()
	}
	return pt
}

// RenderRejected formats Figure 8.
func (r RecoveryResult) RenderRejected() *Table {
	t := &Table{Title: "Figure 8: Rejected Transactions during Recovery (per recovering database)"}
	t.Header = []string{"series"}
	if len(r.Order) > 0 {
		for _, pt := range r.Series[r.Order[0]] {
			t.Header = append(t.Header, fmt.Sprintf("threads=%d", pt.Threads))
		}
	}
	for _, name := range r.Order {
		row := []string{name}
		for _, pt := range r.Series[name] {
			row = append(row, f1(pt.RejectedPerDB))
		}
		t.AddRow(row...)
	}
	return t
}

// RenderThroughput formats Figure 9.
func (r RecoveryResult) RenderThroughput() *Table {
	t := &Table{Title: "Figure 9: Throughput during Recovery (TPS)"}
	t.Header = []string{"series"}
	if len(r.Order) > 0 {
		for _, pt := range r.Series[r.Order[0]] {
			t.Header = append(t.Header, fmt.Sprintf("threads=%d", pt.Threads))
		}
	}
	for _, name := range r.Order {
		row := []string{name}
		for _, pt := range r.Series[name] {
			row = append(row, f1(pt.TPSDuring))
		}
		t.AddRow(row...)
	}
	return t
}
