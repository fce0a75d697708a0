package experiments

import (
	"fmt"
	"time"

	"sdp/internal/core"
	"sdp/internal/tpcw"
)

// ReplicationMode is one series of Figures 2–4: no replication, or
// synchronous replication with one of the three read-routing options.
type ReplicationMode struct {
	Name     string
	Replicas int
	Option   core.ReadOption
}

// Modes returns the four series of Figures 2–4, in the paper's order.
func Modes() []ReplicationMode {
	return []ReplicationMode{
		{Name: "no-replication", Replicas: 1, Option: core.ReadOption1},
		{Name: "option1", Replicas: 2, Option: core.ReadOption1},
		{Name: "option2", Replicas: 2, Option: core.ReadOption2},
		{Name: "option3", Replicas: 2, Option: core.ReadOption3},
	}
}

// ThroughputPoint is one measurement: offered concurrency vs achieved TPS,
// with what the engines counted over the run — deadlocks they detected, and
// lock waits that timed out, which is how a deadlock across two replicas ends.
type ThroughputPoint struct {
	Concurrency  int
	TPS          float64
	Aborted      uint64
	Fatal        uint64
	Deadlocks    uint64
	LockTimeouts uint64
}

// ThroughputResult holds the series of one figure.
type ThroughputResult struct {
	Mix    string
	Series map[string][]ThroughputPoint
	Order  []string
}

// RunThroughput reproduces one of Figures 2–4: total committed TPC-W
// transactions per second across all hosted databases, as offered
// concurrency grows, for each replication mode. The buffer pool is sized
// below the working set so read locality (Option 1 best, Option 3 worst)
// shows up exactly as in the paper.
func RunThroughput(mix tpcw.Mix, cfg Config) ThroughputResult {
	concurrencies := []int{2, 4, 8, 16}
	numDBs := 4
	if cfg.Quick {
		concurrencies = []int{2, 4}
		numDBs = 2
	}
	res := ThroughputResult{Mix: mix.Name, Series: make(map[string][]ThroughputPoint)}
	for _, mode := range Modes() {
		res.Order = append(res.Order, mode.Name)
		for _, conc := range concurrencies {
			pt := runThroughputPoint(mix, mode, numDBs, conc, cfg)
			res.Series[mode.Name] = append(res.Series[mode.Name], pt)
		}
	}
	return res
}

// runThroughputPoint builds a fresh cluster, loads TPC-W into each
// database, and drives the mix at the given concurrency.
func runThroughputPoint(mix tpcw.Mix, mode ReplicationMode, numDBs, concurrency int, cfg Config) ThroughputPoint {
	engCfg := cfg.engineConfig()
	if cfg.Quick {
		// Only the lock time-out breaks a deadlock whose cycle spans two
		// replicas, and a client waiting one out commits nothing. Writes take
		// their locks at the head first, so what is left of those cycles
		// holds a read lock away from the head: Options 2 and 3 only. With
		// the shared 250 ms, the whole quick window, option3 at conc=4 fell
		// to 21–61k tps in the four of six runs that drew a time-out, against
		// 72–99k with this.
		engCfg.LockTimeout = cfg.measureDuration() / 10
	}
	c := core.NewCluster("tp", core.Options{
		ReadOption:   mode.Option,
		AckMode:      core.Conservative,
		Replicas:     mode.Replicas,
		EngineConfig: engCfg,
	})
	if _, err := c.AddMachines(4); err != nil {
		panic(err)
	}
	scale := tpcw.ScaleForMB(cfg.dbSizeMB(), cfg.Seed)
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
		// One shared Workload per database: its order-ID allocator must be
		// shared by every session of that database.
		workloads[i] = tpcw.NewWorkload(scale)
	}

	stop := make(chan struct{})
	results := make(chan tpcw.Stats, concurrency)
	for s := 0; s < concurrency; s++ {
		client := &tpcw.Client{
			DB:       dbs[s%numDBs],
			Mix:      mix,
			Workload: workloads[s%numDBs],
			Classify: classify,
		}
		go func(seed int64) {
			results <- client.RunSession(seed, stop)
		}(cfg.Seed + int64(s)*104729)
	}
	// Warm the buffer pools before measuring, then count committed
	// transactions over the measurement window from the cluster counters.
	d := cfg.measureDuration()
	time.Sleep(d / 2)
	before := c.Stats().Committed
	time.Sleep(d)
	committed := c.Stats().Committed - before
	close(stop)
	var total tpcw.Stats
	for s := 0; s < concurrency; s++ {
		st := <-results
		total.Aborted += st.Aborted
		total.Fatal += st.Fatal
	}
	pt := ThroughputPoint{
		Concurrency: concurrency,
		TPS:         float64(committed) / d.Seconds(),
		Aborted:     total.Aborted,
		Fatal:       total.Fatal,
	}
	for _, id := range c.MachineIDs() {
		m, _ := c.Machine(id)
		st := m.Engine().Stats()
		pt.Deadlocks += st.Deadlocks
		pt.LockTimeouts += st.LockTimeouts
	}
	return pt
}

// Render formats the figure as a table of series x concurrency.
func (r ThroughputResult) Render(figure string) *Table {
	t := &Table{Title: fmt.Sprintf("%s: Throughput with Synchronous Replication (%s mix), TPS", figure, r.Mix)}
	t.Header = []string{"series"}
	if len(r.Order) > 0 {
		for _, pt := range r.Series[r.Order[0]] {
			t.Header = append(t.Header, fmt.Sprintf("conc=%d", pt.Concurrency))
		}
	}
	for _, name := range r.Order {
		row := []string{name}
		for _, pt := range r.Series[name] {
			row = append(row, f1(pt.TPS))
		}
		t.AddRow(row...)
	}
	return t
}
