package experiments

import (
	"fmt"
	"time"

	"sdp/internal/core"
	"sdp/internal/tpcw"
)

// DeadlockPoint is one measurement of Figures 5–7: database size vs
// deadlock rate (deadlocks per 1000 committed transactions). LockTimeouts
// counts the lock waits that ran into the lock time-out instead: the
// cross-replica cycles no single engine's detector sees.
type DeadlockPoint struct {
	SizeMB       float64
	Rate         float64
	Deadlocks    uint64
	LockTimeouts uint64
	Committed    uint64
}

// DeadlockResult holds the series of one of Figures 5–7.
type DeadlockResult struct {
	Mix    string
	Series map[string][]DeadlockPoint
	Order  []string
}

// RunDeadlocks reproduces one of Figures 5–7: the deadlock rate for
// different database sizes under each read option. The paper found no
// significant difference between the options; the reproduction measures the
// same quantity so the claim can be checked.
func RunDeadlocks(mix tpcw.Mix, cfg Config) DeadlockResult {
	sizes := []float64{50, 100, 200}
	sessions := 8
	if cfg.Quick {
		sizes = []float64{50, 100}
		sessions = 6
	}
	res := DeadlockResult{Mix: mix.Name, Series: make(map[string][]DeadlockPoint)}
	for _, opt := range []core.ReadOption{core.ReadOption1, core.ReadOption2, core.ReadOption3} {
		name := opt.String()
		res.Order = append(res.Order, name)
		for _, size := range sizes {
			res.Series[name] = append(res.Series[name], runDeadlockPoint(mix, opt, size, sessions, cfg))
		}
	}
	return res
}

func runDeadlockPoint(mix tpcw.Mix, opt core.ReadOption, sizeMB float64, sessions int, cfg Config) DeadlockPoint {
	engCfg := cfg.engineConfig()
	// Contention experiment: no artificial disk latency, so lock conflicts
	// dominate, and a short lock timeout so distributed deadlocks resolve.
	engCfg.MissLatency = 0
	engCfg.LockTimeout = 100 * time.Millisecond
	c := core.NewCluster("dl", core.Options{
		ReadOption:   opt,
		AckMode:      core.Conservative,
		Replicas:     2,
		EngineConfig: engCfg,
	})
	if _, err := c.AddMachines(2); err != nil {
		panic(err)
	}
	if err := c.CreateDatabase("app"); err != nil {
		panic(err)
	}
	db := clusterDB{c: c, db: "app"}
	scale := tpcw.ScaleForMB(sizeMB, cfg.Seed)
	if err := tpcw.Load(db, scale); err != nil {
		panic(err)
	}

	client := &tpcw.Client{DB: db, Mix: mix, Workload: tpcw.NewWorkload(scale), Classify: classify}
	before := c.Stats()
	st := client.RunConcurrent(sessions, cfg.measureDuration(), cfg.Seed)
	after := c.Stats()

	deadlocks := after.Deadlocks - before.Deadlocks
	pt := DeadlockPoint{SizeMB: sizeMB, Deadlocks: deadlocks, Committed: st.Committed}
	for _, id := range c.MachineIDs() {
		m, _ := c.Machine(id)
		pt.LockTimeouts += m.Engine().Stats().LockTimeouts // none during the single-session load
	}
	if st.Committed > 0 {
		pt.Rate = float64(deadlocks) / float64(st.Committed) * 1000
	}
	return pt
}

// Render formats the figure.
func (r DeadlockResult) Render(figure string) *Table {
	t := &Table{Title: fmt.Sprintf("%s: Deadlock Rate for Different Database Sizes (%s mix), deadlocks/1000 txns", figure, r.Mix)}
	t.Header = []string{"series"}
	if len(r.Order) > 0 {
		for _, pt := range r.Series[r.Order[0]] {
			t.Header = append(t.Header, fmt.Sprintf("%.0fMB", pt.SizeMB))
		}
	}
	rows := func(per1000 func(DeadlockPoint) float64) {
		for _, name := range r.Order {
			row := []string{name}
			for _, pt := range r.Series[name] {
				row = append(row, f2(per1000(pt)))
			}
			t.AddRow(row...)
		}
	}
	rows(func(pt DeadlockPoint) float64 { return pt.Rate })
	t.AddRow("lock time-outs/1000 txns")
	rows(func(pt DeadlockPoint) float64 {
		return float64(pt.LockTimeouts) / float64(max(pt.Committed, 1)) * 1000
	})
	return t
}
