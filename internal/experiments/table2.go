package experiments

import (
	"fmt"

	"sdp/internal/placement"
	"sdp/internal/sla"
	"sdp/internal/workload"
)

// Table2Row is one row of the paper's Table 2: a skew factor and the
// resulting workload averages and machine counts.
type Table2Row struct {
	Skew         float64
	AvgSizeMB    float64
	AvgTPS       float64
	MachinesUsed int // First-Fit (Algorithm 2)
	Optimal      int // exhaustive offline
	OptimalExact bool
	FFDecreasing int // ablation: offline First-Fit-Decreasing
	BestFit      int // ablation: Best-Fit
}

// Table2Result is the full sweep.
type Table2Result struct {
	Rows []Table2Row
	// NumDatabases is the number of databases placed per row.
	NumDatabases int
}

// RunTable2 reproduces Table 2: database sizes drawn from a Zipfian
// distribution over 200–1000 MB and throughputs over 0.1–10 TPS, with the
// skew factor swept over 0.4–2.0; databases are placed with the online
// First-Fit of Algorithm 2 and compared against the exhaustively computed
// optimal. Two classic offline heuristics are included as ablations.
func RunTable2(cfg Config) Table2Result {
	n := 12
	budget := 2_000_000
	if cfg.Quick {
		n = 8
		budget = 200_000
	}
	res := Table2Result{NumDatabases: n}
	for _, skew := range []float64{0.4, 0.8, 1.2, 1.6, 2.0} {
		// Common random numbers across skews: the same seed draws the same
		// underlying uniforms, so each database's size/TPS is non-increasing
		// in the skew factor and the paper's monotone trend is exact.
		w := workload.NewSLAWorkload(cfg.Seed, n, skew)
		dbs := make([]sla.Database, n)
		for i := 0; i < n; i++ {
			dbs[i] = sla.Database{
				Name:     fmt.Sprintf("db%d", i),
				Req:      sla.Profile(w.SizesMB[i], w.TPS[i]),
				Replicas: 1,
			}
		}
		ff, _, err := placement.PlaceAll(dbs)
		if err != nil {
			panic(err)
		}
		ffd, _, err := placement.PlaceAllFirstFitDecreasing(dbs)
		if err != nil {
			panic(err)
		}
		bf, _, err := placement.PlaceAllBestFit(dbs)
		if err != nil {
			panic(err)
		}
		opt := placement.Optimal(dbs, sla.UnitMachine("m").Cap, budget)
		res.Rows = append(res.Rows, Table2Row{
			Skew:         skew,
			AvgSizeMB:    w.AvgSizeMB(),
			AvgTPS:       w.AvgTPS(),
			MachinesUsed: ff,
			Optimal:      opt.Machines,
			OptimalExact: opt.Exact,
			FFDecreasing: ffd,
			BestFit:      bf,
		})
	}
	return res
}

// Render formats the sweep like the paper's Table 2, with the ablation
// columns appended.
func (r Table2Result) Render() *Table {
	t := &Table{
		Title: fmt.Sprintf("Table 2: SLA experimental settings and results (%d databases)", r.NumDatabases),
		Header: []string{
			"Skew Factor", "Avg Size (MB)", "Avg TPS",
			"# Machines (First-Fit)", "Optimal", "FFD", "Best-Fit",
		},
	}
	for _, row := range r.Rows {
		opt := fmt.Sprintf("%d", row.Optimal)
		if !row.OptimalExact {
			opt += "*"
		}
		t.AddRow(
			f1(row.Skew), fmt.Sprintf("%.0f", row.AvgSizeMB), f2(row.AvgTPS),
			fmt.Sprintf("%d", row.MachinesUsed), opt,
			fmt.Sprintf("%d", row.FFDecreasing), fmt.Sprintf("%d", row.BestFit),
		)
	}
	return t
}
