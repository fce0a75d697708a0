package experiments

import (
	"bytes"
	"strings"
	"testing"

	"sdp/internal/tpcw"
)

func quickCfg() Config { return Config{Quick: true, Seed: 42} }

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-heavy")
	}
	res := RunTable1(quickCfg())
	if len(res.Cells) != 6 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	violating := 0
	for _, cell := range res.Cells {
		aggressive23 := cell.Mode.String() == "aggressive" && cell.Option != 1
		if !aggressive23 && !cell.Serializable() {
			t.Errorf("%s/%s: %d violations, want 0", cell.Mode, cell.Option, cell.Violations)
		}
		if aggressive23 && !cell.Serializable() {
			violating++
		}
	}
	if violating == 0 {
		t.Error("no aggressive option2/3 violations observed")
	}
	var buf bytes.Buffer
	res.Render().Write(&buf)
	if !strings.Contains(buf.String(), "NOT serializable") {
		t.Errorf("rendered table missing violations:\n%s", buf.String())
	}
}

func TestThroughputShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-heavy")
	}
	res := RunThroughput(tpcw.ShoppingMix, quickCfg())
	if len(res.Order) != 4 {
		t.Fatalf("series = %v", res.Order)
	}
	for _, name := range res.Order {
		for _, pt := range res.Series[name] {
			if pt.TPS <= 0 {
				t.Errorf("%s conc=%d: TPS = %v", name, pt.Concurrency, pt.TPS)
			}
			if pt.Fatal > 0 {
				t.Errorf("%s conc=%d: %d fatal client errors", name, pt.Concurrency, pt.Fatal)
			}
		}
	}
	// Shape check at the highest concurrency: no-replication fastest read
	// path, option1 >= option3 (cache locality). Allow slack: this is a
	// statistical measurement.
	last := func(name string) float64 {
		pts := res.Series[name]
		return pts[len(pts)-1].TPS
	}
	t.Logf("option1/option3 at the highest concurrency: %.2f", last("option1")/last("option3"))
	if last("option1") < last("option3")*0.8 {
		t.Errorf("option1 (%0.1f) unexpectedly slower than option3 (%0.1f)", last("option1"), last("option3"))
		for _, name := range res.Order {
			for _, pt := range res.Series[name] {
				t.Logf("%-14s conc=%d: %8.1f tps, %d aborted, %d deadlocks, %d lock time-outs",
					name, pt.Concurrency, pt.TPS, pt.Aborted, pt.Deadlocks, pt.LockTimeouts)
			}
		}
	}
	var buf bytes.Buffer
	res.Render("Figure 2").Write(&buf)
	if !strings.Contains(buf.String(), "option1") {
		t.Error("render missing series")
	}
}

func TestDeadlockExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-heavy")
	}
	res := RunDeadlocks(tpcw.OrderingMix, quickCfg())
	if len(res.Order) != 3 {
		t.Fatalf("series = %v", res.Order)
	}
	for _, name := range res.Order {
		for _, pt := range res.Series[name] {
			if pt.Committed == 0 {
				t.Errorf("%s %0.fMB: nothing committed", name, pt.SizeMB)
			}
		}
	}
	var buf bytes.Buffer
	res.Render("Figure 5").Write(&buf)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

func TestRecoveryExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-heavy")
	}
	res := RunRecovery(quickCfg())
	if len(res.Order) != 2 {
		t.Fatalf("series = %v", res.Order)
	}
	for _, name := range res.Order {
		for _, pt := range res.Series[name] {
			if pt.RecoveredDBs == 0 {
				t.Errorf("%s threads=%d: nothing recovered", name, pt.Threads)
			}
			if pt.Fatal > 0 {
				t.Errorf("%s threads=%d: %d fatal client errors: %s", name, pt.Threads, pt.Fatal, strings.Join(pt.FatalErrors, "; "))
			}
		}
	}
	var buf bytes.Buffer
	res.RenderRejected().Write(&buf)
	res.RenderThroughput().Write(&buf)
	if !strings.Contains(buf.String(), "Figure 8") || !strings.Contains(buf.String(), "Figure 9") {
		t.Error("renders missing figure titles")
	}
}

func TestTable2Shape(t *testing.T) {
	res := RunTable2(quickCfg())
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i, row := range res.Rows {
		if row.MachinesUsed < row.Optimal {
			t.Errorf("skew %v: First-Fit (%d) beat the optimal (%d)", row.Skew, row.MachinesUsed, row.Optimal)
		}
		if row.MachinesUsed-row.Optimal > 2 {
			t.Errorf("skew %v: First-Fit (%d) far from optimal (%d)", row.Skew, row.MachinesUsed, row.Optimal)
		}
		if i > 0 && row.AvgSizeMB > res.Rows[i-1].AvgSizeMB+1 {
			t.Errorf("avg size rose with skew: %v -> %v", res.Rows[i-1].AvgSizeMB, row.AvgSizeMB)
		}
	}
	// Machines used must not increase with skew (smaller databases pack
	// tighter), matching the paper's 9/6/5/4/4 trend.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].MachinesUsed > res.Rows[i-1].MachinesUsed {
			t.Errorf("machines rose with skew: %+v", res.Rows)
		}
	}
	var buf bytes.Buffer
	res.Render().Write(&buf)
	if !strings.Contains(buf.String(), "Skew Factor") {
		t.Error("render missing header")
	}
}

func TestWALBenchShape(t *testing.T) {
	res, err := RunWALBench(Config{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.GroupCommit) != 5 || len(res.NoGroupCommit) != 5 {
		t.Fatalf("points: group=%d nogroup=%d, want 5 each", len(res.GroupCommit), len(res.NoGroupCommit))
	}
	// The acceptance property: at >= 8 committers, group commit amortises
	// flushes across committers while the baseline pays one per commit.
	for i, pt := range res.GroupCommit {
		base := res.NoGroupCommit[i]
		if pt.Committers >= 8 && pt.FlushesPerCommit >= base.FlushesPerCommit {
			t.Errorf("%d committers: %.3f flushes/commit with group commit, %.3f without",
				pt.Committers, pt.FlushesPerCommit, base.FlushesPerCommit)
		}
	}
	if res.FastRecoveryMs <= 0 || res.FullRecoveryMs <= 0 {
		t.Fatalf("recovery timings: fast=%.2fms full=%.2fms", res.FastRecoveryMs, res.FullRecoveryMs)
	}
	if res.FastReplayed == 0 {
		t.Fatal("fast path replayed nothing")
	}
}

func TestConsensusBenchShape(t *testing.T) {
	res, err := RunConsensusBench(Config{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.CtlOps == 0 || res.CtlOpP50Us <= 0 || res.CtlOpP99Us < res.CtlOpP50Us {
		t.Fatalf("steady-state ctl latency: n=%d p50=%.1fµs p99=%.1fµs",
			res.CtlOps, res.CtlOpP50Us, res.CtlOpP99Us)
	}
	if len(res.Failovers) != 3 {
		t.Fatalf("failover samples = %d, want 3 in quick mode", len(res.Failovers))
	}
	// The acceptance property: after every leader kill the cluster resumed
	// committing — both control-plane operations and client transactions —
	// without manual intervention.
	for i, f := range res.Failovers {
		if f.CtlCommitMs <= 0 || f.TxnCommitMs <= 0 {
			t.Errorf("kill %d (%s): ctl=%.1fms txn=%.1fms", i, f.Killed, f.CtlCommitMs, f.TxnCommitMs)
		}
	}
	if res.BaselineTPS <= 0 {
		t.Fatal("no committed transactions before the first kill")
	}
	if res.RecoveredTPS <= 0 {
		t.Fatal("throughput did not recover after the last failover")
	}
}
