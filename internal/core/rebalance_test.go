package core

import (
	"fmt"
	"testing"

	"sdp/internal/sla"
)

func TestRebalanceReducesPeak(t *testing.T) {
	c := NewCluster("rb", Options{Replicas: 1})
	if _, err := c.AddMachines(4); err != nil {
		t.Fatal(err)
	}
	// Pile several databases onto the first machines via First-Fit: each
	// needs 0.2 of a machine, so all 4 land on m1 (replicas=1).
	req := sla.Resources{CPU: 0.2, Memory: 0.2, Disk: 0.05, DiskBW: 0.05}
	for i := 0; i < 4; i++ {
		db := fmt.Sprintf("db%d", i)
		if _, err := c.PlaceWithSLA(db, req, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Exec(db, "CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 30; j++ {
			if _, err := c.Exec(db, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", j, j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	m1, _ := c.Machine("m1")
	if got := m1.Used().Dominant(); got < 0.79 {
		t.Fatalf("m1 utilisation = %v, want ~0.8 (all dbs on m1)", got)
	}

	report, err := c.Rebalance(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Moves) == 0 {
		t.Fatal("no moves performed")
	}
	if report.PeakAfter >= report.PeakBefore {
		t.Errorf("peak did not improve: %v -> %v", report.PeakBefore, report.PeakAfter)
	}
	if report.PeakAfter > 0.41 {
		t.Errorf("peak after rebalance = %v, want <= ~0.4", report.PeakAfter)
	}
	// Every database still serves queries with its full data.
	for i := 0; i < 4; i++ {
		db := fmt.Sprintf("db%d", i)
		res, err := c.Exec(db, "SELECT COUNT(*) FROM t")
		if err != nil {
			t.Fatalf("%s: %v", db, err)
		}
		if res.Rows[0][0].Int != 30 {
			t.Errorf("%s count = %v", db, res.Rows[0][0])
		}
	}
	// Reservations remain consistent: total used equals 4 * req.
	var total sla.Resources
	for _, id := range c.MachineIDs() {
		m, _ := c.Machine(id)
		total = total.Add(m.Used())
	}
	if total.CPU != 0.8 {
		t.Errorf("total reserved CPU = %v, want 0.8", total.CPU)
	}
}

func TestRebalanceNoOpWhenBalanced(t *testing.T) {
	c := NewCluster("rb", Options{Replicas: 1})
	if _, err := c.AddMachines(2); err != nil {
		t.Fatal(err)
	}
	req := sla.Resources{CPU: 0.4, Memory: 0.4, Disk: 0.1, DiskBW: 0.1}
	if _, err := c.PlaceWithSLA("a", req, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("a", "CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	// Force the second db onto m2 by filling m1.
	if _, err := c.PlaceWithSLA("filler", sla.Resources{CPU: 0.5, Memory: 0.5}, 1); err != nil {
		t.Fatal(err)
	}
	report, err := c.Rebalance(10)
	if err != nil {
		t.Fatal(err)
	}
	// m1 has 0.9, m2 has 0; moving 'a' (0.4) to m2 improves peak to 0.5;
	// moving filler (0.5, but filler has no table data) improves to 0.4+0.5.
	// Whatever the moves, peak must not worsen and must end <= before.
	if report.PeakAfter > report.PeakBefore {
		t.Errorf("peak worsened: %v -> %v", report.PeakBefore, report.PeakAfter)
	}
	// A second run from the balanced state does nothing.
	report2, err := c.Rebalance(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(report2.Moves) != 0 {
		t.Errorf("rebalance of balanced cluster moved %v", report2.Moves)
	}
}
