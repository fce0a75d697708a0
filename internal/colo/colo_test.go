package colo

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"sdp/internal/core"
	"sdp/internal/netsim"
	"sdp/internal/sla"
	"sdp/internal/wal"
)

func smallReq() sla.Resources { return sla.Profile(400, 2) }

func TestCreateDatabaseFormsClusters(t *testing.T) {
	c := New("colo1", Options{ClusterSize: 3})
	c.AddFreeMachines(10)

	if err := c.CreateDatabase("db1", smallReq(), 2); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Clusters()); got != 1 {
		t.Fatalf("clusters = %d", got)
	}
	if c.FreeMachines() != 7 {
		t.Errorf("free = %d, want 7", c.FreeMachines())
	}
	// A second small database fits the same cluster — no new machines.
	if err := c.CreateDatabase("db2", smallReq(), 2); err != nil {
		t.Fatal(err)
	}
	if c.FreeMachines() != 7 {
		t.Errorf("free = %d after second db, want 7", c.FreeMachines())
	}
}

func TestCreateDatabaseGrowsWhenFull(t *testing.T) {
	c := New("colo1", Options{ClusterSize: 2})
	c.AddFreeMachines(8)
	big := sla.Resources{CPU: 0.9, Memory: 0.9, Disk: 0.4, DiskBW: 0.4}
	if err := c.CreateDatabase("db1", big, 2); err != nil {
		t.Fatal(err)
	}
	// db2 cannot share machines with db1 (0.9+0.9 > 1): the cluster grows
	// to twice ClusterSize, then a new cluster forms.
	if err := c.CreateDatabase("db2", big, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateDatabase("db3", big, 2); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Clusters()); got < 2 {
		t.Errorf("clusters = %d, want >= 2", got)
	}
	if got := len(c.Clusters()[0].MachineIDs()); got != 4 {
		t.Errorf("first cluster has %d machines, want 4 (twice ClusterSize)", got)
	}
}

func TestCreateDatabaseExhaustsPool(t *testing.T) {
	c := New("colo1", Options{ClusterSize: 2})
	c.AddFreeMachines(2)
	big := sla.Resources{CPU: 0.9, Memory: 0.9, Disk: 0.9, DiskBW: 0.9}
	if err := c.CreateDatabase("db1", big, 2); err != nil {
		t.Fatal(err)
	}
	err := c.CreateDatabase("db2", big, 2)
	if !errors.Is(err, ErrNoFreeMachines) {
		t.Fatalf("err = %v, want ErrNoFreeMachines", err)
	}
}

func TestRouteAndQuery(t *testing.T) {
	c := New("colo1", Options{ClusterSize: 2})
	c.AddFreeMachines(4)
	if err := c.CreateDatabase("app", smallReq(), 2); err != nil {
		t.Fatal(err)
	}
	cl, err := c.Route("app")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec("app", "CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	tx, err := c.Begin("app")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO t VALUES (1, 5)"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Exec("app", "SELECT v FROM t WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 5 {
		t.Errorf("v = %v", res.Rows[0][0])
	}
	if _, err := c.Route("missing"); !errors.Is(err, ErrNoDatabase) {
		t.Errorf("err = %v", err)
	}
}

func TestFailMachineTriggersRecovery(t *testing.T) {
	c := New("colo1", Options{ClusterSize: 3, RecoveryThreads: 2})
	c.AddFreeMachines(5)
	if err := c.CreateDatabase("app", smallReq(), 2); err != nil {
		t.Fatal(err)
	}
	cl, _ := c.Route("app")
	if _, err := cl.Exec("app", "CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := cl.Exec("app", fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	reps, _ := cl.Replicas("app")
	report, err := c.FailMachine(reps[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Failed) != 0 {
		t.Fatalf("recovery failed: %v", report.Failed)
	}
	reps2, _ := cl.Replicas("app")
	if len(reps2) != 2 {
		t.Errorf("replicas after recovery = %v", reps2)
	}
	// Replacement machine drawn from the pool.
	if c.FreeMachines() != 1 {
		t.Errorf("free = %d, want 1", c.FreeMachines())
	}
	if _, err := c.FailMachine("nope"); err == nil {
		t.Error("failing unknown machine succeeded")
	}
	_ = core.ErrNoMachine // keep the core import honest
}

// TestCrashRestartMachine drives the transient-outage cycle: a machine
// crashes without re-replication, writes land on the surviving replica, and
// the restart recovers the machine from its log and rejoins its databases by
// the fast path.
func TestCrashRestartMachine(t *testing.T) {
	c := New("colo1", Options{ClusterSize: 2, Cluster: core.Options{WAL: wal.Config{Compact: true}}})
	c.AddFreeMachines(4)
	if err := c.CreateDatabase("app", smallReq(), 2); err != nil {
		t.Fatal(err)
	}
	cl, err := c.Route("app")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec("app", "CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec("app", "INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	replicas, err := cl.Replicas("app")
	if err != nil {
		t.Fatal(err)
	}
	victim := replicas[1]
	affected, err := c.CrashMachine(victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(affected) != 1 || affected[0] != "app" {
		t.Fatalf("affected = %v, want [app]", affected)
	}
	// The database keeps serving on the survivor while the machine is down.
	if _, err := cl.Exec("app", "INSERT INTO t VALUES (2)"); err != nil {
		t.Fatal(err)
	}

	stats, report, err := c.RestartMachine(victim)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applied == 0 {
		t.Fatal("restart replayed nothing")
	}
	if len(report.Failed) != 0 {
		t.Fatalf("rejoin failures: %v", report.Failed)
	}
	replicas, err = cl.Replicas("app")
	if err != nil {
		t.Fatal(err)
	}
	if len(replicas) != 2 {
		t.Fatalf("replicas after restart = %v, want 2", replicas)
	}
	// The restarted machine holds the full table, including the downtime write.
	m, err := cl.Machine(victim)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Engine().Exec("app", "SELECT id FROM t")
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("restarted machine: rows=%v err=%v, want 2 rows", res, err)
	}
}

// TestCrashMachineAbortsInFlightCopy crashes the target of an in-flight
// Algorithm 1 replica copy (regression: the copy used to leave the
// destination half-registered — partial tables on the target and a stale
// rejecting copy state on the database). The copy must abort, report the
// database as affected so the caller can requeue it, leave the replica set
// untouched, discard the half-copied state on restart, and accept a fresh
// copy onto the restarted machine.
func TestCrashMachineAbortsInFlightCopy(t *testing.T) {
	n := netsim.New(21, nil)
	c := New("colo1", Options{
		ClusterSize: 3,
		Cluster:     core.Options{Replicas: 2, Network: n},
	})
	c.AddFreeMachines(3)
	if err := c.CreateDatabase("app", smallReq(), 2); err != nil {
		t.Fatal(err)
	}
	cl := c.Clusters()[0]
	mustExec := func(sql string) {
		t.Helper()
		if _, err := cl.Exec("app", sql); err != nil {
			t.Fatalf("Exec(%q): %v", sql, err)
		}
	}
	mustExec("CREATE TABLE a (id INT PRIMARY KEY)")
	mustExec("CREATE TABLE b (id INT PRIMARY KEY)")
	for i := 1; i <= 25; i++ {
		mustExec(fmt.Sprintf("INSERT INTO a VALUES (%d)", i))
		mustExec(fmt.Sprintf("INSERT INTO b VALUES (%d)", i))
	}
	replicas, err := cl.Replicas("app")
	if err != nil {
		t.Fatal(err)
	}
	var target string
	for _, id := range cl.MachineIDs() {
		if !slices.Contains(replicas, id) {
			target = id
		}
	}
	if target == "" {
		t.Fatal("no spare machine for the copy target")
	}

	// Crash the target the moment the first copied table lands on it —
	// exactly mid-copy, with Algorithm 1's write-rejection state active.
	crashed := make(chan []string, 1)
	n.OnDeliver(func(ci netsim.CallInfo) {
		if ci.Op != "copy_apply" || ci.To != target {
			return
		}
		if m, _ := cl.Machine(target); m != nil && m.Failed() {
			return
		}
		affected, cerr := c.CrashMachine(target)
		if cerr != nil {
			t.Errorf("CrashMachine: %v", cerr)
			return
		}
		crashed <- affected
	})
	err = cl.CreateReplica("app", target)
	n.ClearHooks()
	if !errors.Is(err, core.ErrCopyAborted) {
		t.Fatalf("CreateReplica error = %v, want ErrCopyAborted", err)
	}
	affected := <-crashed
	if !slices.Contains(affected, "app") {
		t.Fatalf("affected = %v, want to include app (the requeue signal)", affected)
	}

	// The half-copied destination never joined the replica set, and writes
	// flow again immediately (no stale in-flight rejection).
	replicas, err = cl.Replicas("app")
	if err != nil {
		t.Fatal(err)
	}
	if len(replicas) != 2 || slices.Contains(replicas, target) {
		t.Fatalf("replicas after aborted copy = %v", replicas)
	}
	mustExec("INSERT INTO a VALUES (26)")

	// Restart discards the half-copied database, so a fresh copy onto the
	// same machine succeeds and delivers the full, current state.
	if _, _, err := c.RestartMachine(target); err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateReplica("app", target); err != nil {
		t.Fatalf("fresh copy after restart: %v", err)
	}
	replicas, err = cl.Replicas("app")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(replicas, target) {
		t.Fatalf("replicas after fresh copy = %v, want to include %s", replicas, target)
	}
	m, err := cl.Machine(target)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Engine().Exec("app", "SELECT id FROM a")
	if err != nil || len(res.Rows) != 26 {
		t.Fatalf("target after copy: rows=%d err=%v, want 26", len(res.Rows), err)
	}
}
