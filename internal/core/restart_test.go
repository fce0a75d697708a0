package core

import (
	"slices"
	"testing"
)

// tableCount reads one table's row count directly from a machine's engine.
func tableCount(t *testing.T, m *Machine, db, tbl string) int {
	t.Helper()
	res, err := m.Engine().Exec(db, "SELECT id FROM "+tbl)
	if err != nil {
		t.Fatalf("engine select on %s: %v", m.ID(), err)
	}
	return len(res.Rows)
}

// TestMachineRestartFastRecovery fails a replica machine, keeps writing to
// one table while another stays untouched, restarts the machine, and checks
// that the fast path re-admits it: the untouched table comes back via log
// replay alone, only the changed table is delta-copied, and the machine
// serves reads again.
func TestMachineRestartFastRecovery(t *testing.T) {
	c := newTestCluster(t, 2, Options{Replicas: 2})
	clusterExec(t, c, "CREATE TABLE hot (id INT PRIMARY KEY, n INT)")
	clusterExec(t, c, "CREATE TABLE cold (id INT PRIMARY KEY, n INT)")
	for i := 1; i <= 20; i++ {
		clusterExec(t, c, "INSERT INTO hot VALUES (?, ?)", intv(int64(i)), intv(int64(i)))
		clusterExec(t, c, "INSERT INTO cold VALUES (?, ?)", intv(int64(i)), intv(int64(i)))
	}

	replicas, err := c.Replicas("app")
	if err != nil {
		t.Fatal(err)
	}
	victimID := replicas[1]
	affected, err := c.FailMachine(victimID)
	if err != nil {
		t.Fatal(err)
	}
	if len(affected) != 1 || affected[0] != "app" {
		t.Fatalf("affected = %v", affected)
	}

	// The cluster keeps serving on the surviving replica; only hot changes.
	for i := 21; i <= 30; i++ {
		clusterExec(t, c, "INSERT INTO hot VALUES (?, ?)", intv(int64(i)), intv(int64(i)))
	}

	victim, err := c.Machine(victimID)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.RestartMachine(victimID)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applied == 0 {
		t.Fatal("restart replayed nothing")
	}
	if victim.Failed() {
		t.Fatal("machine still failed after restart")
	}
	// Log replay restored the failure-time state: 20 rows in each table.
	if got := tableCount(t, victim, "app", "hot"); got != 20 {
		t.Fatalf("hot after replay: %d rows, want 20", got)
	}
	if got := tableCount(t, victim, "app", "cold"); got != 20 {
		t.Fatalf("cold after replay: %d rows, want 20", got)
	}

	// Re-admit the database; the fast path should catch up only `hot`.
	report := c.RecoverDatabases(affected, 1)
	if len(report.Failed) != 0 {
		t.Fatalf("recovery failures: %v", report.Failed)
	}
	if got := c.metrics.walRecovery.With("fast").Value(); got != 1 {
		t.Fatalf("wal_recovery_total{path=fast} = %d, want 1", got)
	}
	if got := c.metrics.walRecovery.With("full").Value(); got != 0 {
		t.Fatalf("wal_recovery_total{path=full} = %d, want 0", got)
	}

	replicas, err = c.Replicas("app")
	if err != nil {
		t.Fatal(err)
	}
	if len(replicas) != 2 || !contains(replicas, victimID) {
		t.Fatalf("replicas after catch-up = %v, want to include %s", replicas, victimID)
	}
	if got := tableCount(t, victim, "app", "hot"); got != 30 {
		t.Fatalf("hot after catch-up: %d rows, want 30", got)
	}

	// The rejoined machine receives new writes and serves cluster reads.
	clusterExec(t, c, "INSERT INTO hot VALUES (31, 31)")
	if got := tableCount(t, victim, "app", "hot"); got != 31 {
		t.Fatalf("hot after rejoin write: %d rows, want 31", got)
	}
	res := clusterExec(t, c, "SELECT id FROM hot")
	if len(res.Rows) != 31 {
		t.Fatalf("cluster read after rejoin: %d rows, want 31", len(res.Rows))
	}

	// A second restart of the caught-up machine reproduces the caught-up
	// state from its own log (the delta landed as a restore frame, so the log
	// is self-contained without a checkpoint).
	if _, err := c.FailMachine(victimID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RestartMachine(victimID); err != nil {
		t.Fatal(err)
	}
	if got := tableCount(t, victim, "app", "hot"); got != 31 {
		t.Fatalf("hot after second restart: %d rows, want 31", got)
	}
}

// TestRecoveryFullPathWithoutRestart checks that when the failed machine
// never comes back, recovery falls through to the full Algorithm-1 copy onto
// a fresh target and counts it as such.
func TestRecoveryFullPathWithoutRestart(t *testing.T) {
	c := newTestCluster(t, 3, Options{Replicas: 2})
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY)")
	for i := 1; i <= 10; i++ {
		clusterExec(t, c, "INSERT INTO t VALUES (?)", intv(int64(i)))
	}
	replicas, _ := c.Replicas("app")
	affected, err := c.FailMachine(replicas[1])
	if err != nil {
		t.Fatal(err)
	}
	report := c.RecoverDatabases(affected, 1)
	if len(report.Failed) != 0 {
		t.Fatalf("recovery failures: %v", report.Failed)
	}
	if got := c.metrics.walRecovery.With("full").Value(); got != 1 {
		t.Fatalf("wal_recovery_total{path=full} = %d, want 1", got)
	}
	if got := c.metrics.walRecovery.With("fast").Value(); got != 0 {
		t.Fatalf("wal_recovery_total{path=fast} = %d, want 0", got)
	}
}

// TestRestartDropsOrphanedDatabase checks that a database dropped while its
// host was down is discarded on restart, and that a dropped-and-recreated
// namespace is never fast-pathed from stale marks (the epoch guard).
func TestRestartDropsOrphanedDatabase(t *testing.T) {
	c := newTestCluster(t, 3, Options{Replicas: 2})
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY)")
	clusterExec(t, c, "INSERT INTO t VALUES (1)")

	replicas, _ := c.Replicas("app")
	victimID := replicas[1]
	// A second database on the victim that will be dropped outright.
	if err := c.CreateDatabaseOn("scratch", []string{victimID, replicas[0]}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("scratch", "CREATE TABLE s (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FailMachine(victimID); err != nil {
		t.Fatal(err)
	}
	if err := c.DropDatabase("scratch"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropDatabase("app"); err != nil {
		t.Fatal(err)
	}
	// Same name, new incarnation, new contents.
	if err := c.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	clusterExec(t, c, "CREATE TABLE t2 (id INT PRIMARY KEY)")

	if _, err := c.RestartMachine(victimID); err != nil {
		t.Fatal(err)
	}
	victim, _ := c.Machine(victimID)
	// "scratch" no longer exists cluster-wide: the restart discards it.
	if victim.Engine().HasDatabase("scratch") {
		t.Fatal("orphaned database survived restart")
	}
	// "app" exists cluster-wide again, but as a new incarnation: the marks the
	// machine holds carry the old epoch, so its copy is as orphaned as
	// scratch's and there is nothing to fast-path from.
	if victim.Engine().HasDatabase("app") {
		t.Fatal("stale incarnation of a re-created database survived restart")
	}
	if m, _ := c.fastRecoveryCandidate("app"); m != nil {
		t.Fatalf("stale marks made %s a fast recovery candidate", m.ID())
	}
	// Recovery must take the full path and end with a correct replica.
	report := c.RecoverDatabases([]string{"app"}, 1)
	if len(report.Failed) != 0 {
		t.Fatalf("recovery failures: %v", report.Failed)
	}
	if got := c.metrics.walRecovery.With("full").Value(); got != 1 {
		t.Fatalf("wal_recovery_total{path=full} = %d, want 1", got)
	}
	reps, _ := c.Replicas("app")
	for _, id := range reps {
		m, _ := c.Machine(id)
		tables := m.Engine().Tables("app")
		if !slices.Contains(tables, "t2") {
			t.Fatalf("replica %s lacks t2: %v", id, tables)
		}
		if slices.Contains(tables, "t") {
			t.Fatalf("replica %s resurrected old incarnation's table t", id)
		}
	}
}
