package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"sdp/internal/sqldb"
)

// newTestCluster builds a cluster with n machines and one database "app"
// replicated per opts.
func newTestCluster(t *testing.T, n int, opts Options) *Cluster {
	t.Helper()
	c := NewCluster("test", opts)
	t.Cleanup(func() { stopControllers(c) })
	if _, err := c.AddMachines(n); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	return c
}

func clusterExec(t *testing.T, c *Cluster, sql string, params ...sqldb.Value) *sqldb.Result {
	t.Helper()
	res, err := c.Exec("app", sql, params...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func TestClusterBasicReplication(t *testing.T) {
	c := newTestCluster(t, 3, Options{Replicas: 2})
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	clusterExec(t, c, "INSERT INTO t VALUES (1, 10)")
	clusterExec(t, c, "UPDATE t SET n = 20 WHERE id = 1")

	// Both replicas must hold identical data.
	reps, err := c.Replicas("app")
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Fatalf("replicas = %v", reps)
	}
	for _, id := range reps {
		m, _ := c.Machine(id)
		res, err := m.Engine().Exec("app", "SELECT n FROM t WHERE id = 1")
		if err != nil {
			t.Fatalf("replica %s: %v", id, err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Int != 20 {
			t.Errorf("replica %s rows = %v", id, res.Rows)
		}
	}
}

func TestClusterReadRouting(t *testing.T) {
	for _, opt := range []ReadOption{ReadOption1, ReadOption2, ReadOption3} {
		t.Run(opt.String(), func(t *testing.T) {
			c := newTestCluster(t, 2, Options{Replicas: 2, ReadOption: opt})
			clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
			clusterExec(t, c, "INSERT INTO t VALUES (1, 42)")
			for i := 0; i < 10; i++ {
				res := clusterExec(t, c, "SELECT n FROM t WHERE id = 1")
				if res.Rows[0][0].Int != 42 {
					t.Fatalf("read %d: %v", i, res.Rows)
				}
			}
		})
	}
}

func TestClusterOption1ReadsOneMachine(t *testing.T) {
	c := newTestCluster(t, 2, Options{Replicas: 2, ReadOption: ReadOption1})
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	clusterExec(t, c, "INSERT INTO t VALUES (1, 1)")
	before := make(map[string]sqldb.PoolStats)
	for _, id := range c.MachineIDs() {
		m, _ := c.Machine(id)
		before[id] = m.Engine().Pool().Stats()
	}
	for i := 0; i < 20; i++ {
		clusterExec(t, c, "SELECT n FROM t WHERE id = 1")
	}
	// With Option 1 every read goes to the head replica, so at most one
	// machine's pool sees new traffic from reads. (Writes touched both
	// earlier, so compare deltas.)
	touched := 0
	for _, id := range c.MachineIDs() {
		m, _ := c.Machine(id)
		after := m.Engine().Pool().Stats()
		if after.Hits+after.Misses > before[id].Hits+before[id].Misses {
			touched++
		}
	}
	if touched > 1 {
		t.Errorf("Option 1 reads touched %d machines, want <= 1", touched)
	}
}

func TestClusterTransactionAcrossReplicas(t *testing.T) {
	c := newTestCluster(t, 2, Options{Replicas: 2})
	clusterExec(t, c, "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
	clusterExec(t, c, "INSERT INTO acct VALUES (1, 100), (2, 100)")

	tx, err := c.Begin("app")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("UPDATE acct SET bal = bal - 10 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("UPDATE acct SET bal = bal + 10 WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	for _, id := range c.MachineIDs() {
		m, _ := c.Machine(id)
		res, err := m.Engine().Exec("app", "SELECT SUM(bal) FROM acct")
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].Int != 200 {
			t.Errorf("machine %s sum = %v", id, res.Rows[0][0])
		}
	}
}

func TestClusterRollbackAllReplicas(t *testing.T) {
	c := newTestCluster(t, 2, Options{Replicas: 2})
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	clusterExec(t, c, "INSERT INTO t VALUES (1, 1)")
	tx, _ := c.Begin("app")
	if _, err := tx.Exec("UPDATE t SET n = 99 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	for _, id := range c.MachineIDs() {
		m, _ := c.Machine(id)
		res, _ := m.Engine().Exec("app", "SELECT n FROM t WHERE id = 1")
		if res.Rows[0][0].Int != 1 {
			t.Errorf("machine %s: rollback not applied, n = %v", id, res.Rows[0][0])
		}
	}
}

func TestClusterTxnAfterFinish(t *testing.T) {
	c := newTestCluster(t, 2, Options{})
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY)")
	tx, _ := c.Begin("app")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("SELECT 1 FROM t"); !errors.Is(err, ErrTxnDone) {
		t.Errorf("err = %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Errorf("double commit: %v", err)
	}
	if err := tx.Rollback(); !errors.Is(err, ErrTxnDone) {
		t.Errorf("rollback after commit: %v", err)
	}
}

func TestClusterConflictingWritersSerialize(t *testing.T) {
	for _, mode := range []AckMode{Conservative, Aggressive} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := sqldb.DefaultConfig()
			cfg.LockTimeout = 100 * time.Millisecond // distributed deadlocks resolve fast
			c := newTestCluster(t, 2, Options{Replicas: 2, AckMode: mode, EngineConfig: cfg})
			clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
			clusterExec(t, c, "INSERT INTO t VALUES (1, 0)")
			done := make(chan error, 8)
			for w := 0; w < 8; w++ {
				go func() {
					for i := 0; i < 10; i++ {
						tx, err := c.Begin("app")
						if err != nil {
							done <- err
							return
						}
						_, err = tx.Exec("UPDATE t SET n = n + 1 WHERE id = 1")
						if err != nil {
							_ = tx.Rollback()
							if IsRetryable(err) {
								i--
								continue
							}
							done <- err
							return
						}
						if err := tx.Commit(); err != nil {
							if IsRetryable(err) || errors.Is(err, sqldb.ErrDeadlock) {
								i--
								continue
							}
							done <- err
							return
						}
					}
					done <- nil
				}()
			}
			for w := 0; w < 8; w++ {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			res := clusterExec(t, c, "SELECT n FROM t WHERE id = 1")
			if res.Rows[0][0].Int != 80 {
				t.Errorf("n = %v, want 80 (lost updates)", res.Rows[0][0])
			}
			// Replicas agree.
			for _, id := range c.MachineIDs() {
				m, _ := c.Machine(id)
				r, _ := m.Engine().Exec("app", "SELECT n FROM t WHERE id = 1")
				if r.Rows[0][0].Int != 80 {
					t.Errorf("machine %s n = %v", id, r.Rows[0][0])
				}
			}
		})
	}
}

func TestCreateDatabaseErrors(t *testing.T) {
	c := NewCluster("test", Options{Replicas: 2})
	if _, err := c.AddMachines(1); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateDatabase("app"); !errors.Is(err, ErrNoReplicas) {
		t.Errorf("err = %v, want ErrNoReplicas", err)
	}
	if _, err := c.AddMachines(1); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateDatabase("app"); !errors.Is(err, ErrDatabaseExists) {
		t.Errorf("err = %v, want ErrDatabaseExists", err)
	}
	if _, err := c.Begin("missing"); !errors.Is(err, ErrNoDatabase) {
		t.Errorf("err = %v", err)
	}
}

func TestDropDatabase(t *testing.T) {
	c := newTestCluster(t, 2, Options{})
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY)")
	if err := c.DropDatabase("app"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Begin("app"); !errors.Is(err, ErrNoDatabase) {
		t.Errorf("err = %v", err)
	}
	if err := c.DropDatabase("app"); !errors.Is(err, ErrNoDatabase) {
		t.Errorf("double drop: %v", err)
	}
}

func TestLeastLoadedPlacement(t *testing.T) {
	c := NewCluster("test", Options{Replicas: 2})
	if _, err := c.AddMachines(4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := c.CreateDatabase(fmt.Sprintf("db%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// 6 dbs x 2 replicas over 4 machines: perfectly balanced = 3 each.
	for _, id := range c.MachineIDs() {
		m, _ := c.Machine(id)
		if n := m.dbCount.Load(); n != 3 {
			t.Errorf("machine %s hosts %d dbs, want 3", id, n)
		}
	}
}

func TestClusterStats(t *testing.T) {
	c := newTestCluster(t, 2, Options{})
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY)")
	clusterExec(t, c, "INSERT INTO t VALUES (1)")
	tx, _ := c.Begin("app")
	_, _ = tx.Exec("INSERT INTO t VALUES (2)")
	_ = tx.Rollback()
	s := c.Stats()
	if s.Committed < 2 || s.Aborted < 1 {
		t.Errorf("stats = %+v", s)
	}
}
