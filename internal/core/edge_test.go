package core

import (
	"errors"
	"testing"
)

func TestAddMachineDuplicate(t *testing.T) {
	c := NewCluster("e", Options{})
	if _, err := c.AddMachine("m1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddMachine("m1"); err == nil {
		t.Error("duplicate machine accepted")
	}
}

func TestDropDatabaseWithFailedReplica(t *testing.T) {
	c := newTestCluster(t, 2, Options{Replicas: 2})
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY)")
	reps, _ := c.Replicas("app")
	if _, err := c.FailMachine(reps[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.DropDatabase("app"); err != nil {
		t.Fatalf("drop with failed replica: %v", err)
	}
	if len(c.dbs) != 0 {
		t.Errorf("databases = %v", c.dbs)
	}
}

func TestFailUnknownMachine(t *testing.T) {
	c := newTestCluster(t, 2, Options{})
	if _, err := c.FailMachine("m99"); !errors.Is(err, ErrNoMachine) {
		t.Errorf("err = %v", err)
	}
}

func TestBeginOnDatabaseWithNoLiveReplicas(t *testing.T) {
	c := newTestCluster(t, 2, Options{Replicas: 2})
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY)")
	for _, id := range c.MachineIDs() {
		_, _ = c.FailMachine(id)
	}
	// Begin succeeds (no state yet); the first operation fails cleanly.
	tx, err := c.Begin("app")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("SELECT * FROM t"); !errors.Is(err, ErrNoReplicas) {
		t.Errorf("read err = %v", err)
	}
	tx2, _ := c.Begin("app")
	if _, err := tx2.Exec("INSERT INTO t VALUES (1)"); !errors.Is(err, ErrNoReplicas) {
		t.Errorf("write err = %v", err)
	}
}

func TestReadOnlyTransactionCommit(t *testing.T) {
	c := newTestCluster(t, 2, Options{Replicas: 2})
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY)")
	clusterExec(t, c, "INSERT INTO t VALUES (1)")
	tx, _ := c.Begin("app")
	for i := 0; i < 3; i++ {
		if _, err := tx.Exec("SELECT COUNT(*) FROM t"); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("read-only commit: %v", err)
	}
	// Read-only commits bypass 2PC, so no branch is left prepared.
	for _, id := range c.MachineIDs() {
		m, _ := c.Machine(id)
		if gids := m.Engine().PreparedGIDs(); len(gids) != 0 {
			t.Errorf("%s: prepared branches %v after a read-only commit", id, gids)
		}
	}
}

func TestGlobalIDsAreUnique(t *testing.T) {
	c := newTestCluster(t, 2, Options{})
	seen := map[uint64]bool{}
	for i := 0; i < 50; i++ {
		tx, err := c.Begin("app")
		if err != nil {
			t.Fatal(err)
		}
		if seen[tx.gid] {
			t.Fatalf("duplicate global ID %d", tx.gid)
		}
		seen[tx.gid] = true
		_ = tx.Rollback()
	}
}

func TestUtilisationOfFreshMachine(t *testing.T) {
	c := NewCluster("e", Options{})
	m, err := c.AddMachine("m1")
	if err != nil {
		t.Fatal(err)
	}
	if u := m.Used().Dominant(); u != 0 {
		t.Errorf("fresh machine utilisation = %v", u)
	}
	cap := m.Capacity()
	if cap.CPU != 1 || cap.Memory != 1 {
		t.Errorf("default capacity = %v", cap)
	}
}

func TestExplainThroughCluster(t *testing.T) {
	c := newTestCluster(t, 2, Options{Replicas: 2})
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	clusterExec(t, c, "INSERT INTO t VALUES (1, 1)")
	res := clusterExec(t, c, "EXPLAIN SELECT v FROM t WHERE id = 1")
	if len(res.Rows) != 1 || res.Rows[0][1].Str != "point" {
		t.Errorf("plan = %v", res.Rows)
	}
	// EXPLAIN of a write still routes as a read (it executes nothing).
	res = clusterExec(t, c, "EXPLAIN UPDATE t SET v = 0 WHERE id = 1")
	if res.Rows[0][1].Str != "point" {
		t.Errorf("plan = %v", res.Rows)
	}
	got := clusterExec(t, c, "SELECT v FROM t WHERE id = 1")
	if got.Rows[0][0].Int != 1 {
		t.Errorf("EXPLAIN UPDATE modified data: %v", got.Rows[0][0])
	}
}
