package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"sdp/internal/replcopy"
	"sdp/internal/sqldb"
)

// populate creates two tables with n rows each in db "app".
func populate(t *testing.T, c *Cluster, n int) {
	t.Helper()
	clusterExec(t, c, "CREATE TABLE a (id INT PRIMARY KEY, v INT)")
	clusterExec(t, c, "CREATE TABLE b (id INT PRIMARY KEY, v INT)")
	tx, err := c.Begin("app")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := tx.Exec(fmt.Sprintf("INSERT INTO a VALUES (%d, %d)", i, i)); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec(fmt.Sprintf("INSERT INTO b VALUES (%d, %d)", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateReplicaBasic(t *testing.T) {
	c := newTestCluster(t, 3, Options{Replicas: 2})
	populate(t, c, 100)

	reps, _ := c.Replicas("app")
	target := ""
	for _, id := range c.MachineIDs() {
		if !contains(reps, id) {
			target = id
		}
	}
	if err := c.CreateReplica("app", target); err != nil {
		t.Fatal(err)
	}
	reps, _ = c.Replicas("app")
	if len(reps) != 3 || !contains(reps, target) {
		t.Fatalf("replicas = %v", reps)
	}
	m, _ := c.Machine(target)
	res, err := m.Engine().Exec("app", "SELECT COUNT(*) FROM a")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 100 {
		t.Errorf("target copy has %v rows", res.Rows[0][0])
	}
}

func TestCreateReplicaErrors(t *testing.T) {
	c := newTestCluster(t, 2, Options{Replicas: 2})
	populate(t, c, 10)
	reps, _ := c.Replicas("app")
	if err := c.CreateReplica("app", reps[0]); err == nil {
		t.Error("replica on hosting machine succeeded")
	}
	if err := c.CreateReplica("nope", "m1"); !errors.Is(err, ErrNoDatabase) {
		t.Errorf("err = %v", err)
	}
	if err := c.CreateReplica("app", "m99"); !errors.Is(err, ErrNoMachine) {
		t.Errorf("err = %v", err)
	}
}

// TestCreateReplicaOnlineConsistency runs a write workload concurrently with
// replica creation and verifies the new replica converges to the same state
// as the originals — the correctness claim of Theorem 3.
func TestCreateReplicaOnlineConsistency(t *testing.T) {
	for _, gran := range []sqldb.DumpGranularity{sqldb.GranularityTable, sqldb.GranularityDatabase} {
		t.Run(gran.String(), func(t *testing.T) {
			c := newTestCluster(t, 3, Options{Replicas: 2, CopyGranularity: gran})
			populate(t, c, 300)

			stop := make(chan struct{})
			var rejected, applied atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					i := 0
					for {
						select {
						case <-stop:
							return
						default:
						}
						i++
						id := (seed*97 + i*31) % 300
						tbl := "a"
						if i%2 == 0 {
							tbl = "b"
						}
						_, err := c.Exec("app", fmt.Sprintf("UPDATE %s SET v = v + 1 WHERE id = %d", tbl, id))
						switch {
						case err == nil:
							applied.Add(1)
						case IsRejection(err):
							rejected.Add(1)
						}
					}
				}(w)
			}

			reps, _ := c.Replicas("app")
			target := ""
			for _, id := range c.MachineIDs() {
				if !contains(reps, id) {
					target = id
				}
			}
			if err := c.CreateReplica("app", target); err != nil {
				t.Fatal(err)
			}
			close(stop)
			wg.Wait()

			// All three replicas must agree on the full content checksum.
			reps, _ = c.Replicas("app")
			if len(reps) != 3 {
				t.Fatalf("replicas = %v", reps)
			}
			type sum struct{ a, b int64 }
			var sums []sum
			for _, id := range reps {
				m, _ := c.Machine(id)
				ra, err := m.Engine().Exec("app", "SELECT SUM(v), COUNT(*) FROM a")
				if err != nil {
					t.Fatal(err)
				}
				rb, err := m.Engine().Exec("app", "SELECT SUM(v), COUNT(*) FROM b")
				if err != nil {
					t.Fatal(err)
				}
				if ra.Rows[0][1].Int != 300 || rb.Rows[0][1].Int != 300 {
					t.Fatalf("machine %s row counts: a=%v b=%v", id, ra.Rows[0][1], rb.Rows[0][1])
				}
				sums = append(sums, sum{a: ra.Rows[0][0].Int, b: rb.Rows[0][0].Int})
			}
			for i := 1; i < len(sums); i++ {
				if sums[i] != sums[0] {
					t.Errorf("replica %s diverged: %v vs %v", reps[i], sums[i], sums[0])
				}
			}
			t.Logf("granularity=%s applied=%d rejected=%d", gran, applied.Load(), rejected.Load())
			if gran == sqldb.GranularityDatabase && rejected.Load() == 0 && applied.Load() > 0 {
				// Database-granularity copies reject all writes during the
				// copy; with a concurrent writer some rejections are
				// overwhelmingly likely, but don't fail on scheduling luck.
				t.Log("warning: no rejections observed during database-granularity copy")
			}
		})
	}
}

func TestCopyInProgressExcludesSecondCopy(t *testing.T) {
	c := newTestCluster(t, 4, Options{Replicas: 2})
	populate(t, c, 50)
	reps, _ := c.Replicas("app")
	var free []string
	for _, id := range c.MachineIDs() {
		if !contains(reps, id) {
			free = append(free, id)
		}
	}
	// Install a copy state as CreateReplica would: a concurrent second
	// replica creation must be refused.
	c.mu.Lock()
	ds := c.dbs["app"]
	ds.copying = &copyState{Copy: replcopy.Copy{Phase: replcopy.Running, Target: free[0]}}
	c.mu.Unlock()
	if err := c.CreateReplica("app", free[1]); !errors.Is(err, ErrCopyInProgress) {
		t.Errorf("second copy err = %v, want ErrCopyInProgress", err)
	}
	c.mu.Lock()
	ds.copying = nil
	c.mu.Unlock()
	// With the state cleared, the copy proceeds normally.
	if err := c.CreateReplica("app", free[1]); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Replicas("app"); len(got) != 3 {
		t.Errorf("replicas = %v", got)
	}
}

func TestFailMachineRemovesReplicas(t *testing.T) {
	c := newTestCluster(t, 3, Options{Replicas: 2})
	populate(t, c, 50)
	reps, _ := c.Replicas("app")
	affected, err := c.FailMachine(reps[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(affected) != 1 || affected[0] != "app" {
		t.Errorf("affected = %v", affected)
	}
	reps2, _ := c.Replicas("app")
	if len(reps2) != 1 || reps2[0] != reps[1] {
		t.Errorf("replicas after failure = %v", reps2)
	}
	// The database keeps serving from the survivor.
	res := clusterExec(t, c, "SELECT COUNT(*) FROM a")
	if res.Rows[0][0].Int != 50 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	if live := liveMachineIDs(c); len(live) != 2 {
		t.Errorf("live = %v", live)
	}
}

func TestRecoveryRestoresReplicationFactor(t *testing.T) {
	c := NewCluster("rec", Options{Replicas: 2})
	if _, err := c.AddMachines(4); err != nil {
		t.Fatal(err)
	}
	// Several databases, so the failed machine hosts more than one.
	for i := 0; i < 4; i++ {
		db := fmt.Sprintf("db%d", i)
		if err := c.CreateDatabase(db); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Exec(db, "CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 50; j++ {
			if _, err := c.Exec(db, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", j, j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	affected, err := c.FailMachine("m1")
	if err != nil {
		t.Fatal(err)
	}
	if len(affected) == 0 {
		t.Skip("m1 hosted no databases (placement luck)")
	}
	report := c.RecoverDatabases(affected, 2)
	if len(report.Failed) != 0 {
		t.Fatalf("recovery failures: %v", report.Failed)
	}
	if len(report.Recovered) != len(affected) {
		t.Errorf("recovered %v, want %v", report.Recovered, affected)
	}
	for _, db := range affected {
		reps, _ := c.Replicas(db)
		if len(reps) != 2 {
			t.Errorf("%s has %d replicas after recovery", db, len(reps))
		}
		for _, id := range reps {
			m, _ := c.Machine(id)
			res, err := m.Engine().Exec(db, "SELECT COUNT(*) FROM t")
			if err != nil {
				t.Fatal(err)
			}
			if res.Rows[0][0].Int != 50 {
				t.Errorf("%s on %s has %v rows", db, id, res.Rows[0][0])
			}
		}
	}
}
