package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"sdp/internal/replcopy"
	"sdp/internal/sla"
)

func TestMigrateReplicaBasic(t *testing.T) {
	c := newTestCluster(t, 3, Options{Replicas: 2})
	populate(t, c, 100)

	reps, _ := c.Replicas("app")
	var free string
	for _, id := range c.MachineIDs() {
		if !contains(reps, id) {
			free = id
		}
	}
	from := reps[0]
	if err := c.MigrateReplica("app", from, free); err != nil {
		t.Fatal(err)
	}
	newReps, _ := c.Replicas("app")
	if len(newReps) != 2 || contains(newReps, from) || !contains(newReps, free) {
		t.Fatalf("replicas after migration = %v", newReps)
	}
	// The source machine no longer has the database.
	m, _ := c.Machine(from)
	if m.Engine().HasDatabase("app") {
		t.Error("source still has the database")
	}
	// The database still serves reads and writes.
	res := clusterExec(t, c, "SELECT COUNT(*) FROM a")
	if res.Rows[0][0].Int != 100 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	clusterExec(t, c, "UPDATE a SET v = v + 1 WHERE id = 1")
}

func TestMigrateReplicaErrors(t *testing.T) {
	c := newTestCluster(t, 3, Options{Replicas: 2})
	populate(t, c, 10)
	reps, _ := c.Replicas("app")
	if err := c.MigrateReplica("missing", reps[0], "m3"); !errors.Is(err, ErrNoDatabase) {
		t.Errorf("err = %v", err)
	}
	var free string
	for _, id := range c.MachineIDs() {
		if !contains(reps, id) {
			free = id
		}
	}
	if err := c.MigrateReplica("app", free, reps[0]); err == nil {
		t.Error("migrating from a non-hosting machine succeeded")
	}
	if err := c.MigrateReplica("app", reps[0], reps[1]); err == nil {
		t.Error("migrating onto an existing replica succeeded")
	}
}

func TestMigrateUnderLoadKeepsConsistency(t *testing.T) {
	c := newTestCluster(t, 3, Options{Replicas: 2})
	clusterExec(t, c, "CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
	for i := 0; i < 200; i++ {
		clusterExec(t, c, fmt.Sprintf("INSERT INTO kv VALUES (%d, 0)", i))
	}

	stop := make(chan struct{})
	var committed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			i := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				i++
				_, err := c.Exec("app", fmt.Sprintf("UPDATE kv SET v = v + 1 WHERE k = %d", i%200))
				if err == nil {
					committed.Add(1)
				}
			}
		}(w * 100)
	}

	reps, _ := c.Replicas("app")
	var free string
	for _, id := range c.MachineIDs() {
		if !contains(reps, id) {
			free = id
		}
	}
	if err := c.MigrateReplica("app", reps[0], free); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	// All replicas agree and reflect exactly the committed updates.
	newReps, _ := c.Replicas("app")
	var sums []int64
	for _, id := range newReps {
		m, _ := c.Machine(id)
		res, err := m.Engine().Exec("app", "SELECT SUM(v) FROM kv")
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, res.Rows[0][0].Int)
	}
	for i := 1; i < len(sums); i++ {
		if sums[i] != sums[0] {
			t.Fatalf("replicas diverged after migration: %v", sums)
		}
	}
	if sums[0] != committed.Load() {
		t.Errorf("sum = %d, committed = %d", sums[0], committed.Load())
	}
}

func TestMigrateRespectsSLACapacity(t *testing.T) {
	c := NewCluster("mig", Options{Replicas: 2})
	if _, err := c.AddMachines(4); err != nil {
		t.Fatal(err)
	}
	big := sla.Resources{CPU: 0.8, Memory: 0.8, Disk: 0.2, DiskBW: 0.2}
	if _, err := c.PlaceWithSLA("app", big, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PlaceWithSLA("other", big, 2); err != nil {
		t.Fatal(err)
	}
	reps, _ := c.Replicas("app")
	others, _ := c.Replicas("other")
	// Migrating app onto a machine already running other must fail the
	// capacity check (0.8 + 0.8 > 1).
	err := c.MigrateReplica("app", reps[0], others[0])
	if !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v, want ErrNoCapacity", err)
	}
	// The failed attempt must not leak a reservation.
	m, _ := c.Machine(others[0])
	if used := m.Used(); used.CPU > 0.81 {
		t.Errorf("leaked reservation: %v", used)
	}
}

// TestWriteRouteAlgorithm1 unit-tests the controller's routing decisions
// against Algorithm 1's four cases directly.
func TestWriteRouteAlgorithm1(t *testing.T) {
	c := newTestCluster(t, 3, Options{Replicas: 2})
	clusterExec(t, c, "CREATE TABLE a (id INT PRIMARY KEY)")
	clusterExec(t, c, "CREATE TABLE b (id INT PRIMARY KEY)")
	clusterExec(t, c, "CREATE TABLE c (id INT PRIMARY KEY)")

	reps, _ := c.Replicas("app")
	// Install a synthetic copy state: table a copied, table b in flight.
	c.mu.Lock()
	ds := c.dbs["app"]
	ds.copying = &copyState{
		Copy:   replcopy.Copy{Phase: replcopy.Running, Target: "m3"},
		tables: map[string]replcopy.Table{"a": replcopy.Copied, "b": replcopy.InFlight},
	}
	c.mu.Unlock()

	// Case: write to a copied table goes to replicas + target.
	targets, release, err := c.writeRoute("app", "A") // case-insensitive
	if err != nil {
		t.Fatal(err)
	}
	release()
	if len(targets) != 3 || !contains(targets, "m3") {
		t.Errorf("copied-table targets = %v", targets)
	}

	// Case: write to the in-flight table is rejected.
	if _, _, err := c.writeRoute("app", "b"); !errors.Is(err, ErrRejected) {
		t.Errorf("in-flight write err = %v", err)
	}

	// Case: write to a not-yet-copied table excludes the target.
	targets, release, err = c.writeRoute("app", "c")
	if err != nil {
		t.Fatal(err)
	}
	release()
	if len(targets) != 2 || contains(targets, "m3") {
		t.Errorf("uncopied-table targets = %v (replicas %v)", targets, reps)
	}

	// Case: a database-granularity step has every uncopied table in flight.
	c.mu.Lock()
	ds.copying.tables["c"] = replcopy.InFlight
	c.mu.Unlock()
	if _, _, err := c.writeRoute("app", "c"); !errors.Is(err, ErrRejected) {
		t.Errorf("second in-flight table write err = %v", err)
	}
	if got := c.Stats().Rejected; got != 2 {
		t.Errorf("rejected counter = %d", got)
	}

	// Reads never route to the copy target.
	c.mu.Lock()
	ds.copying = nil
	c.mu.Unlock()
}

// TestReadRoutingPolicies checks the three options' replica-choice
// behaviour directly.
func TestReadRoutingPolicies(t *testing.T) {
	c := newTestCluster(t, 2, Options{Replicas: 2, ReadOption: ReadOption1})
	// Option 1: the same machine for every transaction.
	seen := map[string]bool{}
	for i := 0; i < 8; i++ {
		tx, _ := c.Begin("app")
		id, err := c.pickReadMachine(tx)
		if err != nil {
			t.Fatal(err)
		}
		seen[id] = true
		_ = tx.Rollback()
	}
	if len(seen) != 1 {
		t.Errorf("option1 used %d machines", len(seen))
	}

	// Option 2: stable within a transaction, varies across transactions.
	c2 := newTestCluster(t, 2, Options{Replicas: 2, ReadOption: ReadOption2})
	seen = map[string]bool{}
	for i := 0; i < 8; i++ {
		tx, _ := c2.Begin("app")
		first, _ := c2.pickReadMachine(tx)
		second, _ := c2.pickReadMachine(tx)
		if first != second {
			t.Errorf("option2 changed machine within a transaction: %s -> %s", first, second)
		}
		seen[first] = true
		_ = tx.Rollback()
	}
	if len(seen) != 2 {
		t.Errorf("option2 used %d machines across transactions, want 2", len(seen))
	}

	// Option 3: varies within a transaction.
	c3 := newTestCluster(t, 2, Options{Replicas: 2, ReadOption: ReadOption3})
	tx, _ := c3.Begin("app")
	seen = map[string]bool{}
	for i := 0; i < 8; i++ {
		id, _ := c3.pickReadMachine(tx)
		seen[id] = true
	}
	_ = tx.Rollback()
	if len(seen) != 2 {
		t.Errorf("option3 used %d machines within a transaction, want 2", len(seen))
	}
}
