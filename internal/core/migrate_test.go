package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdp/internal/replcopy"
	"sdp/internal/sla"
	"sdp/internal/sqldb"
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
	// route is where a write on table goes: its head, then the rest settled
	// once its head share holds the table's lock.
	route := func(table string) ([]string, error) {
		r, err := c.writeRoute("app", table, nil)
		if err != nil {
			return nil, err
		}
		rest, err := c.writeRest("app", table, r, nil)
		return append(r[:1], rest...), err
	}

	// Case: write to a copied table goes to replicas + target.
	targets, err := route("A") // case-insensitive
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 3 || !contains(targets, "m3") {
		t.Errorf("copied-table targets = %v", targets)
	}

	// Case: write to the in-flight table is rejected.
	if _, err := route("b"); !errors.Is(err, ErrRejected) {
		t.Errorf("in-flight write err = %v", err)
	}

	// Case: write to a not-yet-copied table excludes the target.
	targets, err = route("c")
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 2 || contains(targets, "m3") {
		t.Errorf("uncopied-table targets = %v (replicas %v)", targets, reps)
	}

	// Case: a database-granularity step has every uncopied table in flight.
	c.mu.Lock()
	ds.copying.tables["c"] = replcopy.InFlight
	c.mu.Unlock()
	if _, err := route("c"); !errors.Is(err, ErrRejected) {
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

// retireSetup starts a cluster of three machines whose engines have the
// given LockTimeout, holding app on two of them, and returns the third.
// begin grows app onto the third and leaves a transaction with a branch
// there, its UPDATE's; retire shrinks app off the third in the background.
func retireSetup(t *testing.T, lockTimeout time.Duration) (c *Cluster, third *Machine, begin func(n int) *Txn, retire func() chan error) {
	t.Helper()
	cfg := sqldb.DefaultConfig()
	cfg.LockTimeout = lockTimeout
	c = newTestCluster(t, 3, Options{Replicas: 2, EngineConfig: cfg})
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	clusterExec(t, c, "INSERT INTO t VALUES (1, 1)")
	reps, _ := c.Replicas("app")
	for _, id := range c.MachineIDs() {
		if !contains(reps, id) {
			third, _ = c.Machine(id)
		}
	}
	begin = func(n int) *Txn {
		t.Helper()
		if err := c.GrowReplica("app", third.ID()); err != nil {
			t.Fatal(err)
		}
		txn, err := c.Begin("app")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := txn.Exec(fmt.Sprintf("UPDATE t SET n = %d WHERE id = 1", n)); err != nil {
			t.Fatal(err)
		}
		return txn
	}
	retire = func() chan error {
		done := make(chan error, 1)
		go func() { done <- c.ShrinkReplica("app", third.ID()) }()
		return done
	}
	return c, third, begin, retire
}

// TestRetireLetsActiveTransactionsCommit retires a replica while a
// transaction holds a branch there: the retire waits, and the transaction
// commits without ErrTxnAborted. A branch that never ends delays the drop
// by at most the engine's LockTimeout; the drop then wounds it as before,
// so its commit fails. With a zero LockTimeout nothing bounds the wait, so
// the retire does not wait and the drop wounds at once.
func TestRetireLetsActiveTransactionsCommit(t *testing.T) {
	const lockTimeout = 200 * time.Millisecond
	c, third, begin, retire := retireSetup(t, lockTimeout)

	txn := begin(2)
	done := retire()
	select {
	case err := <-done:
		t.Fatalf("the retire returned (%v) while a transaction held a branch on %s", err, third.ID())
	case <-time.After(lockTimeout / 4):
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("commit of a transaction with a branch on the retiring replica: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("retire: %v", err)
	}
	if third.Engine().HasDatabase("app") {
		t.Fatalf("%s still holds app after the retire", third.ID())
	}
	if res := clusterExec(t, c, "SELECT n FROM t WHERE id = 1"); res.Rows[0][0].Int != 2 {
		t.Fatalf("n = %v after the commit, want 2", res.Rows[0][0])
	}

	// The upper bound only catches a wait that ignores the LockTimeout; it
	// leaves room for scheduling delay under the race detector.
	txn = begin(3)
	start := time.Now()
	if err := <-retire(); err != nil {
		t.Fatalf("retire past a branch that never ends: %v", err)
	}
	if took := time.Since(start); took < lockTimeout || took > 5*lockTimeout {
		t.Fatalf("the retire took %v past a branch that never ends, want about the LockTimeout %v", took, lockTimeout)
	}
	if third.Engine().HasDatabase("app") {
		t.Fatalf("%s still holds app after the retire", third.ID())
	}
	if err := txn.Commit(); !errors.Is(err, sqldb.ErrTxnAborted) {
		t.Fatalf("commit of the wounded transaction = %v, want ErrTxnAborted", err)
	}

	_, third, begin, retire = retireSetup(t, 0)
	txn = begin(4)
	select {
	case err := <-retire():
		if err != nil {
			t.Fatalf("retire with a zero LockTimeout: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("with a zero LockTimeout the retire still waits for a branch on %s", third.ID())
	}
	if third.Engine().HasDatabase("app") {
		t.Fatalf("%s still holds app after the retire", third.ID())
	}
	if err := txn.Commit(); !errors.Is(err, sqldb.ErrTxnAborted) {
		t.Fatalf("commit of the wounded transaction = %v, want ErrTxnAborted", err)
	}
}

// TestGrowRefusesRetiringMachine grows app back onto a machine whose
// retire is still waiting for a transaction's branch there. The retire's
// drop would take the copy away under the new replica, so the grow is
// refused until the drop is done; after it the regrown replica holds app,
// counted once.
func TestGrowRefusesRetiringMachine(t *testing.T) {
	c, third, begin, retire := retireSetup(t, 5*time.Second)
	txn := begin(2)
	done := retire()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if reps, _ := c.Replicas("app"); !contains(reps, third.ID()) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the retire of %s was never applied", third.ID())
		}
	}
	if err := c.GrowReplica("app", third.ID()); !errors.Is(err, ErrCopyInProgress) {
		t.Fatalf("grow onto %s while its retired copy awaits its drop = %v, want ErrCopyInProgress", third.ID(), err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("commit of a transaction with a branch on the retiring replica: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("retire: %v", err)
	}
	if err := c.GrowReplica("app", third.ID()); err != nil {
		t.Fatalf("grow onto %s after its drop: %v", third.ID(), err)
	}
	res, err := third.Engine().Exec("app", "SELECT n FROM t WHERE id = 1")
	if err != nil || res.Rows[0][0].Int != 2 {
		t.Fatalf("the regrown replica on %s reads n = %v (%v), want 2", third.ID(), res, err)
	}
	if n := third.dbCount.Load(); n != 1 {
		t.Fatalf("%s counts %d databases, want 1", third.ID(), n)
	}
}
