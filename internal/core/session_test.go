package core

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"sdp/internal/netsim"
	"sdp/internal/sqldb"
	"sdp/internal/wal"
)

// pointReadAllocCeiling bounds the allocations of one conservative
// autocommit point read through the controller: transaction, branch, engine
// result and the two inline operations (14 when this was written). One
// session goroutine or channel per transaction does not fit under it.
const pointReadAllocCeiling = 16

// TestPointReadRunsOnCaller checks that a conservative point read and its
// read-only commit execute on the goroutine that issued them: no goroutine
// exists between the read and the commit that did not exist before the
// transaction began, over 1 000 transactions, and the whole transaction
// stays under the committed allocation ceiling.
func TestPointReadRunsOnCaller(t *testing.T) {
	c := newTestCluster(t, 2, Options{Replicas: 2})
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	clusterExec(t, c, "INSERT INTO t VALUES (1, 10)")
	stmt, err := c.stmts.Parse("SELECT n FROM t WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	pointRead := func(midTxn func()) {
		tx, err := c.Begin("app")
		if err != nil {
			t.Fatal(err)
		}
		res, err := tx.ExecStmt(stmt, intv(1))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Int != 10 {
			t.Fatalf("rows = %v", res.Rows)
		}
		midTxn()
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	pointRead(func() {}) // plan cache, lazily started background work
	base := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		pointRead(func() {
			if n := runtime.NumGoroutine(); n > base {
				t.Fatalf("txn %d: %d goroutines with a read-only branch open, %d before it", i, n, base)
			}
		})
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after 1000 point reads, %d before", n, base)
	}

	allocs := testing.AllocsPerRun(1000, func() { pointRead(func() {}) })
	if allocs > pointReadAllocCeiling {
		t.Fatalf("point read transaction allocates %.0f objects, ceiling %d", allocs, pointReadAllocCeiling)
	}
}

// loggedWriteAllocCeiling bounds what one conservative autocommit UPDATE of
// one row on two replicas allocates through the controller: 9 in each engine
// (branch, the row's lock key and lock record, the row read, the new image and
// its stored copy, undo record, result, and the buffer the transaction builds
// redo records into — the log frames every record into one reused buffer), 6
// in the controller (transaction, two branches, the route and its release,
// statement closure); 24 when this was written. The key has four digits, as
// the bench workloads' ids do: a one-digit key's decimal string is a static
// and hides every key string built per statement. It was 49 with a worker
// goroutine, a queue and a future per operation, and 62 when each redo record
// was rendered into a growing builder, copied, and framed into a fresh slice.
const loggedWriteAllocCeiling = 36

// TestReplicatedWriteAllocs is the machine-independent half of the replicated
// write's gate (bench-gate's replicated_write_ns_per_op is the other).
func TestReplicatedWriteAllocs(t *testing.T) {
	t.Run("wal", func(t *testing.T) {
		c := newTestCluster(t, 2, Options{Replicas: 2})
		clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
		clusterExec(t, c, "INSERT INTO t VALUES (1000, 0)")
		write := func() { clusterExec(t, c, "UPDATE t SET v = v + 1 WHERE id = 1000") }
		for i := 0; i < 100; i++ { // cache the statement, bind the plan
			write()
		}
		if allocs := testing.AllocsPerRun(500, write); allocs > loggedWriteAllocCeiling {
			t.Fatalf("replicated write allocates %.1f objects, ceiling %d", allocs, loggedWriteAllocCeiling)
		}
	})
}

// dispatchCase is one configuration that decides where Txn.fanOut runs a
// replica operation. head and rest say whether, after a two-statement write
// transaction and its commit, the head's session and every other session
// ran everything on the caller, starting no worker.
type dispatchCase struct {
	name       string
	opts       func() Options
	head, rest bool
}

// dispatchCases are every way Cluster.overlap can be set, and the two
// configurations where it is not. Each starts from the default engine
// configuration.
func dispatchCases() []dispatchCase {
	with := func(edit func(*Options)) func() Options {
		return func() Options {
			o := Options{EngineConfig: sqldb.DefaultConfig()}
			edit(&o)
			return o
		}
	}
	return []dispatchCase{
		{"conservative", with(func(*Options) {}), true, true},
		{"aggressive", with(func(o *Options) { o.AckMode = Aggressive }), true, false},
		{"miss latency", with(func(o *Options) { o.EngineConfig.MissLatency = 10 * time.Microsecond }), true, false},
		{"stmt service time", with(func(o *Options) {
			o.EngineConfig.Workers, o.EngineConfig.StmtServiceTime = 2, 10*time.Microsecond
		}), true, false},
		// Without worker slots the service time is never charged.
		{"stmt service time, no worker slots", with(func(o *Options) { o.EngineConfig.StmtServiceTime = 10 * time.Microsecond }), true, true},
		{"flush latency", with(func(o *Options) { o.WAL = wal.Config{FlushLatency: 10 * time.Microsecond} }), true, false},
		// A vote under CallTimeout runs nothing on the caller.
		{"network", with(func(o *Options) { o.Network = netsim.New(1, nil) }), false, false},
	}
}

// TestFanOutRunsOnCallerWithoutSimulatedTime pins the dispatch rule: a
// write's head share runs on the caller in every configuration; every other
// share, and the commit's, do exactly when the controller is conservative
// and no machine operation can take simulated time.
func TestFanOutRunsOnCallerWithoutSimulatedTime(t *testing.T) {
	for _, tc := range dispatchCases() {
		for _, targets := range []int{2, 3} {
			opts := tc.opts()
			opts.Replicas = 2
			c := newTestCluster(t, 3, opts)
			clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
			clusterExec(t, c, "INSERT INTO t VALUES (1, 0), (2, 0)")
			if targets == 3 {
				// A replica copy that has already copied t: writes go to the
				// copy target too, after the replicas.
				reps, _ := c.Replicas("app")
				var free string
				for _, id := range c.MachineIDs() {
					if !contains(reps, id) {
						free = id
					}
				}
				m, _ := c.Machine(free)
				if err := m.Engine().CreateDatabase("app"); err != nil {
					t.Fatal(err)
				}
				for _, sql := range []string{"CREATE TABLE t (id INT PRIMARY KEY, v INT)", "INSERT INTO t VALUES (1, 0), (2, 0)"} {
					if _, err := m.Engine().Exec("app", sql); err != nil {
						t.Fatal(err)
					}
				}
				c.mu.Lock()
				c.dbs["app"].copying = &copyState{target: free, copied: map[string]bool{"t": true}}
				c.mu.Unlock()
			}
			tx, err := c.Begin("app")
			if err != nil {
				t.Fatal(err)
			}
			for id := int64(1); id <= 2; id++ {
				if _, err := tx.Exec("UPDATE t SET v = v + 1 WHERE id = ?", intv(id)); err != nil {
					t.Fatalf("%s/%d: %v", tc.name, targets, err)
				}
			}
			if len(tx.sessions) != targets {
				t.Fatalf("%s: %d sessions, want %d", tc.name, len(tx.sessions), targets)
			}
			reps, _ := c.Replicas("app")
			if head := tx.sessions[0]; head.machine.ID() != reps[0] || head.ops != nil {
				t.Errorf("%s/%d targets: first session on %s (head %s) started a worker for a write = %v",
					tc.name, targets, head.machine.ID(), reps[0], head.ops != nil)
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("%s/%d: %v", tc.name, targets, err)
			}
			for i, s := range tx.sessions {
				want := tc.rest
				if i == 0 {
					want = tc.head
				}
				if onCaller := s.ops == nil; onCaller != want {
					t.Errorf("%s/%d targets: session on %s ran on the caller = %v, want %v",
						tc.name, targets, s.machine.ID(), onCaller, want)
				}
			}
		}
	}
}

// conflictLockTimeout bounds a lock wait in the conflict tests: long enough
// that a wait the head's detector should break never reaches it on a loaded
// machine, short enough that a run whose cycles span two replicas ends.
const conflictLockTimeout = 250 * time.Millisecond

// runConflicts drives workers transactions that each update two distinct
// rows of one table, half of them in ascending and half in descending
// order, in every dispatch configuration. With readFirst each transaction
// first reads both rows under Option 1. Every abort must be a local
// deadlock, no engine may count a lock time-out, and every replica must
// hold every committed update.
func runConflicts(t *testing.T, readFirst bool) {
	const workers, perWorker, rows = 4, 150, 8
	for _, tc := range dispatchCases() {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts()
			opts.Replicas = 2
			opts.ReadOption = ReadOption1
			opts.EngineConfig.LockTimeout = conflictLockTimeout
			c := newTestCluster(t, 2, opts)
			clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
			for id := int64(0); id < rows; id++ {
				clusterExec(t, c, "INSERT INTO t VALUES (?, 0)", intv(id))
			}
			var wg sync.WaitGroup
			var mu sync.Mutex
			committed := 0
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						// Two distinct rows, ascending on even workers, descending on odd.
						a := int64((i + w) % rows)
						b := (a + 1 + int64(i%(rows-1))) % rows
						if (a > b) != (w%2 == 1) {
							a, b = b, a
						}
						tx, err := c.Begin("app")
						if err != nil {
							t.Error(err)
							return
						}
						if readFirst {
							_, err = tx.Exec("SELECT v FROM t WHERE id = ?", intv(a))
							if err == nil {
								_, err = tx.Exec("SELECT v FROM t WHERE id = ?", intv(b))
							}
						}
						if err == nil {
							_, err = tx.Exec("UPDATE t SET v = v + 1 WHERE id = ?", intv(a))
						}
						if err == nil {
							_, err = tx.Exec("UPDATE t SET v = v + 1 WHERE id = ?", intv(b))
						}
						if err == nil {
							err = tx.Commit()
						}
						switch {
						case err == nil:
							mu.Lock()
							committed++
							mu.Unlock()
						case errors.Is(err, sqldb.ErrDeadlock):
						default:
							t.Errorf("abort that is not a local deadlock: %v", err)
						}
					}
				}(w)
			}
			wg.Wait()
			if committed == 0 {
				t.Fatal("nothing committed")
			}
			t.Logf("%d committed, %d deadlocks", committed, c.Stats().Deadlocks)
			if n := opts.Network; n != nil {
				n.Quiesce()
			}
			for _, id := range c.MachineIDs() {
				m, _ := c.Machine(id)
				if n := m.Engine().Stats().LockTimeouts; n != 0 {
					t.Errorf("%s: %d lock time-outs", id, n)
				}
				res, err := m.Engine().Exec("app", "SELECT SUM(v) FROM t")
				if err != nil {
					t.Fatal(err)
				}
				if got := res.Rows[0][0].Int; got != int64(2*committed) {
					t.Errorf("%s: SUM(v) = %d, want %d (two updates in each of %d commits)", id, got, 2*committed, committed)
				}
			}
		})
	}
}

// TestWriteWriteConflictIsLocalDeadlock is the invariant head-first dispatch
// buys: every writer takes a row's lock at the head replica first, so two
// writers of the same rows in opposite orders deadlock there, where the
// engine's detector sees the whole cycle and picks a victim at once. With
// the write sent to both replicas at once each writer could win a different
// machine, a cycle no engine sees and only the lock time-out breaks.
func TestWriteWriteConflictIsLocalDeadlock(t *testing.T) { runConflicts(t, false) }

// TestReadThenUpdateIsLocalDeadlock adds Option 1's reads to the same
// conflicts: they take their shared locks at the head too, so a cycle of a
// read and two writes is whole there as well.
func TestReadThenUpdateIsLocalDeadlock(t *testing.T) { runConflicts(t, true) }

// TestAggressiveSessionFIFO holds the non-head replica's link slow under the
// aggressive controller, so the first write is acknowledged, on the head's
// answer, while it is still pending there. A second write and then a read
// routed to that replica, issued meanwhile, must execute there after the
// first write and in issue order — queued behind it, never inline ahead of
// it.
func TestAggressiveSessionFIFO(t *testing.T) {
	n := netsim.New(3, nil)
	c := newTestCluster(t, 2, Options{Replicas: 2, AckMode: Aggressive, Network: n, ReadOption: ReadOption2})
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	clusterExec(t, c, "INSERT INTO t VALUES (1, 1)")

	reps, _ := c.Replicas("app")
	slow := reps[1]
	var mu sync.Mutex
	var slowExecs int
	n.OnDeliver(func(ci netsim.CallInfo) {
		if ci.To == slow && ci.Op == "exec" {
			mu.Lock()
			slowExecs++
			mu.Unlock()
		}
	})
	n.SetFaults(c.Endpoint(), slow, netsim.Faults{Latency: 20 * time.Millisecond})

	tx, err := c.Begin("app")
	if err != nil {
		t.Fatal(err)
	}
	tx.readHome = slow // Option 2 reads this transaction at the slow replica
	if _, err := tx.Exec("UPDATE t SET n = n + 1 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	pendingOnSlow := slowExecs == 0
	mu.Unlock()
	if !pendingOnSlow {
		t.Fatal("first write already executed on the slow replica when it was acknowledged")
	}
	if _, err := tx.Exec("UPDATE t SET n = n * 10 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	res, err := tx.Exec("SELECT n FROM t WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	// (1+1)*10 in issue order; 1*10+1 = 11 had the second write overtaken
	// the first, 1 or 2 had the read overtaken a write.
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 20 {
		t.Fatalf("read on the slow replica = %v, want 20", res.Rows)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	n.Quiesce()
	for _, id := range c.MachineIDs() {
		m, _ := c.Machine(id)
		got, err := m.Engine().Exec("app", "SELECT n FROM t WHERE id = 1")
		if err != nil {
			t.Fatal(err)
		}
		if got.Rows[0][0].Int != 20 {
			t.Errorf("%s: n = %d, want 20", id, got.Rows[0][0].Int)
		}
	}
}
