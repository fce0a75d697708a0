package core

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"sdp/internal/netsim"
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

// TestAggressiveSessionFIFO holds one replica's link slow under the
// aggressive controller, so the first write is acknowledged while it is
// still pending there. A second write and then a read routed to that
// replica, issued meanwhile, must execute there after the first write and in
// issue order — queued behind it, never inline ahead of it.
func TestAggressiveSessionFIFO(t *testing.T) {
	n := netsim.New(3, nil)
	c := newTestCluster(t, 2, Options{Replicas: 2, AckMode: Aggressive, Network: n})
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	clusterExec(t, c, "INSERT INTO t VALUES (1, 1)")

	// Reads go to the database's home replica (Option 1): slow that one.
	c.mu.Lock()
	slow := c.dbs["app"].readHome
	c.mu.Unlock()
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
