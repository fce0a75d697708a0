package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"sdp/internal/obs"
	"sdp/internal/sqldb"
)

// newMetricsTestCluster builds a cluster with n machines and one database
// "app" with a single integer table.
func newMetricsTestCluster(t *testing.T, n, replicas int) *Cluster {
	t.Helper()
	c := NewCluster("obs-test", Options{Replicas: replicas})
	if _, err := c.AddMachines(n); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("app", "CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if _, err := c.Exec("app", "INSERT INTO t VALUES (?, 0)", sqldb.NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestCommitMetrics checks that committed transactions show up in the
// registry with matching 2PC phase latencies, that Stats() agrees with the
// snapshot, and that a commit's trace is its sampled spans: none lands on the
// control ring.
func TestCommitMetrics(t *testing.T) {
	c := newMetricsTestCluster(t, 2, 2)
	for i := 0; i < 5; i++ {
		if _, err := c.Exec("app", "UPDATE t SET v = v + 1 WHERE id = 1"); err != nil {
			t.Fatal(err)
		}
	}
	// One read-only transaction.
	tx, err := c.Begin("app")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("SELECT v FROM t WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	s := c.metrics.reg.Snapshot()
	prepares := s.Counter("core_2pc_prepare_total")
	if prepares == 0 {
		t.Fatal("no 2PC prepares recorded")
	}
	if got := s.Counter("core_2pc_readonly_commit_total"); got != 1 {
		t.Fatalf("readonly commits = %d, want 1", got)
	}
	ph, ok := s.Histogram("core_2pc_prepare_seconds")
	if !ok || ph.Count != prepares {
		t.Fatalf("prepare latency count = %d (ok=%v), want %d", ph.Count, ok, prepares)
	}
	if ph.P95 <= 0 {
		t.Fatal("prepare p95 is zero")
	}
	ch, ok := s.Histogram("core_2pc_commit_seconds")
	if !ok || ch.Count != prepares-s.Counter("core_2pc_vote_no_total") {
		t.Fatalf("commit latency count = %d, want %d", ch.Count, prepares)
	}
	if got := s.Counter("core_read_route_total", "option", "option1"); got == 0 {
		t.Fatal("no read-routing decisions recorded")
	}
	st := c.Stats()
	if st.Committed != s.Counter("core_txn_committed_total") {
		t.Fatalf("Stats().Committed = %d, snapshot = %d", st.Committed, s.Counter("core_txn_committed_total"))
	}
	// The bridge hook must have pulled engine stats into the registry.
	if got := s.Gauge("sqldb_engine_stat", "cluster", "obs-test", "stat", "commits"); got == 0 {
		t.Fatal("bridged engine commit gauge is zero")
	}
	// A plain replicated commit records no control event.
	if evs := c.metrics.reg.Control().Select(0, "", ""); len(evs) != 0 {
		t.Fatalf("plain commits recorded control events: %+v", evs)
	}
	// A sampled commit records its two 2PC phases as spans of its trace.
	tx, err = c.Begin("app")
	if err != nil {
		t.Fatal(err)
	}
	tc := obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewTraceID(), Sampled: true}
	tx.SetTraceContext(tc)
	if _, err := tx.Exec("UPDATE t SET v = v + 1 WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"2pc_prepare", "2pc_commit"} {
		n := 0
		for _, sp := range c.metrics.reg.Spans().Select(tc.TraceID, "core", "app") {
			if sp.Name == phase {
				n++
			}
		}
		if n != 1 {
			t.Errorf("sampled commit recorded %d %s spans, want 1", n, phase)
		}
	}
	if evs := c.metrics.reg.Control().Select(0, "", ""); len(evs) != 0 {
		t.Fatalf("a sampled commit recorded control events: %+v", evs)
	}
}

// TestAbortCountedOnceDeadlockVictim forces a deadlock through the cluster
// controller and checks the satellite guarantee: the victim increments the
// abort counter exactly once, even when the client also calls Rollback
// afterwards (the usual client reaction to an error).
func TestAbortCountedOnceDeadlockVictim(t *testing.T) {
	c := newMetricsTestCluster(t, 1, 1)
	base := c.Stats()

	t1, err := c.Begin("app")
	if err != nil {
		t.Fatal(err)
	}
	t2, err := c.Begin("app")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := t1.Exec("UPDATE t SET v = 1 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Exec("UPDATE t SET v = 2 WHERE id = 2"); err != nil {
		t.Fatal(err)
	}

	// t1 blocks on row 2; once it is waiting, t2's request for row 1
	// closes the cycle and one of the two becomes the deadlock victim.
	var wg sync.WaitGroup
	wg.Add(1)
	var t1Err error
	go func() {
		defer wg.Done()
		_, t1Err = t1.Exec("UPDATE t SET v = 1 WHERE id = 2")
	}()
	time.Sleep(50 * time.Millisecond)
	_, t2Err := t2.Exec("UPDATE t SET v = 2 WHERE id = 1")
	wg.Wait()

	victim, survivor := t2, t1
	victimErr := t2Err
	if t2Err == nil {
		victim, survivor, victimErr = t1, t2, t1Err
	}
	if victimErr == nil {
		t.Fatal("expected one transaction to be the deadlock victim")
	}
	if !errors.Is(victimErr, sqldb.ErrDeadlock) {
		t.Fatalf("victim error = %v, want deadlock", victimErr)
	}
	// The client's usual reaction: roll back after the error. The
	// transaction is already finished, so this must not double-count.
	if err := victim.Rollback(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("rollback after deadlock = %v, want ErrTxnDone", err)
	}
	if err := survivor.Commit(); err != nil {
		t.Fatalf("survivor commit: %v", err)
	}

	st := c.Stats()
	if got := st.Aborted - base.Aborted; got != 1 {
		t.Fatalf("aborted delta = %d, want exactly 1", got)
	}
	if got := st.Committed - base.Committed; got != 1 {
		t.Fatalf("committed delta = %d, want exactly 1", got)
	}
	if st.Deadlocks == 0 {
		t.Fatal("engine deadlock counter not aggregated")
	}
}

// TestAbortCountedOnceOnVoteNo drives the other 2PC abort path: a machine
// failing before PREPARE makes a participant vote no; the abort must count
// once and the vote-no counter must record the round.
func TestAbortCountedOnceOnVoteNo(t *testing.T) {
	c := newMetricsTestCluster(t, 2, 2)
	base := c.Stats()

	tx, err := c.Begin("app")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("UPDATE t SET v = 9 WHERE id = 3"); err != nil {
		t.Fatal(err)
	}
	// Fail one replica between the write and the commit: its PREPARE vote
	// comes back as a failure.
	if _, err := c.FailMachine(c.MachineIDs()[0]); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("commit should fail after participant death")
	}
	if err := tx.Rollback(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("rollback after failed commit = %v, want ErrTxnDone", err)
	}

	st := c.Stats()
	if got := st.Aborted - base.Aborted; got != 1 {
		t.Fatalf("aborted delta = %d, want exactly 1", got)
	}
	s := c.metrics.reg.Snapshot()
	if got := s.Counter("core_2pc_vote_no_total"); got != 1 {
		t.Fatalf("vote-no rounds = %d, want 1", got)
	}
}

// TestCopyMetrics checks that Algorithm 1 phases land in the registry:
// starting and finishing a replica copy records phase transitions and dump
// durations.
func TestCopyMetrics(t *testing.T) {
	c := newMetricsTestCluster(t, 3, 2)
	growReplica(t, c)
	s := c.metrics.reg.Snapshot()
	if got := s.Counter("core_copy_phase_total", "phase", "start"); got != 1 {
		t.Fatalf("copy starts = %d, want 1", got)
	}
	if got := s.Counter("core_copy_phase_total", "phase", "done"); got != 1 {
		t.Fatalf("copy dones = %d, want 1", got)
	}
	if got := s.Counter("core_copy_phase_total", "phase", "table_copied"); got == 0 {
		t.Fatal("no table_copied transitions")
	}
	h, ok := s.Histogram("core_copy_dump_seconds")
	if !ok || h.Count == 0 {
		t.Fatal("no dump durations recorded")
	}
	if got := s.Gauge("core_copies_running"); got != 0 {
		t.Fatalf("copies running gauge = %v after completion, want 0", got)
	}
	if evs := c.metrics.reg.Control().Select(0, "copy", "app"); len(evs) < 3 {
		t.Fatalf("copy control events = %d, want >= 3", len(evs))
	}
}

// growReplica copies "app" onto the first machine not hosting it.
func growReplica(t *testing.T, c *Cluster) {
	t.Helper()
	hosts, err := c.Replicas("app")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range c.MachineIDs() {
		if !contains(hosts, id) {
			if err := c.CreateReplica("app", id); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatal("no free machine for the copy target")
}

// TestCopyEventsOutliveCommitTraffic grows a replica, then runs 10 000
// replicated commits, half of them sampled. The copy's control events, start
// to done, must still be on the control ring: no commit records one, and the
// sampled spans, which wrap their own ring, never evict one.
func TestCopyEventsOutliveCommitTraffic(t *testing.T) {
	c := newMetricsTestCluster(t, 3, 2)
	growReplica(t, c)
	for i := 0; i < 10000; i++ {
		tx, err := c.Begin("app")
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			tx.SetTraceContext(obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewTraceID(), Sampled: true})
		}
		if _, err := tx.Exec("UPDATE t SET v = v + 1 WHERE id = ?", sqldb.NewInt(int64(i%4+1))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if c.metrics.reg.Snapshot().Counter("trace_dropped_total") == 0 {
		t.Fatal("the sampled commits did not wrap the span ring; the test exerts no eviction pressure")
	}
	evs := c.metrics.reg.Control().Select(0, "copy", "app")
	if len(evs) < 3 || evs[0].Name != "start" || evs[len(evs)-1].Name != "done" {
		t.Fatalf("copy events after 10 000 commits = %+v, want start ... done", evs)
	}
}
