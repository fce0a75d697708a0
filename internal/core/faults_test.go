package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"sdp/internal/netsim"
	"sdp/internal/sqldb"
)

// netOpts builds cluster options with a seeded simulated network and fast
// failure handling (tight deadline and backoff so tests stay quick).
func netOpts(seed int64) (Options, *netsim.Network) {
	n := netsim.New(seed, nil)
	return Options{
		Replicas:     2,
		Network:      n,
		CallTimeout:  50 * time.Millisecond,
		RetryLimit:   8,
		RetryBackoff: 100 * time.Microsecond,
	}, n
}

// TestFaultFreeNetworkIsTransparent checks that interposing a perfect
// simulated network changes nothing observable.
func TestFaultFreeNetworkIsTransparent(t *testing.T) {
	opts, _ := netOpts(1)
	c := newTestCluster(t, 2, opts)
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	clusterExec(t, c, "INSERT INTO t VALUES (1, 10)")
	res := clusterExec(t, c, "SELECT n FROM t WHERE id = 1")
	if res.Rows[0][0].Int != 10 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if got := c.Stats().Aborted; got != 0 {
		t.Fatalf("aborted = %d, want 0", got)
	}
}

// TestRetriesMaskLossyLinks runs write transactions over links that drop
// requests and lose replies; the controller's bounded retries plus
// client-level retry of cleanly aborted transactions must land every
// transaction exactly once on both replicas.
func TestRetriesMaskLossyLinks(t *testing.T) {
	opts, n := netOpts(42)
	c := newTestCluster(t, 2, opts)
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")

	n.SetDefaults(netsim.Faults{DropProb: 0.15, ReplyLossProb: 0.1, DupProb: 0.2})
	const rows = 30
	for i := 1; i <= rows; i++ {
		committed := false
		for attempt := 0; attempt < 50 && !committed; attempt++ {
			tx, err := c.Begin("app")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Exec("INSERT INTO t VALUES (?, ?)", intv(int64(i)), intv(int64(i))); err != nil {
				if IsRetryable(err) {
					continue // Exec aborted the transaction
				}
				t.Fatalf("insert %d: %v", i, err)
			}
			err = tx.Commit()
			switch {
			case err == nil:
				committed = true
			case errors.Is(err, sqldb.ErrDuplicateKey):
				// A lost COMMIT reply can leave the client unsure; the row
				// landing proves the earlier attempt committed.
				committed = true
			case IsRetryable(err):
			default:
				t.Fatalf("commit %d: %v", i, err)
			}
		}
		if !committed {
			t.Fatalf("row %d never committed", i)
		}
	}
	n.Quiesce()
	c.DrainResolvers()

	// Both replicas converged on exactly `rows` rows.
	for _, id := range c.MachineIDs() {
		m, _ := c.Machine(id)
		if got := tableCount(t, m, "app", "t"); got != rows {
			t.Errorf("%s: %d rows, want %d", id, got, rows)
		}
		if locks := m.Engine().Stats().LocksHeld; locks != 0 {
			t.Errorf("%s: %d locks held after quiesce, want 0", id, locks)
		}
	}
	if got := c.metrics.netRetry.With("prepare").Value() +
		c.metrics.netRetry.With("commit").Value() +
		c.metrics.netRetry.With("exec").Value(); got == 0 {
		t.Error("no retries recorded under 15% drop rate")
	}
}

// TestPrepareTimeoutPresumedAbort delays one participant's link past the
// coordinator's vote deadline: the transaction must abort by presumed
// abort, release every lock, and leave no trace of its writes.
func TestPrepareTimeoutPresumedAbort(t *testing.T) {
	opts, n := netOpts(7)
	c := newTestCluster(t, 2, opts)
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")

	tx, err := c.Begin("app")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO t VALUES (1, 1)"); err != nil {
		t.Fatal(err)
	}
	// Slow the controller's link to every replica after the writes landed,
	// so the PREPARE deliveries (not the inserts) blow the 50ms deadline.
	for _, id := range c.MachineIDs() {
		n.SetFaults(c.Endpoint(), id, netsim.Faults{Latency: 250 * time.Millisecond})
	}
	err = tx.Commit()
	if !errors.Is(err, ErrPrepareTimeout) {
		t.Fatalf("commit error = %v, want ErrPrepareTimeout", err)
	}
	if !IsRetryable(err) {
		t.Fatal("presumed-abort error should be retryable")
	}
	n.Quiesce()
	c.DrainResolvers()

	if got := c.metrics.twopcTimeout.With("prepare").Value(); got == 0 {
		t.Error("twopc_timeout_total{phase=prepare} = 0")
	}
	if got := c.metrics.presumedAbort.Value(); got != 1 {
		t.Errorf("presumed aborts = %d, want 1", got)
	}
	for _, id := range c.MachineIDs() {
		m, _ := c.Machine(id)
		if locks := m.Engine().Stats().LocksHeld; locks != 0 {
			t.Errorf("%s: %d locks held after presumed abort", id, locks)
		}
		if got := tableCount(t, m, "app", "t"); got != 0 {
			t.Errorf("%s: aborted insert visible (%d rows)", id, got)
		}
	}
	// The cluster serves normally once the links recover.
	clusterExec(t, c, "INSERT INTO t VALUES (2, 2)")
}

// TestCommitDeliveryLostBackgroundResolution faults the participants' links
// once every PREPARE executed: a COMMIT either executes with every reply
// lost, or never arrives. Every case has a COMMIT that executed. Where the
// head acknowledged it the client hears "committed". Where the head's replies
// are lost the answer must come from a log that holds the commit frame: in
// the _logged cases the links heal after the last COMMIT attempt, so the
// coordinator reads the logs and the client hears "committed"; otherwise no
// log can be read and the client hears that the outcome is unknown. Branches
// the coordinator did not reach are settled in the background once the fault
// clears, and the replicas end identical, with no lock held.
func TestCommitDeliveryLostBackgroundResolution(t *testing.T) {
	lost, dropped := netsim.Faults{ReplyLossProb: 1}, netsim.Faults{DropProb: 1}
	for _, tc := range []struct {
		name       string
		heal       bool             // links heal after their last COMMIT attempt
		faults     [2]netsim.Faults // head, second replica
		background bool             // a branch is settled only once the fault clears
		want       error            // what the client hears
	}{
		{"reply_lost", false, [2]netsim.Faults{{}, lost}, true, nil},
		{"request_dropped", false, [2]netsim.Faults{{}, dropped}, true, nil},
		{"both_replies_lost", false, [2]netsim.Faults{lost, lost}, false, ErrOutcomeUnknown},
		{"head_reply_lost_other_dropped", false, [2]netsim.Faults{lost, dropped}, true, ErrOutcomeUnknown},
		{"both_replies_lost_logged", true, [2]netsim.Faults{lost, lost}, false, nil},
		{"head_reply_lost_other_dropped_logged", true, [2]netsim.Faults{lost, dropped}, true, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts, n := netOpts(11)
			opts.RetryLimit = 2 // exhaust in-band retries quickly
			c := newTestCluster(t, 2, opts)
			clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")

			reps, err := c.Replicas("app")
			if err != nil {
				t.Fatal(err)
			}

			tx, err := c.Begin("app")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Exec("INSERT INTO t VALUES (1, 1)"); err != nil {
				t.Fatal(err)
			}
			var prepared atomic.Int32
			var commits [2]atomic.Int32
			n.OnDeliver(func(ci netsim.CallInfo) {
				switch {
				case ci.Op == "prepare" && prepared.Add(1) == 2:
					for i, id := range reps {
						n.SetFaults(c.Endpoint(), id, tc.faults[i])
					}
				case ci.Op == "commit" && tc.heal:
					for i, id := range reps {
						if ci.To == id && commits[i].Add(1) == int32(opts.RetryLimit+1) {
							n.SetFaults(c.Endpoint(), id, netsim.Faults{})
						}
					}
				}
			})
			if err := tx.Commit(); !errors.Is(err, tc.want) {
				t.Fatalf("commit = %v, want %v", err, tc.want)
			}
			if got := c.metrics.twopcTimeout.With("commit").Value(); got == 0 {
				t.Fatal("twopc_timeout_total{phase=commit} = 0, want >= 1")
			}

			n.Quiesce()
			c.DrainResolvers()
			if got := c.metrics.bgResolved.With("delivered").Value(); tc.background && got == 0 {
				t.Error("no background resolution finished")
			}
			for _, id := range reps {
				m, _ := c.Machine(id)
				if got := tableCount(t, m, "app", "t"); got != 1 {
					t.Errorf("%s: %d rows, want 1", id, got)
				}
				if locks := m.Engine().Stats().LocksHeld; locks != 0 {
					t.Errorf("%s: %d locks held, want 0", id, locks)
				}
				if gids := m.Engine().PreparedGIDs(); len(gids) != 0 {
					t.Errorf("%s: prepared branches %v after settle", id, gids)
				}
			}
		})
	}
}

// TestResolverBeforePrepareBindsBranch runs the in-doubt resolver for a
// transaction whose head has prepared while the second replica's PREPARE is
// still on the wire. The resolver claims the head's branch, binds the second
// one though it has not prepared, and decides abort: no participant
// committed. The late PREPARE must then vote no, so the coordinator cannot
// commit the second replica against the verdict, and both end rolled back.
func TestResolverBeforePrepareBindsBranch(t *testing.T) {
	forEachAckMode(t, func(t *testing.T, mode AckMode) {
		opts, n := netOpts(23)
		opts.AckMode = mode
		opts.CallTimeout = time.Second
		c := newTestCluster(t, 2, opts)
		clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
		clusterExec(t, c, "INSERT INTO t VALUES (1, 0)")
		reps, _ := c.Replicas("app")
		head, second := reps[0], reps[1]

		tx, err := c.Begin("app")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec("UPDATE t SET n = 5 WHERE id = 1"); err != nil {
			t.Fatal(err)
		}
		// The second replica's PREPARE sleeps on its link; the link is fast
		// again for the resolver, which runs once the head has prepared.
		n.SetFaults(c.Endpoint(), second, netsim.Faults{Latency: 50 * time.Millisecond})
		var resolved atomic.Bool
		n.OnDeliver(func(ci netsim.CallInfo) {
			if ci.Op == "prepare" && ci.To == head && !resolved.Swap(true) {
				n.SetFaults(c.Endpoint(), second, netsim.Faults{})
				if verdict, err := c.resolve(tx.gid, false); verdict || err != nil {
					t.Errorf("resolve = %v, %v; want abort", verdict, err)
				}
			}
		})
		err = tx.Commit()
		n.ClearHooks()
		if err == nil || !IsRetryable(err) {
			t.Fatalf("commit = %v, want a retryable error", err)
		}
		c.DrainResolvers()
		for _, id := range reps {
			m, _ := c.Machine(id)
			res, err := m.Engine().Exec("app", "SELECT n FROM t WHERE id = 1")
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Rows[0][0].Int; got != 0 {
				t.Errorf("%s: n = %d, want 0", id, got)
			}
			if locks := m.Engine().Stats().LocksHeld; locks != 0 {
				t.Errorf("%s: %d locks held, want 0", id, locks)
			}
			if gids := m.Engine().PreparedGIDs(); len(gids) != 0 {
				t.Errorf("%s: prepared branches %v", id, gids)
			}
		}
	})
}

// TestCommitOutcomeUnknown loses every reply on both links of a
// cluster once every PREPARE executed, and keeps losing them: both COMMITs
// executed, but neither the acknowledgments nor any log can be read. The
// client must hear that the outcome is unknown, not a retryable error — the
// transaction committed — and once the links heal the background resolver
// finds both branches committed.
func TestCommitOutcomeUnknown(t *testing.T) {
	opts, n := netOpts(19)
	opts.RetryLimit = 2
	c := newTestCluster(t, 2, opts)
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	reps, _ := c.Replicas("app")

	tx, err := c.Begin("app")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO t VALUES (1, 1)"); err != nil {
		t.Fatal(err)
	}
	var prepared atomic.Int32
	n.OnDeliver(func(ci netsim.CallInfo) {
		if ci.Op == "prepare" && prepared.Add(1) == 2 {
			for _, id := range reps {
				n.SetFaults(c.Endpoint(), id, netsim.Faults{ReplyLossProb: 1})
			}
		}
	})
	err = tx.Commit()
	if !errors.Is(err, ErrOutcomeUnknown) || IsRetryable(err) {
		t.Fatalf("commit = %v, want a non-retryable ErrOutcomeUnknown", err)
	}
	n.Quiesce()
	c.DrainResolvers()
	for _, id := range reps {
		m, _ := c.Machine(id)
		if got := tableCount(t, m, "app", "t"); got != 1 {
			t.Errorf("%s: %d rows, want 1", id, got)
		}
	}
}

// TestParticipantCrashBetweenPrepareAndCommit crashes a participant in the
// exact window after it acked PREPARE and before the coordinator's COMMIT
// arrives (via a netsim delivery hook). The surviving replica commits; the
// crashed machine restarts with an in-doubt branch that the in-doubt rule
// commits, because the survivor's log holds the commit frame. The restart
// therefore leaves the table's catch-up marks alone: recovery copies
// nothing, and no locks leak anywhere.
func TestParticipantCrashBetweenPrepareAndCommit(t *testing.T) {
	opts, n := netOpts(13)
	c := newTestCluster(t, 2, opts)
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	clusterExec(t, c, "INSERT INTO t VALUES (1, 1)")

	reps, err := c.Replicas("app")
	if err != nil {
		t.Fatal(err)
	}
	victim := reps[1]
	n.OnDeliver(func(ci netsim.CallInfo) {
		if ci.Op == "prepare" && ci.To == victim {
			// Crash-at-phase: the participant prepared (forced to its log)
			// and acked, but dies before COMMIT reaches it.
			if _, ferr := c.FailMachine(victim); ferr != nil {
				t.Errorf("FailMachine: %v", ferr)
			}
		}
	})

	tx, err := c.Begin("app")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO t VALUES (2, 2)"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err) // the survivor acknowledged COMMIT
	}
	n.ClearHooks()

	survivor, _ := c.Machine(reps[0])
	if got := tableCount(t, survivor, "app", "t"); got != 2 {
		t.Fatalf("survivor rows = %d, want 2", got)
	}

	stats, err := c.RestartMachine(victim)
	if err != nil {
		t.Fatal(err)
	}
	if stats.InDoubt == 0 {
		t.Fatal("restart found no in-doubt transaction; crash missed the 2PC window")
	}
	vm, _ := c.Machine(victim)
	if got := tableCount(t, vm, "app", "t"); got != 2 {
		t.Fatalf("restarted branch did not commit: %d rows, want 2", got)
	}
	c.mu.Lock()
	marks := vm.usableMarks("app", c.dbs["app"].epoch)
	c.mu.Unlock()
	if _, ok := marks["t"]; !ok {
		t.Fatalf("restart dirtied t's catch-up mark: %v", marks)
	}
	copied := c.metrics.copyPhase.With("table_copied").Value()
	report := c.RecoverDatabases([]string{"app"}, 1)
	if len(report.Failed) != 0 {
		t.Fatalf("recovery failures: %v", report.Failed)
	}
	if got := c.metrics.copyPhase.With("table_copied").Value() - copied; got != 0 {
		t.Errorf("recovery copied %d tables, want 0", got)
	}
	c.DrainResolvers()

	for _, m := range []*Machine{survivor, vm} {
		if got := tableCount(t, m, "app", "t"); got != 2 {
			t.Errorf("%s rows = %d, want 2", m.ID(), got)
		}
		if locks := m.Engine().Stats().LocksHeld; locks != 0 {
			t.Errorf("%s: %d locks held after recovery, want 0", m.ID(), locks)
		}
	}
}

// TestResolverReadsFailedParticipantLog commits on the head replica and
// crashes it before its reply leaves, while every COMMIT to the second
// replica is dropped: the only commit frame is in a failed machine's log.
// No log can be read while the faults last, so the client hears that the
// outcome is unknown; once the links heal the background resolver must read
// the failed head's log in place and commit the second replica's branch, and
// after the head restarts both replicas hold the row.
func TestResolverReadsFailedParticipantLog(t *testing.T) {
	opts, n := netOpts(29)
	opts.RetryLimit = 2
	c := newTestCluster(t, 2, opts)
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	reps, _ := c.Replicas("app")
	head, other := reps[0], reps[1]

	var prepared, crashed atomic.Int32
	n.OnDeliver(func(ci netsim.CallInfo) {
		switch {
		case ci.Op == "prepare" && prepared.Add(1) == 2:
			n.SetFaults(c.Endpoint(), head, netsim.Faults{ReplyLossProb: 1})
			n.SetFaults(c.Endpoint(), other, netsim.Faults{DropProb: 1})
		case ci.Op == "commit" && ci.To == head && crashed.Add(1) == 1:
			// The head's commit frame is forced; its reply is lost.
			if _, err := c.FailMachine(head); err != nil {
				t.Errorf("FailMachine: %v", err)
			}
		}
	})
	tx, err := c.Begin("app")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO t VALUES (1, 1)"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrOutcomeUnknown) {
		t.Fatalf("commit = %v, want ErrOutcomeUnknown", err)
	}
	n.Quiesce()
	c.DrainResolvers()
	om, _ := c.Machine(other)
	if got := tableCount(t, om, "app", "t"); got != 1 {
		t.Fatalf("%s: %d rows, want 1: the resolver did not find the failed head's commit frame", other, got)
	}
	if _, err := c.RestartMachine(head); err != nil {
		t.Fatal(err)
	}
	if report := c.RecoverDatabases([]string{"app"}, 1); len(report.Failed) != 0 {
		t.Fatalf("recovery failures: %v", report.Failed)
	}
	c.DrainResolvers()
	for _, id := range reps {
		m, _ := c.Machine(id)
		if got := tableCount(t, m, "app", "t"); got != 1 {
			t.Errorf("%s: %d rows, want 1", id, got)
		}
		if gids := m.Engine().PreparedGIDs(); len(gids) != 0 {
			t.Errorf("%s: prepared branches %v", id, gids)
		}
	}
}

// TestCommitWithoutAcknowledgedCommitFails fails both machines of a
// two-replica cluster once every participant acknowledged PREPARE, so no
// COMMIT can land: the client must hear a retryable error rather than
// "committed", and both restarted branches abort, since no participant's log
// holds a commit frame.
func TestCommitWithoutAcknowledgedCommitFails(t *testing.T) {
	opts, n := netOpts(17)
	c := newTestCluster(t, 2, opts)
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	clusterExec(t, c, "INSERT INTO t VALUES (1, 1)")

	ids := c.MachineIDs()
	var prepared atomic.Int32
	n.OnDeliver(func(ci netsim.CallInfo) {
		if ci.Op == "prepare" && prepared.Add(1) == int32(len(ids)) {
			for _, id := range ids {
				if _, err := c.FailMachine(id); err != nil {
					t.Errorf("FailMachine %s: %v", id, err)
				}
			}
		}
	})
	tx, err := c.Begin("app")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO t VALUES (2, 2)"); err != nil {
		t.Fatal(err)
	}
	err = tx.Commit()
	n.ClearHooks()
	if err == nil || !IsRetryable(err) {
		t.Fatalf("commit with no COMMIT delivered = %v, want a retryable error", err)
	}

	for _, id := range ids {
		stats, err := c.RestartMachine(id)
		if err != nil {
			t.Fatal(err)
		}
		if stats.InDoubt != 1 {
			t.Fatalf("%s: InDoubt = %d, want 1", id, stats.InDoubt)
		}
	}
	c.DrainResolvers()
	for _, id := range ids {
		m, _ := c.Machine(id)
		if got := tableCount(t, m, "app", "t"); got != 1 {
			t.Errorf("%s: %d rows, want 1 (the branch aborts)", id, got)
		}
		if gids := m.Engine().PreparedGIDs(); len(gids) != 0 {
			t.Errorf("%s: prepared branches %v after restart", id, gids)
		}
	}
}

// TestReadDegradationRoutesAroundPartition partitions the controller's link
// to the read home of an Option 1 database: reads must degrade to the other
// replica (counted), keep the home assignment, and return to the home once
// the partition heals.
func TestReadDegradationRoutesAroundPartition(t *testing.T) {
	opts, n := netOpts(3)
	opts.ReadOption = ReadOption1
	c := newTestCluster(t, 2, opts)
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	clusterExec(t, c, "INSERT INTO t VALUES (1, 42)")

	c.mu.Lock()
	home := c.dbs["app"].readHome
	c.mu.Unlock()

	n.Partition(c.Endpoint(), home)
	if h := c.Health(); h.DegradedLinks != 1 {
		t.Fatalf("DegradedLinks = %d, want 1", h.DegradedLinks)
	}
	for i := 0; i < 5; i++ {
		res := clusterExec(t, c, "SELECT n FROM t WHERE id = 1")
		if res.Rows[0][0].Int != 42 {
			t.Fatalf("degraded read %d: %v", i, res.Rows)
		}
	}
	if got := c.metrics.readDegraded.Value(); got != 5 {
		t.Errorf("degraded reads = %d, want 5", got)
	}

	n.Heal(c.Endpoint(), home)
	if h := c.Health(); h.DegradedLinks != 0 {
		t.Fatalf("DegradedLinks after heal = %d, want 0", h.DegradedLinks)
	}
	clusterExec(t, c, "SELECT n FROM t WHERE id = 1")
	c.mu.Lock()
	stillHome := c.dbs["app"].readHome
	c.mu.Unlock()
	if stillHome != home {
		t.Errorf("read home reassigned to %s during partition, want %s kept", stillHome, home)
	}
	if got := c.metrics.readDegraded.Value(); got != 5 {
		t.Errorf("healed read still counted degraded (total %d)", got)
	}
}

// TestAllReplicasUnreachable partitions every controller→replica link: reads
// must fail with ErrUnreachable (retryable) rather than hang or panic, and
// service must resume after healing.
func TestAllReplicasUnreachable(t *testing.T) {
	opts, n := netOpts(5)
	c := newTestCluster(t, 2, opts)
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	clusterExec(t, c, "INSERT INTO t VALUES (1, 1)")

	for _, id := range c.MachineIDs() {
		n.Partition(c.Endpoint(), id)
	}
	_, err := c.Exec("app", "SELECT n FROM t WHERE id = 1")
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("read error = %v, want ErrUnreachable", err)
	}
	if !IsRetryable(err) {
		t.Fatal("ErrUnreachable should be retryable")
	}
	n.HealAll()
	clusterExec(t, c, "SELECT n FROM t WHERE id = 1")
}

// TestCopyAbortedWhenTargetFails starts an Algorithm 1 copy whose target is
// failed mid-copy: CreateReplica must abort (not register a half-copied
// replica), and the replica set must stay clean.
func TestCopyAbortedWhenTargetFails(t *testing.T) {
	opts, n := netOpts(9)
	c := newTestCluster(t, 3, opts)
	clusterExec(t, c, "CREATE TABLE a (id INT PRIMARY KEY, n INT)")
	clusterExec(t, c, "CREATE TABLE b (id INT PRIMARY KEY, n INT)")
	for i := 1; i <= 50; i++ {
		clusterExec(t, c, "INSERT INTO a VALUES (?, ?)", intv(int64(i)), intv(int64(i)))
		clusterExec(t, c, "INSERT INTO b VALUES (?, ?)", intv(int64(i)), intv(int64(i)))
	}
	reps, err := c.Replicas("app")
	if err != nil {
		t.Fatal(err)
	}
	var target string
	for _, id := range c.MachineIDs() {
		if !contains(reps, id) {
			target = id
		}
	}

	// Fail the target the moment the first table lands on it.
	n.OnDeliver(func(ci netsim.CallInfo) {
		if ci.Op == "copy_apply" && ci.To == target {
			tm, _ := c.Machine(target)
			if !tm.Failed() {
				if _, ferr := c.FailMachine(target); ferr != nil {
					t.Errorf("FailMachine: %v", ferr)
				}
			}
		}
	})
	err = c.CreateReplica("app", target)
	if err == nil {
		t.Fatal("CreateReplica succeeded with a failed target")
	}
	n.ClearHooks()

	after, err := c.Replicas("app")
	if err != nil {
		t.Fatal(err)
	}
	if contains(after, target) {
		t.Fatalf("failed target %s registered as replica: %v", target, after)
	}
	if len(after) != 2 {
		t.Fatalf("replicas after aborted copy = %v", after)
	}
	// Writes flow again (no stale in-flight rejection).
	clusterExec(t, c, "INSERT INTO a VALUES (51, 51)")
}
