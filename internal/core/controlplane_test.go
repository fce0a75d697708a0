package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdp/internal/consensus"
	"sdp/internal/netsim"
	"sdp/internal/sqldb"
)

// ctlOpts builds cluster options with a 3-replica control plane and fast
// consensus timeouts so failovers complete in tens of milliseconds.
func ctlOpts() Options {
	return Options{
		Replicas:                  2,
		Controllers:               3,
		ControllerSeed:            1,
		ControllerElectionTimeout: 20 * time.Millisecond,
	}
}

// stopControllers stops every controller replica of c. Replicas tick until
// stopped; left running they starve the leases of the clusters a repeated
// (-count) run builds later.
func stopControllers(c *Cluster) {
	for _, n := range c.ctl.nodes {
		n.Stop()
	}
}

// execRetry runs one autocommit statement, retrying through controller
// failovers (ErrNotLeader while leaderless, or a COMMIT withheld because the
// lease lapsed) and other transient aborts. A CREATE TABLE that a retry finds
// done landed in the failed attempt: DDL takes effect at once.
func execRetry(t *testing.T, c *Cluster, db, sql string, params ...sqldb.Value) *sqldb.Result {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for retried := false; ; retried = true {
		res, err := c.Exec(db, sql, params...)
		if err == nil || (retried && errors.Is(err, sqldb.ErrTableExists)) {
			return res
		}
		if !IsRetryable(err) || time.Now().After(deadline) {
			t.Fatalf("Exec(%q): %v", sql, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestControlPlaneReplicatesPlacement(t *testing.T) {
	c := newTestCluster(t, 3, ctlOpts())
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	clusterExec(t, c, "INSERT INTO t VALUES (1, 10)")

	st := c.ControllerStatus()
	if len(st) != 3 {
		t.Fatalf("controller status = %v", st)
	}
	leaders := 0
	for _, s := range st {
		if s.Leader {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("leaders = %d, want 1: %v", leaders, st)
	}
	h := c.Health()
	if h.Controllers != 3 || !h.ControllerQuorum || h.ControllerLeader == "" {
		t.Fatalf("health = %+v", h)
	}

	if err := c.WaitControllerConvergence(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	fps := controllerFingerprints(c)
	if len(fps) != 3 {
		t.Fatalf("fingerprints = %v", fps)
	}
	var want string
	for id, fp := range fps {
		if !strings.Contains(fp, "db=app{") {
			t.Errorf("%s fingerprint lacks db record: %s", id, fp)
		}
		if want == "" {
			want = fp
		} else if fp != want {
			t.Errorf("%s fingerprint diverges: %s vs %s", id, fp, want)
		}
	}
}

func TestControllerFailoverResumesCommits(t *testing.T) {
	c := newTestCluster(t, 3, ctlOpts())
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	clusterExec(t, c, "INSERT INTO t VALUES (1, 10)")

	oldLeader, oldTerm := c.LeaderController()
	killed, err := c.KillLeaderController()
	if err != nil {
		t.Fatal(err)
	}
	if killed != oldLeader {
		t.Fatalf("killed %s, leader was %s", killed, oldLeader)
	}

	// The cluster must resume commits on its own: the survivors elect a new
	// leader, its takeover reconciles state, and the data path reopens.
	execRetry(t, c, "app", "INSERT INTO t VALUES (2, 20)")

	newLeader, newTerm := c.LeaderController()
	if newLeader == "" || newLeader == oldLeader || newTerm <= oldTerm {
		t.Fatalf("leader %s term %d after killing %s term %d", newLeader, newTerm, oldLeader, oldTerm)
	}
	if err := c.WaitControllerConvergence(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Control mutations work in the new term and the dead replica catches
	// up on restart.
	if err := c.CreateDatabase("app2"); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartController(killed); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitControllerConvergence(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	fps := controllerFingerprints(c)
	if len(fps) != 3 {
		t.Fatalf("fingerprints after restart = %v", fps)
	}
	if !strings.Contains(fps[killed], "db=app2{") {
		t.Errorf("restarted replica missing app2: %s", fps[killed])
	}
}

// forEachAckMode runs body as one subtest per acknowledgement mode.
func forEachAckMode(t *testing.T, body func(t *testing.T, mode AckMode)) {
	for _, mode := range []AckMode{Conservative, Aggressive} {
		t.Run(mode.String(), func(t *testing.T) { body(t, mode) })
	}
}

// failoverCluster builds three machines under a 3-replica control plane and a
// simulated network, with t holding (1, 0) on two replicas. Its leases are
// longer than ctlOpts' so a busy box does not lapse one mid-commit.
func failoverCluster(t *testing.T, mode AckMode) (*Cluster, *netsim.Network, []*Machine) {
	t.Helper()
	n := netsim.New(1, nil)
	opts := ctlOpts()
	opts.AckMode = mode
	opts.Network = n
	opts.CallTimeout = 500 * time.Millisecond
	opts.ControllerElectionTimeout = 100 * time.Millisecond
	c := newTestCluster(t, 3, opts)
	execRetry(t, c, "app", "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	execRetry(t, c, "app", "INSERT INTO t VALUES (1, 0)")
	ids, _ := c.Replicas("app")
	reps := make([]*Machine, len(ids))
	for i, id := range ids {
		reps[i], _ = c.Machine(id)
	}
	return c, n, reps
}

// settleAndCheck waits out the failover and every background resolution,
// then requires each replica to hold v for row 1, no lock and no prepared
// branch.
func settleAndCheck(t *testing.T, c *Cluster, reps []*Machine, v int64) {
	t.Helper()
	if err := c.WaitControllerSettled(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.DrainResolvers()
	for _, m := range reps {
		if gids := m.Engine().PreparedGIDs(); len(gids) != 0 {
			t.Errorf("%s: prepared branches %v after settle", m.ID(), gids)
		}
		if locks := m.Engine().Stats().LocksHeld; locks != 0 {
			t.Errorf("%s: %d locks held, want 0", m.ID(), locks)
		}
		res, err := m.Engine().Exec("app", "SELECT v FROM t WHERE id = 1")
		if err != nil {
			t.Fatalf("%s: %v", m.ID(), err)
		}
		if got := res.Rows[0][0].Int; got != v {
			t.Errorf("%s: v = %d, want %d", m.ID(), got, v)
		}
	}
}

// TestControllerKillInPrepareWindow kills the controller leader, from a
// delivery hook, once every participant has acknowledged PREPARE and before
// any COMMIT: the coordinator finds its lease gone and sends no COMMIT, the
// client hears a retryable error, and the in-doubt rule aborts every branch.
func TestControllerKillInPrepareWindow(t *testing.T) {
	forEachAckMode(t, func(t *testing.T, mode AckMode) {
		c, n, reps := failoverCluster(t, mode)
		var prepared atomic.Int32
		n.OnDeliver(func(ci netsim.CallInfo) {
			if ci.Op == "prepare" && prepared.Add(1) == int32(len(reps)) {
				if _, err := c.KillLeaderController(); err != nil {
					t.Errorf("KillLeaderController: %v", err)
				}
			}
		})
		tx, err := c.Begin("app")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec("UPDATE t SET v = 9 WHERE id = 1"); err != nil {
			t.Fatal(err)
		}
		err = tx.Commit()
		n.ClearHooks()
		if err == nil || !IsRetryable(err) {
			t.Fatalf("commit = %v, want a retryable error", err)
		}
		settleAndCheck(t, c, reps, 0)
	})
}

// TestControllerKillAfterCommitDecision kills the leader, from a delivery
// hook, right after the first COMMIT executed: the client hears "committed",
// and every branch the dead coordinator did not reach commits, because the
// first participant's log holds the commit frame.
func TestControllerKillAfterCommitDecision(t *testing.T) {
	forEachAckMode(t, func(t *testing.T, mode AckMode) {
		c, n, reps := failoverCluster(t, mode)
		var once sync.Once
		n.OnDeliver(func(ci netsim.CallInfo) {
			if ci.Op == "commit" {
				once.Do(func() {
					if _, err := c.KillLeaderController(); err != nil {
						t.Errorf("KillLeaderController: %v", err)
					}
				})
			}
		})
		tx, err := c.Begin("app")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec("UPDATE t SET v = 7 WHERE id = 1"); err != nil {
			t.Fatal(err)
		}
		err = tx.Commit()
		n.ClearHooks()
		if err != nil {
			t.Fatalf("commit after an acknowledged COMMIT = %v, want nil", err)
		}
		settleAndCheck(t, c, reps, 7)
	})
}

// TestClaimBetweenLeaseCheckAndCommit lands a resolver's claim on the second
// replica's branch after its COMMIT passed the lease check and while the
// COMMIT is still on the wire: the branch refuses it, and the resolver, which
// sees the head's acknowledged commit, commits it instead. Both replicas end
// committed.
func TestClaimBetweenLeaseCheckAndCommit(t *testing.T) {
	forEachAckMode(t, func(t *testing.T, mode AckMode) {
		c, n, reps := failoverCluster(t, mode)
		head, second := reps[0], reps[1]
		tx, err := c.Begin("app")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec("UPDATE t SET v = 7 WHERE id = 1"); err != nil {
			t.Fatal(err)
		}
		// The second replica's COMMIT sleeps on the link after its lease
		// check; the head's executes at once, and its delivery hook claims
		// the second branch meanwhile.
		n.SetFaults(c.Endpoint(), second.ID(), netsim.Faults{Latency: 50 * time.Millisecond})
		var claimed atomic.Bool
		n.OnDeliver(func(ci netsim.CallInfo) {
			if ci.Op == "commit" && ci.To == head.ID() && !claimed.Load() {
				claimed.Store(second.Engine().ClaimPrepared(tx.gid))
			}
		})
		err = tx.Commit()
		n.Quiesce()
		if err != nil {
			t.Fatalf("commit = %v, want nil (the head acknowledged)", err)
		}
		if !claimed.Load() {
			t.Fatal("the second branch was not prepared when the head committed")
		}
		settleAndCheck(t, c, reps, 7)
		resolved := false
		for _, ev := range c.metrics.reg.Control().Select(0, "2pc", gidString(tx.gid)) {
			resolved = resolved || ev.Name == "resolve_commit"
		}
		if !resolved {
			t.Error("no resolver committed the claimed branch")
		}
	})
}

// midCopyCluster builds a 3-machine cluster over a simulated network with a
// 50-row table on two replicas, and arranges for onApply to run once, on the
// copy's goroutine, when the first table image reaches the copy's target. It
// returns the cluster and the machine that holds no replica yet.
func midCopyCluster(t *testing.T, onApply func(c *Cluster)) (c *Cluster, target string) {
	t.Helper()
	net := netsim.New(7, nil)
	opts := ctlOpts()
	opts.Network = net
	opts.CallTimeout = 100 * time.Millisecond
	c = newTestCluster(t, 3, opts)
	// execRetry: on a starved box the 20 ms quorum lease can lapse mid-load.
	execRetry(t, c, "app", "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	for i := 1; i <= 50; i++ {
		execRetry(t, c, "app", "INSERT INTO t VALUES (?, ?)", intv(int64(i)), intv(int64(i)))
	}
	reps, _ := c.Replicas("app")
	for _, id := range liveMachineIDs(c) {
		if !contains(reps, id) {
			target = id
		}
	}
	var once sync.Once
	net.OnDeliver(func(ci netsim.CallInfo) {
		if ci.Op == "copy_apply" {
			once.Do(func() { onApply(c) })
		}
	})
	return c, target
}

// TestControllerKillMidCopyAborts kills the leader while an Algorithm 1 copy
// is streaming tables: the copy must abort without registering the
// half-copied replica, the replicated copy record must clear, and a retry
// after recovery must succeed.
func TestControllerKillMidCopyAborts(t *testing.T) {
	c, target := midCopyCluster(t, func(c *Cluster) {
		if _, err := c.KillLeaderController(); err != nil {
			t.Errorf("KillLeaderController: %v", err)
		}
	})

	if err := c.CreateReplica("app", target); !errors.Is(err, ErrCopyAborted) {
		t.Fatalf("CreateReplica = %v, want ErrCopyAborted", err)
	}
	reps, _ := c.Replicas("app")
	if len(reps) != 2 || contains(reps, target) {
		t.Fatalf("replicas = %v after aborted copy", reps)
	}
	if err := c.WaitControllerConvergence(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	for id, fp := range controllerFingerprints(c) {
		if strings.Contains(fp, "copy=") {
			t.Errorf("%s still records a copy in flight: %s", id, fp)
		}
	}

	// The copy is retryable once the control plane recovered.
	if err := c.CreateReplica("app", target); err != nil {
		t.Fatalf("retry CreateReplica: %v", err)
	}
	if reps, _ = c.Replicas("app"); len(reps) != 3 {
		t.Fatalf("replicas = %v after retry", reps)
	}
	if err := c.WaitControllerConvergence(2 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestElectoralLeaderChangeMidCopyCompletes moves the controller leadership
// while an Algorithm 1 copy is streaming tables, without killing anything: a
// follower campaigns, the old leader steps down alive, and the new leader's
// adoption runs to the end while the copy is held at its first table. The
// copy's goroutine is still driving it, so it must complete and register the
// replica on every controller — the bootstrap election racing a first
// CreateReplica is the same case.
func TestElectoralLeaderChangeMidCopyCompletes(t *testing.T) {
	c, target := midCopyCluster(t, func(c *Cluster) {
		_, oldTerm := c.LeaderController()
		deadline := time.Now().Add(2 * time.Second)
		for term := oldTerm; term <= oldTerm; _, term = c.LeaderController() {
			if time.Now().After(deadline) {
				t.Errorf("no leader change within 2s of term %d", oldTerm)
				return
			}
			for _, n := range c.ctl.nodes {
				if !n.IsLeader() && n.Campaign() {
					break
				}
			}
		}
		if err := c.WaitControllerSettled(2 * time.Second); err != nil {
			t.Error(err)
		}
	})

	if err := c.CreateReplica("app", target); err != nil {
		t.Fatalf("CreateReplica across an electoral leader change: %v", err)
	}
	reps, _ := c.Replicas("app")
	if len(reps) != 3 || !contains(reps, target) {
		t.Fatalf("replicas = %v, want %s registered", reps, target)
	}
	if err := c.WaitControllerConvergence(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	for id, fp := range controllerFingerprints(c) {
		if strings.Contains(fp, "copy=") || !strings.Contains(fp, "replicas="+strings.Join(reps, ",")+",") {
			t.Errorf("%s does not record %s as a full replica: %s", id, target, fp)
		}
	}
}

// TestControllerQuorumLoss kills a majority of controller replicas: the data
// path must refuse new transactions once the lease lapses, control mutations
// must fail with ErrNoQuorum, and restarting the replicas must restore full
// service without manual reconciliation.
func TestControllerQuorumLoss(t *testing.T) {
	c := newTestCluster(t, 2, ctlOpts())
	c.ctl.deadline = 300 * time.Millisecond
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")

	first, err := c.KillLeaderController()
	if err != nil {
		t.Fatal(err)
	}
	// Wait out the failover, then kill the successor too.
	execRetry(t, c, "app", "INSERT INTO t VALUES (1, 1)")
	second, err := c.KillLeaderController()
	if err != nil {
		t.Fatal(err)
	}

	// One of three replicas remains: no election can succeed, the lease
	// expires, and the survivor refuses both data and control traffic.
	time.Sleep(4 * 20 * time.Millisecond)
	if _, err := c.Begin("app"); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("Begin = %v, want ErrNotLeader", err)
	}
	if err := c.CreateDatabase("app2"); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("CreateDatabase = %v, want ErrNoQuorum", err)
	}
	if h := c.Health(); h.ControllerQuorum {
		t.Fatalf("health claims quorum: %+v", h)
	}

	c.RestartControllers()
	execRetry(t, c, "app", "INSERT INTO t VALUES (2, 2)")
	if err := c.CreateDatabase("app2"); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitControllerConvergence(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if h := c.Health(); !h.ControllerQuorum || h.Controllers != 3 {
		t.Fatalf("health after recovery: %+v", h)
	}
	_ = first
	_ = second
}

// TestFailMachineReplicated checks that machine failure and recovery flow
// through the replicated log: every controller replica's state machine
// agrees on liveness and placement afterwards.
func TestFailMachineReplicated(t *testing.T) {
	opts := ctlOpts()
	c := newTestCluster(t, 3, opts)
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	clusterExec(t, c, "INSERT INTO t VALUES (1, 1)")

	reps, _ := c.Replicas("app")
	victim := reps[1]
	affected, err := c.FailMachine(victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(affected) != 1 || affected[0] != "app" {
		t.Fatalf("affected = %v", affected)
	}
	if err := c.WaitControllerConvergence(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	for id, fp := range controllerFingerprints(c) {
		if !strings.Contains(fp, "failed="+victim) {
			t.Errorf("%s does not record %s failed: %s", id, victim, fp)
		}
	}

	if _, err := c.RestartMachine(victim); err != nil {
		t.Fatal(err)
	}
	rep := c.RecoverDatabases(affected, 1)
	if len(rep.Failed) != 0 {
		t.Fatalf("recovery failed: %v", rep.Failed)
	}
	if err := c.WaitControllerConvergence(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	for id, fp := range controllerFingerprints(c) {
		if strings.Contains(fp, "failed="+victim) {
			t.Errorf("%s still records %s failed: %s", id, victim, fp)
		}
		if !strings.Contains(fp, "db=app{") {
			t.Errorf("%s lost the db record: %s", id, fp)
		}
	}
	if reps, _ = c.Replicas("app"); len(reps) != 2 {
		t.Fatalf("replicas = %v after recovery", reps)
	}
}

// controllerFingerprints returns each live controller replica's state
// machine fingerprint, keyed by replica id. Converged replicas — same
// committed prefix applied — have identical fingerprints.
func controllerFingerprints(c *Cluster) map[string]string {
	out := make(map[string]string)
	for i, n := range c.ctl.nodes {
		if !n.Stopped() {
			out[n.ID()] = c.ctl.states[i].Fingerprint()
		}
	}
	return out
}

// liveMachineIDs lists the IDs of machines that have not failed.
func liveMachineIDs(c *Cluster) []string {
	var out []string
	for _, id := range c.MachineIDs() {
		if m, _ := c.Machine(id); !m.Failed() {
			out = append(out, id)
		}
	}
	return out
}

// TestControllerRejoinsFromSnapshot keeps a follower down across more control
// operations than the consensus log retains (SnapshotThreshold = 256), so it
// can only rejoin through ctlState's snapshot codec: the leader compacts with
// Snapshot, ships the image, and the follower's Restore must rebuild every
// field the fingerprint reads — machines, the failed set, both sequence
// counters, and per database the replicas, epoch and an open copy record.
func TestControllerRejoinsFromSnapshot(t *testing.T) {
	opts := ctlOpts()
	c := newTestCluster(t, 4, opts)
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY)")
	leader, _ := c.LeaderController()
	var follower *consensus.Node
	for _, n := range c.ctl.nodes {
		if n.ID() != leader {
			follower = n
			break
		}
	}
	follower.Stop()
	snapshots := c.metrics.reg.Counter("consensus_snapshots_total", "")
	before := snapshots.Value()

	reps, _ := c.Replicas("app")
	var spare []string
	for _, id := range c.MachineIDs() {
		if !contains(reps, id) {
			spare = append(spare, id)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ { // 8 control operations a round
		scratch := fmt.Sprintf("scratch%d", i)
		must(c.CreateDatabase(scratch))
		must(c.DropDatabase(scratch))
		must(c.GrowReplica("app", spare[0])) // copy_begin, copy_complete
		must(c.ShrinkReplica("app", spare[0]))
		_, err := c.FailMachine(spare[1])
		must(err)
		_, err = c.RestartMachine(spare[1])
		must(err)
	}
	// Leave something in every field: a second database, a failed machine
	// (which may move that database's head), an open copy record.
	must(c.CreateDatabase("kept"))
	_, err := c.FailMachine(spare[1])
	must(err)
	kept, _ := c.Replicas("kept")
	c.ctl.mu.Lock()
	_, err = c.ctl.propose(ctlCmd{Op: ctlOpCopyBegin, DB: "app", Source: reps[0], Target: spare[0]})
	c.ctl.mu.Unlock()
	must(err)
	if snapshots.Value() == before {
		t.Fatalf("no snapshot taken after 320+ control operations")
	}

	follower.Restart()
	deadline := time.Now().Add(5 * time.Second)
	for {
		fps := controllerFingerprints(c)
		want := fps[leader]
		if got := fps[follower.ID()]; got == want {
			for _, field := range []string{"failed=" + spare[1], "db=kept{replicas=" + strings.Join(kept, ","), "copy=" + reps[0] + "->" + spare[0]} {
				if !strings.Contains(got, field) {
					t.Errorf("fingerprint lacks %q: %s", field, got)
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower did not converge:\n follower %s\n leader   %s", fps[follower.ID()], want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
