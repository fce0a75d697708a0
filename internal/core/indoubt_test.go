package core

import (
	"slices"
	"sync/atomic"
	"testing"

	"sdp/internal/netsim"
	"sdp/internal/sqldb"
)

// prepareAbandoned begins a transaction that updates row id on every
// replica and prepares it everywhere, then abandons it: its coordinator
// "dies" before COMMIT, leaving a prepared branch on each replica.
func prepareAbandoned(t *testing.T, c *Cluster, id int64) *Txn {
	t.Helper()
	tx, err := c.Begin("app")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("UPDATE t SET n = n + 1 WHERE id = ?", sqldb.NewInt(id)); err != nil {
		t.Fatal(err)
	}
	for _, r := range tx.fanOut(tx.sessions, (*replicaSession).prepare, vote) {
		if r.err != nil {
			t.Fatalf("prepare: %v", r.err)
		}
	}
	return tx
}

// TestSweepReadsEachLogOnce settles G in-doubt transactions on a
// 3-machine cluster in one failover sweep: it claims them all first, then
// reads each machine's log once for all of them, so M machines take M
// lookups, not G×M. None committed, so every branch aborts.
func TestSweepReadsEachLogOnce(t *testing.T) {
	const g, m = 5, 3
	opts, n := netOpts(31)
	c := newTestCluster(t, m, opts)
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	for id := int64(1); id <= g; id++ {
		clusterExec(t, c, "INSERT INTO t VALUES (?, 0)", sqldb.NewInt(id))
	}
	for id := int64(1); id <= g; id++ {
		prepareAbandoned(t, c, id)
	}
	var lookups, claims atomic.Int32
	n.OnDeliver(func(ci netsim.CallInfo) {
		switch ci.Op {
		case "lookup":
			lookups.Add(1)
		case "claim":
			claims.Add(1)
		}
	})
	c.resolveAll(c.gidSeq.Load())
	n.ClearHooks()
	if got := lookups.Load(); got != m {
		t.Errorf("%d log lookups settling %d gids on %d machines, want %d", got, g, m, m)
	}
	if got := claims.Load(); got != m {
		t.Errorf("%d claim calls, want %d", got, m)
	}
	for _, id := range c.MachineIDs() {
		mc, _ := c.Machine(id)
		if gids := mc.Engine().PreparedGIDs(); len(gids) != 0 {
			t.Errorf("%s: prepared branches %v after the sweep", id, gids)
		}
		if locks := mc.Engine().Stats().LocksHeld; locks != 0 {
			t.Errorf("%s: %d locks held after the sweep", id, locks)
		}
	}
}

// TestResolveSetDecidesEachGid settles three in-doubt gids in one
// resolution after the head failed. The middle one's COMMIT reached only the
// head, so its commit frame is only in the failed head's log; the others
// have none. The resolution reads the failed head's log too: the middle gid
// commits on the live replica and the others abort.
func TestResolveSetDecidesEachGid(t *testing.T) {
	opts, _ := netOpts(41)
	c := newTestCluster(t, 2, opts)
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	var gids []uint64
	var txs []*Txn
	for id := int64(1); id <= 3; id++ {
		clusterExec(t, c, "INSERT INTO t VALUES (?, 0)", sqldb.NewInt(id))
	}
	for id := int64(1); id <= 3; id++ {
		tx := prepareAbandoned(t, c, id)
		txs, gids = append(txs, tx), append(gids, tx.gid)
	}
	head, other := txs[1].sessions[0].machine, txs[1].sessions[1].machine
	if r := txs[1].sessions[0].do((*replicaSession).commitPrepared); r.err != nil {
		t.Fatalf("the head's COMMIT: %v", r.err)
	}
	if _, err := c.FailMachine(head.ID()); err != nil {
		t.Fatal(err)
	}
	known := make([]bool, len(gids))
	if err := c.resolveSet(gids, known); err != nil {
		t.Fatalf("resolveSet: %v", err)
	}
	if want := []bool{false, true, false}; !slices.Equal(known, want) {
		t.Errorf("verdicts %v, want %v (committed)", known, want)
	}
	for id, want := range []int64{0, 1, 0} {
		res, err := other.Engine().Exec("app", "SELECT n FROM t WHERE id = ?", sqldb.NewInt(int64(id+1)))
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int != want {
			t.Errorf("%s: row %d reads %v, %v; want n = %d", other.ID(), id+1, res, err, want)
		}
	}
	if gids := other.Engine().PreparedGIDs(); len(gids) != 0 {
		t.Errorf("%s: prepared branches %v after the resolution", other.ID(), gids)
	}
	if locks := other.Engine().Stats().LocksHeld; locks != 0 {
		t.Errorf("%s: %d locks held after the resolution", other.ID(), locks)
	}
}

// TestDeadCoordinatorLeavesPreparedBranch replays the explorer's shortest
// liveness counterexample (twopc's TestExploreDeadCoordinator) on a
// cluster: the coordinator sends the head's PREPARE and dies; the new
// leader's sweep lists the head while the branch is still active; the
// PREPARE lands; the sweep lists the other replica, active too, and finds
// nothing to settle. The head's branch stays prepared with nobody to settle
// it — ROADMAP item 3's dead-coordinator edge, pinned here until a
// participant-side timeout closes it. The in-doubt rule, once run, aborts
// it.
func TestDeadCoordinatorLeavesPreparedBranch(t *testing.T) {
	opts, n := netOpts(37)
	c := newTestCluster(t, 2, opts)
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	clusterExec(t, c, "INSERT INTO t VALUES (1, 0)")
	tx, err := c.Begin("app")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("UPDATE t SET n = 5 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	head := tx.sessions[0]
	// 1. the head's PREPARE is sent; 2. the coordinator dies (it never
	// runs again) and the sweep starts; 3. the sweep lists the head; 4. the
	// PREPARE lands; 5. the sweep lists the other replica.
	var landed atomic.Bool
	n.OnDeliver(func(ci netsim.CallInfo) {
		if ci.Op == "prepared" && ci.To == head.machine.ID() && !landed.Swap(true) {
			if r := head.do((*replicaSession).prepare); r.err != nil {
				t.Errorf("the head's PREPARE: %v", r.err)
			}
		}
	})
	c.resolveAll(tx.gid)
	n.ClearHooks()
	c.DrainResolvers()
	if !landed.Load() {
		t.Fatal("the sweep never listed the head")
	}
	if gids := head.machine.Engine().PreparedGIDs(); len(gids) != 1 || gids[0] != tx.gid {
		t.Fatalf("head: prepared branches %v, want [%d] left unsettled", gids, tx.gid)
	}

	if verdict, err := c.resolve(tx.gid, false); verdict || err != nil {
		t.Fatalf("resolve = %v, %v; want abort", verdict, err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	for _, s := range tx.sessions {
		if gids := s.machine.Engine().PreparedGIDs(); len(gids) != 0 {
			t.Errorf("%s: prepared branches %v after resolving", s.machine.ID(), gids)
		}
		if locks := s.machine.Engine().Stats().LocksHeld; locks != 0 {
			t.Errorf("%s: %d locks held after resolving", s.machine.ID(), locks)
		}
	}
}
