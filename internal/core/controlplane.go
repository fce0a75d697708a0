package core

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"time"

	"sdp/internal/consensus"
	"sdp/internal/obs"
	"sync"
	"sync/atomic"
)

// controlPlane is the cluster controller's one control path. Every control
// mutation — machine membership, database placement, Algorithm 1 copy
// lifecycle, replica retirement — is one ctlCmd that the state machine
// (ctlState) decides, and only then is the decision materialized into the
// controller's routing state (apply). With Options.Controllers ≤ 1 the
// plane holds one ctlState and applies each command in place. With more it
// replicates the commands across that many consensus nodes (see
// internal/consensus), so any controller replica can take over after a
// crash and reconstruct the same decisions. Only this file knows which of
// the two a cluster has.
//
// The transaction data path stays off consensus: reads and writes route from
// the leader's materialized state under a quorum lease (refreshed each
// majority-acknowledged heartbeat round), so steady-state transactions never
// pay a log round trip. When no replica holds the lease — a leader just died
// and its successor has not finished its first heartbeat round — Begin
// refuses with the retryable ErrNotLeader and clients retry into the new
// term; the gap is the failover window BENCH_consensus.json measures.
type controlPlane struct {
	c *Cluster
	// group and nodes are the consensus group of a replicated controller,
	// nil with one controller.
	group *consensus.Group
	nodes []*consensus.Node
	// states[i] is nodes[i]'s replicated state machine; with one controller
	// states[0] is the only one.
	states []*ctlState

	// electionTimeout mirrors the nodes' configured timeout, for deadlines.
	electionTimeout time.Duration
	// deadline bounds one proposal's retries across leader changes before
	// the control plane reports quorum loss (tests shorten it).
	deadline time.Duration

	// mu serializes apply sections — a command and its materialization —
	// against each other and against failover adoption, so the routing
	// state a holder reads is the state machine's. Never taken while
	// holding c.mu.
	mu sync.Mutex

	// adoptedTerm is the highest term whose new-leader adoption (barrier,
	// state reconciliation, orphaned-copy aborts, in-doubt resolution) has
	// fully completed. While the current leader's term is ahead of it a
	// failover is still in progress, and e.g. a freshly started copy could
	// be swept up as an orphan. Written under mu.
	adoptedTerm atomic.Uint64
}

// Proposal pacing: each attempt waits proposeCallTimeout for its entry to
// commit; attempts retry across leader changes until proposeDeadline, after
// which the control plane reports quorum loss.
const (
	proposeCallTimeout = time.Second
	proposeDeadline    = 5 * time.Second
)

// newControlPlane builds the control plane for c with n controllers. From
// two on it builds the consensus group, registering consensus_* metrics on
// reg, and elects a bootstrap leader so the cluster is serviceable on
// return.
func newControlPlane(c *Cluster, n int, reg *obs.Registry) *controlPlane {
	cp := &controlPlane{
		c:               c,
		electionTimeout: c.opts.ControllerElectionTimeout,
		deadline:        proposeDeadline,
	}
	if n < 2 {
		cp.states = []*ctlState{newCtlState()}
		return cp
	}
	cp.group = consensus.NewGroup(c.opts.Network, reg)
	if cp.electionTimeout <= 0 {
		cp.electionTimeout = 60 * time.Millisecond
	}
	peers := make([]string, n)
	for i := range peers {
		peers[i] = fmt.Sprintf("%s#%d", c.endpoint, i)
	}
	for i := 0; i < n; i++ {
		st := newCtlState()
		idx := i
		node := cp.group.Add(consensus.Config{
			ID:              peers[i],
			Peers:           peers,
			ElectionTimeout: cp.electionTimeout,
			Seed:            c.opts.ControllerSeed + int64(i)*7919,
			OnLeader:        func(term uint64) { cp.onLeader(idx, term) },
		}, st)
		cp.states = append(cp.states, st)
		cp.nodes = append(cp.nodes, node)
	}
	// Bootstrap: elect node 0 synchronously, and let it adopt, so the first
	// control operations do not wait out an election timeout and the first
	// transactions do not meet the adoption's in-doubt resolver, whose claims
	// would abort them. Under a faulty network the campaign can lose; the
	// background tickers elect eventually.
	deadline := time.Now().Add(4 * cp.electionTimeout)
	for cp.group.Leader() == nil && time.Now().Before(deadline) {
		if cp.nodes[0].Campaign() {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for cp.adoptedTerm.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return cp
}

// leaseTerm returns the term of the controller replica that leads under a
// live quorum lease, or 0 when none does. One controller always holds its
// lease, at term 1. Lock free (atomic reads only); called on every Begin and
// before every COMMIT.
func (cp *controlPlane) leaseTerm() uint64 {
	if cp.group == nil {
		return 1
	}
	for _, n := range cp.nodes {
		if term := n.LeaseTerm(); term != 0 {
			return term
		}
	}
	return 0
}

// holdsLease reports whether the lease of term still holds. A lapse while
// no other leader holds a lease — a heartbeat round starved on a busy box —
// is waited out for up to an election timeout rather than abort the
// transaction: only the leader of term can renew that lease, and a later
// term means a new leader, whose resolver settles the branches this lease
// covered.
func (cp *controlPlane) holdsLease(term uint64) bool {
	for deadline := time.Now().Add(cp.electionTimeout); cp.leaseTerm() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return cp.leaseTerm() == term
}

// apply is every control mutation's one path: it has the state machine
// decide cmd and copies the records cmd can change into the routing state,
// then runs then (when non-nil) in the same c.mu section, for the caller's
// local bookkeeping. It returns the proposal's failure or the state
// machine's refusal, and then runs only on success. Caller holds cp.mu.
func (cp *controlPlane) apply(cmd ctlCmd, then func()) error {
	st, err := cp.propose(cmd)
	if err != nil {
		return err
	}
	c := cp.c
	c.mu.Lock()
	defer c.mu.Unlock()
	names := []string{cmd.DB}
	if cmd.Op == ctlOpFailMachine {
		names = nil
	}
	cp.materializeLocked(st, names)
	if then != nil {
		then()
	}
	return nil
}

// materializeLocked copies st's record of each named database — nil names
// every database either side knows — into the routing state: its replicas,
// head first, and epoch. A new record gets a dbState, a dropped one loses it.
// It is the only writer of dbState.replicas; the rest of a
// dbState (SLA reservation, write sequences, drains, copy progress) is
// local. Caller holds c.mu.
func (cp *controlPlane) materializeLocked(st *ctlState, names []string) {
	c := cp.c
	st.mu.Lock()
	defer st.mu.Unlock()
	if names == nil {
		names = st.dbNamesLocked()
		for name := range c.dbs {
			names = append(names, name)
		}
	}
	for _, name := range names {
		rec, ok := st.s.DBs[name]
		if !ok {
			delete(c.dbs, name)
			continue
		}
		ds := c.dbs[name]
		if ds == nil {
			ds = &dbState{name: name}
			c.dbs[name] = ds
		}
		ds.replicas = append([]string(nil), rec.Replicas...)
		ds.epoch = rec.Epoch
	}
}

// propose has the state machine decide cmd and returns the state machine
// that applied it. One controller applies it in place. A replicated one
// submits it to the consensus log and waits for it to commit and apply on
// the leader, retrying across leader changes. All commands are idempotent,
// so retrying a timed-out proposal (whose outcome is unknown) is safe. When
// no leader emerges before the deadline the control plane has lost quorum.
func (cp *controlPlane) propose(cmd ctlCmd) (*ctlState, error) {
	if cp.group == nil {
		return cp.states[0], cp.states[0].apply(cmd)
	}
	data, err := json.Marshal(cmd)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(cp.deadline)
	for {
		n := cp.group.Leader()
		if n == nil {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("%w: no controller leader for %s op", ErrNoQuorum, cmd.Op)
			}
			time.Sleep(cp.electionTimeout / 10)
			continue
		}
		res, err := n.ProposeWait(data, proposeCallTimeout)
		if err == nil {
			if refused, ok := res.(error); ok {
				return nil, refused
			}
			return cp.states[slices.Index(cp.nodes, n)], nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%w: %s op did not commit: %v", ErrNoQuorum, cmd.Op, err)
		}
		// ErrNotLeader, ErrStopped, ErrProposalLost, ErrProposalTimeout: the
		// leadership moved or the entry's fate is unknown; re-resolve the
		// leader and re-propose the idempotent command.
		time.Sleep(time.Millisecond)
	}
}

// onLeader runs on a fresh goroutine each time controller replica idx wins
// an election: it is the paper's backup controller cleaning up the
// transactions in transit, generalized to a replicated group. The new leader
// first commits a barrier so its state machine reflects every decision the
// old leader committed, and reconciles the materialized routing state against
// the replicated state. It then aborts the Algorithm 1 copies nobody drives
// any more and settles every prepared 2PC branch by the in-doubt rule
// (resolveAll). The resolver's claims bind every branch of a transaction it
// settles, so settling is safe whether the old leader died or merely lost
// its lease, and a coordinator of the old term stops at its next COMMIT
// (replicaSession.commitPrepared); a copy whose leader was killed is
// already marked aborted (KillLeaderController), and one still driven by a
// live goroutine after a purely electoral change completes on its own.
func (cp *controlPlane) onLeader(idx int, term uint64) {
	n, horizon := cp.nodes[idx], cp.c.gidSeq.Load()
	if err := n.Barrier(cp.deadline); err != nil {
		return // lost leadership before the barrier committed
	}
	cp.mu.Lock()
	if !n.IsLeader() {
		cp.mu.Unlock()
		return
	}
	for _, db := range cp.adoptLocked(cp.states[idx]) {
		_ = cp.apply(ctlCmd{Op: ctlOpCopyAbort, DB: db}, nil)
	}
	cp.mu.Unlock()
	cp.c.resolveAll(horizon)
	cp.mu.Lock()
	if term > cp.adoptedTerm.Load() {
		cp.adoptedTerm.Store(term)
	}
	cp.mu.Unlock()
	cp.c.metrics.reg.TraceEvent("consensus", cp.c.name, "leader_takeover",
		fmt.Sprintf("%s term %d", n.ID(), term))
}

// adoptLocked reconciles the controller's materialized routing state with
// the replicated state machine st (the new leader's, caught up past a
// barrier) through the one materialize function: replica lists and epochs
// come from the replicated record, local state (write-sequence
// counters, drain counters, SLA reservations) is kept, databases the log
// never committed are discarded, and machines the log records as failed are
// failed locally. Returns the databases whose replicated copy record nobody
// is driving any more (the caller aborts them, so a fresh CreateReplica can
// run): no local copy runs, or the one that does is aborted. Caller holds
// cp.mu.
func (cp *controlPlane) adoptLocked(st *ctlState) (abortCopies []string) {
	c := cp.c
	var toFail []*Machine
	c.mu.Lock()
	cp.materializeLocked(st, nil)
	st.mu.Lock()
	for name, rec := range st.s.DBs {
		if ds := c.dbs[name]; ds != nil && rec.Copy != nil && (ds.copying == nil || ds.copying.aborted) {
			abortCopies = append(abortCopies, name)
		}
	}
	for id, m := range c.machines {
		if st.s.Failed[id] && !m.Failed() {
			toFail = append(toFail, m)
		}
	}
	st.mu.Unlock()
	c.mu.Unlock()
	for _, m := range toFail {
		m.fail()
	}
	sort.Strings(abortCopies)
	return abortCopies
}

// ControllerStatus describes one controller replica for health surfaces and
// tests.
type ControllerStatus struct {
	// ID is the replica's consensus node id (its netsim endpoint).
	ID string `json:"id"`
	// Leader reports whether this replica currently leads.
	Leader bool `json:"leader"`
	// Term is the replica's current election term.
	Term uint64 `json:"term"`
	// Stopped reports whether the replica is killed.
	Stopped bool `json:"stopped"`
	// Applied is the last log index applied to the replica's state machine.
	Applied uint64 `json:"applied"`
}

// ControllerStatus reports every controller replica's view, in group order.
// Nil without a replicated control plane.
func (c *Cluster) ControllerStatus() []ControllerStatus {
	var out []ControllerStatus
	for _, n := range c.ctl.nodes {
		out = append(out, ControllerStatus{
			ID:      n.ID(),
			Leader:  n.IsLeader(),
			Term:    n.Term(),
			Stopped: n.Stopped(),
			Applied: n.Applied(),
		})
	}
	return out
}

// ControllerIDs lists the controller replica ids, in group order; none
// without a replicated control plane.
func (c *Cluster) ControllerIDs() []string {
	var out []string
	for _, n := range c.ctl.nodes {
		out = append(out, n.ID())
	}
	return out
}

// LeaderController returns the id and term of the current controller
// leader, or ("", 0) when the control plane is leaderless (or not
// replicated).
func (c *Cluster) LeaderController() (string, uint64) {
	if c.ctl.group == nil {
		return "", 0
	}
	return c.ctl.group.LeaderID()
}

// KillLeaderController kills the current controller leader, modelling a
// controller process crash: its consensus node stops (RPCs refused, durable
// state retained for RestartController) and its in-flight Algorithm 1 copies
// are marked aborted. Nothing else of the leader survives into the
// failover: its coordinators find their lease gone before their next COMMIT,
// and the successor elected by the surviving replicas (see onLeader) settles
// the branches they left prepared from the participants' logs. Returns the
// killed replica's id.
func (c *Cluster) KillLeaderController() (string, error) {
	cp := c.ctl
	if cp.group == nil {
		return "", fmt.Errorf("core: cluster %s has no replicated control plane", c.name)
	}
	n := cp.group.Leader()
	if n == nil {
		return "", fmt.Errorf("%w: no controller leader to kill", ErrNoQuorum)
	}
	// Its copy goroutines die with it; make them abandon at the next step.
	c.mu.Lock()
	for _, ds := range c.dbs {
		if cs := ds.copying; cs != nil {
			cs.aborted = true
		}
	}
	c.mu.Unlock()
	n.Stop()
	c.metrics.reg.TraceEvent("consensus", c.name, "leader_killed", n.ID())
	return n.ID(), nil
}

// controller returns the named controller replica.
func (c *Cluster) controller(id string) (*consensus.Node, error) {
	for _, n := range c.ctl.nodes {
		if n.ID() == id {
			return n, nil
		}
	}
	return nil, fmt.Errorf("core: cluster %s has no controller replica %s", c.name, id)
}

// StopController kills the named controller replica (leader or follower).
func (c *Cluster) StopController(id string) error {
	n, err := c.controller(id)
	if err != nil {
		return err
	}
	if n.IsLeader() {
		_, err := c.KillLeaderController()
		return err
	}
	n.Stop()
	return nil
}

// RestartController revives a killed controller replica as a follower; it
// catches up from the leader's log (or a snapshot, when the log compacted
// past it).
func (c *Cluster) RestartController(id string) error {
	n, err := c.controller(id)
	if err != nil {
		return err
	}
	n.Restart()
	return nil
}

// RestartControllers revives every killed controller replica and returns
// how many it restarted.
func (c *Cluster) RestartControllers() int {
	restarted := 0
	for _, n := range c.ctl.nodes {
		if n.Stopped() {
			n.Restart()
			restarted++
		}
	}
	return restarted
}

// WaitControllerSettled blocks until the control plane has a leader whose
// failover processing (barrier, state adoption, orphaned-copy aborts,
// in-doubt resolution) has fully completed, or the timeout elapses. Callers
// start long-running control operations — a replica copy, a recovery sweep —
// after this to avoid having them swept up as failover orphans. Trivially
// settled with one controller.
func (c *Cluster) WaitControllerSettled(timeout time.Duration) error {
	cp := c.ctl
	deadline := time.Now().Add(timeout)
	for cp.group != nil {
		if _, term := cp.group.LeaderID(); term > 0 && cp.adoptedTerm.Load() >= term {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("core: controller failover did not settle in %s", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// WaitControllerConvergence blocks until every live controller replica has
// applied the full committed log and their state machines agree, or the
// timeout elapses. Chaos and tests call it before asserting control-plane
// invariants. One controller converges trivially.
func (c *Cluster) WaitControllerConvergence(timeout time.Duration) error {
	cp := c.ctl
	deadline := time.Now().Add(timeout)
	for cp.group != nil {
		if err := cp.convergenceCheck(); err == nil {
			return nil
		} else if time.Now().After(deadline) {
			return fmt.Errorf("core: controller replicas did not converge in %s: %w", timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// convergenceCheck performs one convergence probe: commit a barrier on the
// leader, then require every live replica applied up to it with matching
// fingerprints.
func (cp *controlPlane) convergenceCheck() error {
	leader := cp.group.Leader()
	if leader == nil {
		return fmt.Errorf("no leader")
	}
	if err := leader.Barrier(proposeCallTimeout); err != nil {
		return err
	}
	commit := leader.CommitIndex()
	want := ""
	for i, n := range cp.nodes {
		if n.Stopped() {
			continue
		}
		if n.Applied() < commit {
			return fmt.Errorf("replica %s applied %d < commit %d", n.ID(), n.Applied(), commit)
		}
		fp := cp.states[i].Fingerprint()
		if want == "" {
			want = fp
		} else if fp != want {
			return fmt.Errorf("replica %s fingerprint diverges", n.ID())
		}
	}
	return nil
}
