package consensus

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// role is a node's current Raft role.
type role int

// Raft roles.
const (
	follower role = iota
	candidate
	leader
)

// applyResult is what a waiter receives when its entry's index applies.
type applyResult struct {
	res any
	err error
}

// waiter tracks one local ProposeWait caller: the term its entry was
// appended under (to detect overwrites) and a buffered delivery channel.
type waiter struct {
	term uint64
	ch   chan applyResult
}

// Node is one member of a consensus group. All Raft state that real
// deployments keep on stable storage (term, vote, log, snapshot) lives in
// memory and survives Stop/Restart, which models a process crash and
// recovery from disk.
type Node struct {
	id string
	g  *Group
	sm StateMachine

	cfg   Config
	lease time.Duration

	mu               sync.Mutex
	stopped          bool
	term             uint64
	votedFor         string
	role             role
	leaderID         string
	log              raftLog
	commitIndex      uint64
	lastApplied      uint64
	nextIndex        map[string]uint64
	matchIndex       map[string]uint64
	electionDeadline time.Time
	lastBeat         time.Time
	leaseUntil       time.Time
	pushPending      bool
	pendingSnap      *snapshotRequest
	waiters          map[uint64]*waiter
	rng              *rand.Rand
	applyCond        *sync.Cond

	// Atomic mirrors of the hot-path fields so the cluster's Begin gate
	// reads leadership and lease state without touching n.mu. aTerm is the
	// term of the node's latest leadership.
	aLeader atomic.Bool
	aLease  atomic.Int64
	aTerm   atomic.Uint64

	stopCh chan struct{}
	kickCh chan struct{}
	wg     sync.WaitGroup

	// lifeMu serializes Stop and Restart in full — including the wait for
	// the dying incarnation's goroutines — so concurrent kill/revive calls
	// (e.g. a chaos kill firing from a delivery hook while the scheduler
	// restarts the group) never overlap incarnations or race on wg.
	lifeMu sync.Mutex
}

// newNode builds (but does not start) a node.
func newNode(g *Group, cfg Config, sm StateMachine) *Node {
	cfg = cfg.withDefaults()
	n := &Node{
		id:         cfg.ID,
		g:          g,
		sm:         sm,
		cfg:        cfg,
		lease:      cfg.ElectionTimeout * 4 / 5,
		nextIndex:  make(map[string]uint64),
		matchIndex: make(map[string]uint64),
		waiters:    make(map[uint64]*waiter),
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		stopCh:     make(chan struct{}),
		kickCh:     make(chan struct{}, 1),
	}
	n.applyCond = sync.NewCond(&n.mu)
	n.resetElectionTimerLocked()
	return n
}

// start launches the ticker and apply goroutines (timed mode only).
func (n *Node) start() {
	n.wg.Add(2)
	go n.run()
	go n.applyLoop()
}

// ID returns the node's identifier (also its netsim endpoint).
func (n *Node) ID() string { return n.id }

// Term returns the node's current term.
func (n *Node) Term() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term
}

// IsLeader reports whether the node currently believes it is leader. Lock
// free; safe on the data path.
func (n *Node) IsLeader() bool { return n.aLeader.Load() }

// LeaseTerm returns the term the node leads in while it holds a live quorum
// lease — a majority acknowledged a heartbeat round recently enough that no
// other leader can have been elected — and 0 otherwise. Terms have one
// leader each, so a caller that recorded the term can later ask whether that
// same lease still holds. Lock free; safe on the data path.
func (n *Node) LeaseTerm() uint64 {
	if !n.aLeader.Load() || time.Now().UnixNano() >= n.aLease.Load() {
		return 0
	}
	return n.aTerm.Load()
}

// Stopped reports whether the node is stopped.
func (n *Node) Stopped() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stopped
}

// CommitIndex returns the node's current commit index.
func (n *Node) CommitIndex() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.commitIndex
}

// Applied returns the index of the last entry applied to the state machine.
func (n *Node) Applied() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lastApplied
}

// leaderAt returns (term, true) when the node is a live leader.
func (n *Node) leaderAt() (uint64, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term, n.role == leader && !n.stopped
}

// progress returns the metric-bridge view of the node.
func (n *Node) progress() (term, commit, applied uint64, stopped bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term, n.commitIndex, n.lastApplied, n.stopped
}

// quorum returns the majority size of the group.
func (n *Node) quorum() int { return len(n.cfg.Peers)/2 + 1 }

// peersExceptSelf returns the other members, in configuration order.
func (n *Node) peersExceptSelf() []string {
	out := make([]string, 0, len(n.cfg.Peers)-1)
	for _, p := range n.cfg.Peers {
		if p != n.id {
			out = append(out, p)
		}
	}
	return out
}

// resetElectionTimerLocked re-arms the randomized election timeout.
func (n *Node) resetElectionTimerLocked() {
	t := n.cfg.ElectionTimeout
	n.electionDeadline = time.Now().Add(t + time.Duration(n.rng.Int63n(int64(t))))
}

// stepDownLocked demotes the node to follower, adopting term when higher.
func (n *Node) stepDownLocked(term uint64) {
	if term > n.term {
		n.term = term
		n.votedFor = ""
	}
	if n.role != follower {
		n.role = follower
		n.resetElectionTimerLocked()
	}
	n.aLeader.Store(false)
	n.aLease.Store(0)
	n.leaseUntil = time.Time{}
}

// failWaitersFromLocked fails every waiter at index ≥ idx: their entries
// were truncated by a new leader's conflicting log.
func (n *Node) failWaitersFromLocked(idx uint64) {
	for i, w := range n.waiters {
		if i >= idx {
			delete(n.waiters, i)
			w.ch <- applyResult{err: ErrProposalLost}
			n.g.metrics.proposals.With(resultLost).Inc()
		}
	}
}

// kick nudges the ticker goroutine to run a replication round now instead
// of at the next tick, so proposals ship at RPC latency, not tick latency.
func (n *Node) kick() {
	if n.cfg.Manual {
		return
	}
	select {
	case n.kickCh <- struct{}{}:
	default:
	}
}

// run is the node's single ticker goroutine: it campaigns when the
// election timer fires and drives heartbeat/replication rounds as leader.
// All sends happen synchronously on this goroutine, one peer at a time,
// which keeps a seeded netsim schedule reproducible.
func (n *Node) run() {
	defer n.wg.Done()
	tick := n.cfg.Heartbeat / 3
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case <-n.kickCh:
		case <-t.C:
		}
		n.step(time.Now())
	}
}

// step runs one scheduling decision at the given time.
func (n *Node) step(now time.Time) {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	if n.role == leader {
		// A leader cut off from quorum long enough for another election to
		// have completed demotes itself, so proposers stop queueing on it.
		if !n.leaseUntil.IsZero() && now.Sub(n.leaseUntil) > 2*n.cfg.ElectionTimeout {
			n.stepDownLocked(n.term)
			n.mu.Unlock()
			return
		}
		due := now.Sub(n.lastBeat) >= n.cfg.Heartbeat || n.pushPending
		n.mu.Unlock()
		if due {
			n.Heartbeat()
		}
		return
	}
	due := now.After(n.electionDeadline)
	n.mu.Unlock()
	if due {
		n.Campaign()
	}
}

// Campaign runs one election round synchronously: increment the term, vote
// for self, solicit the other members in order, and assume leadership on a
// majority. It returns whether the node emerged as leader. Timed nodes call
// it from the ticker when the election timer fires; Manual tests call it
// directly.
func (n *Node) Campaign() bool {
	n.mu.Lock()
	if n.stopped || n.role == leader {
		n.mu.Unlock()
		return false
	}
	n.role = candidate
	n.term++
	n.votedFor = n.id
	n.leaderID = ""
	n.resetElectionTimerLocked()
	term := n.term
	lastIdx := n.log.lastIndex()
	lastTerm := n.log.termAt(lastIdx)
	n.g.metrics.elections.Inc()
	n.mu.Unlock()

	votes := 1
	for _, p := range n.peersExceptSelf() {
		if votes >= n.quorum() {
			break
		}
		req := voteRequest{Term: term, Candidate: n.id, LastLogIndex: lastIdx, LastLogTerm: lastTerm}
		var rep voteReply
		err := n.g.rpc(n.id, p, "raft_vote", func(peer *Node) error {
			r, herr := peer.handleVote(req)
			rep = r
			return herr
		})
		if err != nil {
			continue
		}
		n.mu.Lock()
		if n.stopped || n.term != term || n.role != candidate {
			n.mu.Unlock()
			return false
		}
		if rep.Term > n.term {
			n.stepDownLocked(rep.Term)
			n.mu.Unlock()
			return false
		}
		n.mu.Unlock()
		if rep.Granted {
			votes++
		}
	}
	if votes < n.quorum() {
		return false
	}
	n.mu.Lock()
	if n.stopped || n.term != term || n.role != candidate {
		n.mu.Unlock()
		return false
	}
	n.becomeLeaderLocked()
	onLeader := n.cfg.OnLeader
	n.mu.Unlock()
	if onLeader != nil {
		go onLeader(term)
	}
	n.Heartbeat()
	return true
}

// becomeLeaderLocked switches the node to leader: reset replication state
// and append a no-op barrier entry so the new term has an entry to commit
// (Raft only counts replicas for entries of the current term).
func (n *Node) becomeLeaderLocked() {
	n.role = leader
	n.leaderID = n.id
	last := n.log.lastIndex()
	for _, p := range n.peersExceptSelf() {
		n.nextIndex[p] = last + 1
		n.matchIndex[p] = 0
	}
	n.log.appendCmd(n.term, nil)
	n.pushPending = true
	n.aTerm.Store(n.term)
	n.aLeader.Store(true)
	n.g.metrics.leaderChanges.Inc()
}

// Heartbeat runs one leader replication round synchronously: every peer
// receives outstanding entries (or an empty heartbeat), divergent followers
// are backed up via conflict hints or caught up via snapshot, the commit
// index advances over majority-replicated current-term entries, and a
// majority of acknowledgements refreshes the quorum lease. Timed nodes call
// it from the ticker; Manual tests call it directly.
func (n *Node) Heartbeat() {
	// When a round advances the commit index, one extra pass propagates it
	// to the followers immediately instead of waiting a heartbeat interval.
	if n.heartbeatRound() {
		n.heartbeatRound()
	}
}

// heartbeatRound runs one replication round, returning whether the commit
// index advanced.
func (n *Node) heartbeatRound() bool {
	n.mu.Lock()
	if n.stopped || n.role != leader {
		n.mu.Unlock()
		return false
	}
	term := n.term
	roundStart := time.Now()
	n.lastBeat = roundStart
	n.pushPending = false
	n.mu.Unlock()

	acks := 1
	for _, p := range n.peersExceptSelf() {
		if n.replicateTo(p, term) {
			acks++
		}
	}

	advanced := false
	n.mu.Lock()
	if !n.stopped && n.role == leader && n.term == term {
		if acks >= n.quorum() {
			n.leaseUntil = roundStart.Add(n.lease)
			n.aLease.Store(n.leaseUntil.UnixNano())
		}
		before := n.commitIndex
		n.advanceCommitLocked()
		advanced = n.commitIndex > before
	}
	n.mu.Unlock()
	return advanced
}

// replicateTo brings one follower up to date within a round: entries from
// its nextIndex, backing up on conflict hints, or an InstallSnapshot when
// its nextIndex precedes the leader's compaction point. Returns whether the
// follower acknowledged up through the leader's round-start log.
func (n *Node) replicateTo(p string, term uint64) bool {
	for attempt := 0; attempt < 4; attempt++ {
		n.mu.Lock()
		if n.stopped || n.role != leader || n.term != term {
			n.mu.Unlock()
			return false
		}
		ni := n.nextIndex[p]
		if ni == 0 {
			ni = 1
		}
		if ni <= n.log.base {
			req := snapshotRequest{
				Term:      term,
				Leader:    n.id,
				LastIndex: n.log.base,
				LastTerm:  n.log.baseTerm,
				Data:      append([]byte(nil), n.log.snapshot...),
			}
			n.mu.Unlock()
			var rep snapshotReply
			err := n.g.rpc(n.id, p, "raft_snapshot", func(peer *Node) error {
				r, herr := peer.handleSnapshot(req)
				rep = r
				return herr
			})
			if err != nil {
				return false
			}
			n.mu.Lock()
			if rep.Term > n.term {
				n.stepDownLocked(rep.Term)
				n.mu.Unlock()
				return false
			}
			if n.role == leader && n.term == term {
				if req.LastIndex > n.matchIndex[p] {
					n.matchIndex[p] = req.LastIndex
				}
				n.nextIndex[p] = req.LastIndex + 1
			}
			n.mu.Unlock()
			n.g.metrics.snapInstalls.Inc()
			// The follower installs the staged snapshot from its applier;
			// entries past it ship on the next round.
			return true
		}
		prev := ni - 1
		req := appendRequest{
			Term:      term,
			Leader:    n.id,
			PrevIndex: prev,
			PrevTerm:  n.log.termAt(prev),
			Entries:   n.log.from(ni),
			Commit:    n.commitIndex,
		}
		n.mu.Unlock()
		var rep appendReply
		err := n.g.rpc(n.id, p, "raft_append", func(peer *Node) error {
			r, herr := peer.handleAppend(req)
			rep = r
			return herr
		})
		if err != nil {
			return false
		}
		n.mu.Lock()
		if n.stopped || n.role != leader || n.term != term {
			n.mu.Unlock()
			return false
		}
		if rep.Term > n.term {
			n.stepDownLocked(rep.Term)
			n.mu.Unlock()
			return false
		}
		if rep.Success {
			if rep.MatchIndex > n.matchIndex[p] {
				n.matchIndex[p] = rep.MatchIndex
			}
			n.nextIndex[p] = n.matchIndex[p] + 1
			n.mu.Unlock()
			return true
		}
		ci := rep.ConflictIndex
		if ci == 0 || ci > prev {
			ci = prev
		}
		if ci == 0 {
			ci = 1
		}
		n.nextIndex[p] = ci
		n.mu.Unlock()
	}
	return false
}

// advanceCommitLocked advances the commit index over the highest
// current-term entry replicated to a majority, then wakes the applier.
func (n *Node) advanceCommitLocked() {
	for idx := n.log.lastIndex(); idx > n.commitIndex; idx-- {
		if n.log.termAt(idx) != n.term {
			break
		}
		count := 1
		for _, p := range n.peersExceptSelf() {
			if n.matchIndex[p] >= idx {
				count++
			}
		}
		if count >= n.quorum() {
			n.commitIndex = idx
			n.applyCond.Signal()
			break
		}
	}
}

// ProposeWait proposes cmd and blocks until the entry applies locally
// (returning the state machine's Apply result), is lost to a new leader
// (ErrProposalLost), or the timeout elapses (ErrProposalTimeout — outcome
// unknown, so only idempotent commands should be retried). Not usable on
// Manual nodes, whose apply path is driven explicitly.
func (n *Node) ProposeWait(cmd []byte, timeout time.Duration) (any, error) {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		n.g.metrics.proposals.With(resultStopped).Inc()
		return nil, ErrStopped
	}
	if n.role != leader {
		hint := n.leaderID
		n.mu.Unlock()
		n.g.metrics.proposals.With(resultNotLeader).Inc()
		return nil, fmt.Errorf("%w (leader hint: %s)", ErrNotLeader, hint)
	}
	idx := n.log.appendCmd(n.term, cmd)
	w := &waiter{term: n.term, ch: make(chan applyResult, 1)}
	n.waiters[idx] = w
	n.pushPending = true
	n.kick()
	n.mu.Unlock()

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-w.ch:
		if r.err == nil {
			n.g.metrics.proposals.With(resultCommitted).Inc()
		}
		return r.res, r.err
	case <-timer.C:
		n.mu.Lock()
		delete(n.waiters, idx)
		n.mu.Unlock()
		n.g.metrics.proposals.With(resultTimeout).Inc()
		return nil, ErrProposalTimeout
	}
}

// Barrier proposes a no-op entry and waits for it to commit — after it
// returns, every entry committed before the call has applied to this
// node's state machine. A new leader uses it to catch its materialized
// state up before serving.
func (n *Node) Barrier(timeout time.Duration) error {
	_, err := n.ProposeWait(nil, timeout)
	return err
}

// applyLoop is the node's single applier goroutine (timed mode): it
// installs staged snapshots and applies committed entries in order.
func (n *Node) applyLoop() {
	defer n.wg.Done()
	for {
		n.mu.Lock()
		for !n.stopped && n.pendingSnap == nil && n.lastApplied >= n.commitIndex {
			n.applyCond.Wait()
		}
		stopped := n.stopped
		n.mu.Unlock()
		if stopped {
			return
		}
		n.applyOnce()
	}
}

// applyOnce performs one unit of apply work, returning whether any
// progress was made. All StateMachine calls happen here, outside n.mu, and
// only ever from one goroutine per node.
func (n *Node) applyOnce() bool {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return false
	}
	if ps := n.pendingSnap; ps != nil {
		n.pendingSnap = nil
		if ps.LastIndex > n.commitIndex && ps.LastIndex > n.log.base {
			n.log.reset(ps.LastIndex, ps.LastTerm, ps.Data)
			n.commitIndex = ps.LastIndex
			n.lastApplied = ps.LastIndex
			data := ps.Data
			n.mu.Unlock()
			n.sm.Restore(data)
			return true
		}
	}
	if n.lastApplied >= n.commitIndex {
		n.mu.Unlock()
		return false
	}
	ents := n.log.slice(n.lastApplied+1, n.commitIndex)
	n.mu.Unlock()

	for _, e := range ents {
		var res any
		if len(e.Cmd) > 0 {
			res = n.sm.Apply(e.Index, e.Cmd)
		}
		n.mu.Lock()
		n.lastApplied = e.Index
		if w, ok := n.waiters[e.Index]; ok {
			delete(n.waiters, e.Index)
			if w.term == e.Term {
				w.ch <- applyResult{res: res}
			} else {
				w.ch <- applyResult{err: ErrProposalLost}
				n.g.metrics.proposals.With(resultLost).Inc()
			}
		}
		n.mu.Unlock()
	}
	n.maybeSnapshot()
	return true
}

// maybeSnapshot compacts the log once enough applied entries accumulate
// past the last snapshot. Runs on the applier goroutine, so the state
// machine is exactly at lastApplied when Snapshot is taken.
func (n *Node) maybeSnapshot() {
	n.mu.Lock()
	la := n.lastApplied
	if la < n.log.base || la-n.log.base < uint64(n.cfg.SnapshotThreshold) {
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	data := n.sm.Snapshot()
	n.mu.Lock()
	if la > n.log.base {
		n.log.compact(la, n.log.termAt(la), data)
		n.g.metrics.snapshots.Inc()
	}
	n.mu.Unlock()
}

// Stop halts the node, modelling a process kill: goroutines exit, RPCs are
// refused, and pending local proposals fail with ErrStopped. Durable Raft
// state (term, vote, log, snapshot) survives for Restart.
func (n *Node) Stop() {
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	n.stepDownLocked(n.term)
	for i, w := range n.waiters {
		delete(n.waiters, i)
		w.ch <- applyResult{err: ErrStopped}
		n.g.metrics.proposals.With(resultStopped).Inc()
	}
	close(n.stopCh)
	n.applyCond.Broadcast()
	n.mu.Unlock()
	n.wg.Wait()
}

// Restart revives a stopped node as a follower, recovering from its
// durable state as a real process would recover from disk.
func (n *Node) Restart() {
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()
	n.mu.Lock()
	if !n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = false
	n.role = follower
	n.leaderID = ""
	n.pendingSnap = nil
	n.stopCh = make(chan struct{})
	n.resetElectionTimerLocked()
	n.mu.Unlock()
	if !n.cfg.Manual {
		n.start()
	}
}
