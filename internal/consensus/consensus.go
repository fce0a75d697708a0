// Package consensus implements a self-contained Raft-style replicated log
// for the platform's control plane: leader election with randomized
// timeouts, log replication with conflict-index divergence repair,
// quorum commit-index advancement, and snapshot/compaction so a fresh or
// long-dead replica catches up from a compacted leader. All messages cross
// the internal/netsim faultable transport, so every RPC can be dropped,
// delayed, duplicated, or partitioned deterministically from a seed — the
// same fault model the data path already runs under.
//
// The design follows Raft (Ongaro & Ousterhout) restricted to what the
// control plane needs: a fixed membership set, in-memory durable state
// (stable storage is modelled by state surviving Stop/Restart), and
// synchronous per-peer RPC rounds driven by a single ticker goroutine per
// node, which keeps a seeded run's message schedule reproducible. A leader
// additionally maintains a quorum lease — refreshed every heartbeat round
// acknowledged by a majority — that the cluster controller uses to keep the
// transaction data path off the consensus critical path: reads and writes
// route from leader-local state while the lease holds, and only control
// mutations pay a log round trip.
package consensus

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sdp/internal/netsim"
	"sdp/internal/obs"
)

// Errors surfaced by proposals and group operations.
var (
	// ErrNotLeader is returned by ProposeWait on a node that is not
	// the current leader; the caller should redirect to the leader hint.
	ErrNotLeader = errors.New("consensus: not the leader")

	// ErrStopped is returned by operations on a stopped node.
	ErrStopped = errors.New("consensus: node stopped")

	// ErrProposalLost means the proposed entry was overwritten by a new
	// leader before committing; the command did not and will not apply from
	// that proposal. Safe to re-propose.
	ErrProposalLost = errors.New("consensus: proposal lost to a new leader")

	// ErrProposalTimeout means the proposal did not commit within the
	// caller's deadline; its outcome is unknown (it may still commit), so
	// only idempotent commands should be re-proposed.
	ErrProposalTimeout = errors.New("consensus: proposal timed out")

	// errPeerDown is the transport-level error for RPCs delivered to a
	// stopped or unregistered node — the moral equivalent of a connection
	// refused by a dead process.
	errPeerDown = errors.New("consensus: peer down")
)

// StateMachine is the deterministic state machine a node applies committed
// entries to. Apply, Snapshot, and Restore are always invoked from a single
// goroutine per node, in log order.
type StateMachine interface {
	// Apply applies one committed command and returns a result delivered to
	// the local proposer, if any. It must be deterministic: every replica
	// applying the same log prefix must reach the same state.
	Apply(index uint64, cmd []byte) any
	// Snapshot encodes the full current state for log compaction.
	Snapshot() []byte
	// Restore replaces the state from a snapshot taken by another replica.
	Restore(data []byte)
}

// Config configures one consensus node.
type Config struct {
	// ID is the node's name and its netsim endpoint.
	ID string
	// Peers lists every member of the group, including this node.
	Peers []string
	// ElectionTimeout is the base election timeout T; each node waits a
	// randomized T + [0, T) of leader silence before campaigning. Default
	// 60ms.
	ElectionTimeout time.Duration
	// Heartbeat is the leader's replication/heartbeat interval. Default
	// ElectionTimeout/5.
	Heartbeat time.Duration
	// SnapshotThreshold is how many applied entries accumulate past the
	// last snapshot before the log compacts. Default 256.
	SnapshotThreshold int
	// Seed seeds the node's private PRNG (election-timeout randomization).
	Seed int64
	// Manual disables the background ticker and apply goroutines: tests
	// drive the node deterministically with Campaign, Heartbeat and their
	// own calls of the apply step.
	Manual bool
	// OnLeader, when non-nil, is called from a fresh goroutine each time
	// this node wins an election, with the term it won.
	OnLeader func(term uint64)
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.ElectionTimeout <= 0 {
		c.ElectionTimeout = 60 * time.Millisecond
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = c.ElectionTimeout / 5
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = time.Millisecond
	}
	if c.SnapshotThreshold <= 0 {
		c.SnapshotThreshold = 256
	}
	return c
}

// Group is one consensus cluster: the set of nodes plus the shared netsim
// transport and metrics. Nodes register into the group at construction and
// exchange RPCs through it, so a test (or the chaos harness) can partition,
// fault, or kill any member by endpoint name.
type Group struct {
	net     *netsim.Network
	metrics *groupMetrics

	mu    sync.Mutex
	order []string
	nodes map[string]*Node
}

// NewGroup creates an empty consensus group over the given network (nil is
// a perfect in-process network) registering consensus_* metrics on reg (nil
// gives the group a private registry).
func NewGroup(net *netsim.Network, reg *obs.Registry) *Group {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	g := &Group{
		net:     net,
		metrics: newGroupMetrics(reg),
		nodes:   make(map[string]*Node),
	}
	reg.OnSnapshot(g.bridge)
	return g
}

// Add creates a node from cfg, attaches it to sm, registers it in the
// group, and (unless cfg.Manual) starts its background goroutines.
func (g *Group) Add(cfg Config, sm StateMachine) *Node {
	n := newNode(g, cfg, sm)
	g.mu.Lock()
	if _, dup := g.nodes[n.id]; dup {
		g.mu.Unlock()
		panic(fmt.Sprintf("consensus: duplicate node id %q", n.id))
	}
	g.nodes[n.id] = n
	g.order = append(g.order, n.id)
	g.mu.Unlock()
	if !n.cfg.Manual {
		n.start()
	}
	return n
}

// Node returns the registered node with the given id, or nil.
func (g *Group) Node(id string) *Node {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.nodes[id]
}

// Nodes returns the group's nodes in registration order.
func (g *Group) Nodes() []*Node {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*Node, 0, len(g.order))
	for _, id := range g.order {
		out = append(out, g.nodes[id])
	}
	return out
}

// Leader returns the live node currently acting as leader (the one with
// the highest term if a stale leader has not yet stepped down), or nil when
// the group is leaderless.
func (g *Group) Leader() *Node {
	var best *Node
	var bestTerm uint64
	for _, n := range g.Nodes() {
		if term, ok := n.leaderAt(); ok && (best == nil || term > bestTerm) {
			best, bestTerm = n, term
		}
	}
	return best
}

// LeaderID returns the leader's id and term, or ("", 0) when leaderless.
func (g *Group) LeaderID() (string, uint64) {
	if n := g.Leader(); n != nil {
		t, _ := n.leaderAt()
		return n.id, t
	}
	return "", 0
}

// rpc delivers one RPC from node `from` to node `to` across the simulated
// network. fn runs at the receiver (or twice, when netsim duplicates an
// idempotent delivery — all consensus RPCs are idempotent by design). A
// stopped receiver refuses the call like a dead process would.
func (g *Group) rpc(from, to, op string, fn func(peer *Node) error) error {
	deliver := func() error {
		peer := g.Node(to)
		if peer == nil {
			return errPeerDown
		}
		return fn(peer)
	}
	link := g.net.Link(from, to)
	if link == nil {
		return deliver()
	}
	return link.Call(op, true, deliver)
}

// bridge refreshes the gauge family on registry snapshots: the highest term
// seen, the highest commit index, and the commit lag (highest commit minus
// the lowest applied index across live nodes — how far the slowest live
// replica's state machine trails the group).
func (g *Group) bridge() {
	var maxTerm, maxCommit uint64
	minApplied := ^uint64(0)
	live := false
	for _, n := range g.Nodes() {
		term, commit, applied, stopped := n.progress()
		if term > maxTerm {
			maxTerm = term
		}
		if commit > maxCommit {
			maxCommit = commit
		}
		if !stopped {
			live = true
			if applied < minApplied {
				minApplied = applied
			}
		}
	}
	g.metrics.term.Set(float64(maxTerm))
	g.metrics.commitIndex.Set(float64(maxCommit))
	if live {
		g.metrics.commitLag.Set(float64(maxCommit - minApplied))
	}
}
