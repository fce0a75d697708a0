package consensus

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"sdp/internal/netsim"
)

// testSM is a deterministic state machine recording applied commands.
type testSM struct {
	mu      sync.Mutex
	applied []string
}

func (s *testSM) Apply(index uint64, cmd []byte) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applied = append(s.applied, string(cmd))
	return string(cmd)
}

func (s *testSM) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, _ := json.Marshal(s.applied)
	return data
}

func (s *testSM) Restore(data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applied = nil
	_ = json.Unmarshal(data, &s.applied)
}

func (s *testSM) fingerprint() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.applied, ",")
}

// The drivers of Manual groups, and the whole-group stop: only these tests
// call them, so they live here.

// Propose appends cmd to the log if this node is leader, returning the
// entry's index and term. The entry commits (or is lost to a competing
// leader) asynchronously; use ProposeWait to observe the outcome.
func (n *Node) Propose(cmd []byte) (index, term uint64, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		n.g.metrics.proposals.With(resultStopped).Inc()
		return 0, 0, ErrStopped
	}
	if n.role != leader {
		n.g.metrics.proposals.With(resultNotLeader).Inc()
		return 0, 0, fmt.Errorf("%w (leader hint: %s)", ErrNotLeader, n.leaderID)
	}
	idx := n.log.appendCmd(n.term, cmd)
	n.pushPending = true
	n.kick()
	return idx, n.term, nil
}

// DrainApply applies everything outstanding (staged snapshot installs and
// committed entries) synchronously. Manual tests call it between rounds;
// timed nodes drain from the apply goroutine.
func (n *Node) DrainApply() {
	for n.applyOnce() {
	}
}

// Stop stops every node in the group.
func (g *Group) Stop() {
	for _, n := range g.Nodes() {
		n.Stop()
	}
}

// newTestGroup builds an n-node group. Manual groups are driven explicitly
// by Campaign/Heartbeat/DrainApply; timed groups run their own tickers.
func newTestGroup(n int, seed int64, net *netsim.Network, manual bool, threshold int) (*Group, []*Node, []*testSM) {
	g := NewGroup(net, nil)
	peers := make([]string, n)
	for i := range peers {
		peers[i] = fmt.Sprintf("n%d", i)
	}
	nodes := make([]*Node, n)
	sms := make([]*testSM, n)
	for i := range peers {
		sms[i] = &testSM{}
		nodes[i] = g.Add(Config{
			ID:                peers[i],
			Peers:             peers,
			Seed:              seed + int64(i),
			Manual:            manual,
			SnapshotThreshold: threshold,
			ElectionTimeout:   30 * time.Millisecond,
		}, sms[i])
	}
	return g, nodes, sms
}

// lastIndex reads a node's last log index.
func lastIndex(n *Node) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.log.lastIndex()
}

// logBase reads a node's snapshot base index.
func logBase(n *Node) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.log.base
}

// drainAll drains every node's apply queue.
func drainAll(nodes []*Node) {
	for _, n := range nodes {
		n.DrainApply()
	}
}

func TestElectionAndReplication(t *testing.T) {
	g, nodes, sms := newTestGroup(3, 1, nil, true, 0)
	defer g.Stop()
	if !nodes[0].Campaign() {
		t.Fatal("campaign with all peers reachable should win")
	}
	if !nodes[0].IsLeader() {
		t.Fatal("winner should report leadership")
	}
	for i, n := range nodes[1:] {
		if n.IsLeader() {
			t.Fatalf("node %d should be follower", i+1)
		}
		if n.Term() != 1 {
			t.Fatalf("node %d term = %d, want 1", i+1, n.Term())
		}
	}
	if _, _, err := nodes[1].Propose([]byte("x")); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("propose on follower: err = %v, want ErrNotLeader", err)
	}
	for _, cmd := range []string{"a", "b", "c"} {
		if _, _, err := nodes[0].Propose([]byte(cmd)); err != nil {
			t.Fatalf("propose %q: %v", cmd, err)
		}
	}
	nodes[0].Heartbeat()
	drainAll(nodes)
	for i, sm := range sms {
		if got := sm.fingerprint(); got != "a,b,c" {
			t.Fatalf("node %d applied %q, want a,b,c", i, got)
		}
	}
	if c := nodes[0].CommitIndex(); c != 4 { // no-op barrier + 3 commands
		t.Fatalf("commit index = %d, want 4", c)
	}
	if nodes[0].LeaseTerm() == 0 {
		t.Fatal("leader should hold the quorum lease after an acked round")
	}
}

// TestElectionAsymmetricPartition cuts only the outbound links of one node:
// it cannot gather votes (its requests are refused) while a healthy peer
// still can, even collecting the partitioned node's vote. After healing,
// the inflated term the isolated candidate accumulated disrupts the leader
// once, and the group re-elects and converges.
func TestElectionAsymmetricPartition(t *testing.T) {
	net := netsim.New(7, nil)
	g, nodes, sms := newTestGroup(3, 7, net, true, 0)
	defer g.Stop()

	net.Partition("n0", "n1")
	net.Partition("n0", "n2")
	if nodes[0].Campaign() {
		t.Fatal("candidate with outbound links cut must not win")
	}
	if nodes[0].Term() != 1 {
		t.Fatalf("isolated candidate term = %d, want 1", nodes[0].Term())
	}
	// The healthy side elects: n1 reaches n2 (and even n0 — inbound to n0
	// is open, but n0 already voted for itself in term 1).
	if !nodes[1].Campaign() {
		t.Fatal("n1 should win with n2's vote")
	}
	// The isolated node keeps campaigning at higher terms, in vain.
	nodes[0].Campaign()
	nodes[0].Campaign()
	if nodes[0].IsLeader() {
		t.Fatal("isolated node must not become leader")
	}
	infl := nodes[0].Term()
	if infl <= nodes[1].Term() {
		t.Fatalf("isolated candidate should inflate its term: %d vs %d", infl, nodes[1].Term())
	}

	net.Heal("n0", "n1")
	net.Heal("n0", "n2")
	// The stale-term leader hears the inflated term and steps down...
	nodes[1].Heartbeat()
	if nodes[1].IsLeader() {
		t.Fatal("leader should step down on seeing a higher term")
	}
	// ...and wins the re-election at the higher term (its log is as
	// up to date as anyone's).
	if !nodes[1].Campaign() {
		t.Fatal("n1 should win re-election after adopting the higher term")
	}
	if nodes[1].Term() < infl {
		t.Fatalf("re-election term %d should be >= inflated term %d", nodes[1].Term(), infl)
	}
	if _, _, err := nodes[1].Propose([]byte("a")); err != nil {
		t.Fatalf("propose: %v", err)
	}
	nodes[1].Heartbeat()
	drainAll(nodes)
	for i, sm := range sms {
		if got := sm.fingerprint(); got != "a" {
			t.Fatalf("node %d applied %q, want a", i, got)
		}
	}
}

// TestDivergenceRepairAfterStaleLeader isolates a leader that keeps
// appending uncommitted entries, elects a new leader that commits a
// different suffix, and verifies the rejoining stale leader truncates its
// divergent tail, fails the lost proposal's waiter, and converges.
func TestDivergenceRepairAfterStaleLeader(t *testing.T) {
	net := netsim.New(11, nil)
	g, nodes, sms := newTestGroup(3, 11, net, true, 0)
	defer g.Stop()

	if !nodes[0].Campaign() {
		t.Fatal("n0 should win the first election")
	}
	if _, _, err := nodes[0].Propose([]byte("a")); err != nil {
		t.Fatal(err)
	}
	nodes[0].Heartbeat()
	drainAll(nodes)

	net.PartitionPair("n0", "n1")
	net.PartitionPair("n0", "n2")

	// The stale leader accepts a proposal it can never commit.
	lost := make(chan error, 1)
	go func() {
		_, err := nodes[0].ProposeWait([]byte("x"), 5*time.Second)
		lost <- err
	}()
	deadline := time.Now().Add(time.Second)
	for lastIndex(nodes[0]) != 3 {
		if time.Now().After(deadline) {
			t.Fatal("stale leader never appended the doomed entry")
		}
		time.Sleep(time.Millisecond)
	}
	nodes[0].Heartbeat() // no quorum: nothing commits

	// The majority side moves on.
	if !nodes[1].Campaign() {
		t.Fatal("n1 should win the partition-majority election")
	}
	if _, _, err := nodes[1].Propose([]byte("b")); err != nil {
		t.Fatal(err)
	}
	nodes[1].Heartbeat()
	nodes[1].DrainApply()
	nodes[2].DrainApply()

	net.HealAll()
	nodes[1].Heartbeat() // repairs n0: truncate "x", append the new suffix
	drainAll(nodes)

	select {
	case err := <-lost:
		if !errors.Is(err, ErrProposalLost) {
			t.Fatalf("doomed proposal: err = %v, want ErrProposalLost", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("doomed proposal's waiter never failed")
	}
	want := sms[1].fingerprint()
	if want != "a,b" {
		t.Fatalf("majority applied %q, want a,b", want)
	}
	for i, sm := range sms {
		if got := sm.fingerprint(); got != want {
			t.Fatalf("node %d applied %q, want %q", i, got, want)
		}
	}
	if li, lj := lastIndex(nodes[0]), lastIndex(nodes[1]); li != lj {
		t.Fatalf("logs diverge after repair: n0=%d n1=%d", li, lj)
	}
}

// TestSnapshotCatchUp stops a replica, commits enough entries for the
// leader to compact its log, and verifies the restarted replica catches up
// through an InstallSnapshot plus the live suffix.
func TestSnapshotCatchUp(t *testing.T) {
	g, nodes, sms := newTestGroup(3, 21, nil, true, 4)
	defer g.Stop()
	if !nodes[0].Campaign() {
		t.Fatal("n0 should win")
	}
	nodes[2].Stop()
	for i := 0; i < 8; i++ {
		if _, _, err := nodes[0].Propose([]byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatal(err)
		}
		nodes[0].Heartbeat()
		nodes[0].DrainApply()
		nodes[1].DrainApply()
	}
	if logBase(nodes[0]) == 0 {
		t.Fatal("leader should have compacted its log")
	}
	if g.metrics.snapshots.Value() == 0 {
		t.Fatal("consensus_snapshots_total should have counted the compaction")
	}

	nodes[2].Restart()
	nodes[0].Heartbeat() // ships the snapshot
	nodes[2].DrainApply()
	nodes[0].Heartbeat() // ships the suffix past the snapshot
	nodes[2].DrainApply()

	if g.metrics.snapInstalls.Value() == 0 {
		t.Fatal("consensus_snapshot_installs_total should have counted the install")
	}
	if got, want := sms[2].fingerprint(), sms[0].fingerprint(); got != want {
		t.Fatalf("restarted replica applied %q, want %q", got, want)
	}
	if b := logBase(nodes[2]); b == 0 {
		t.Fatal("restarted replica should be running from an installed snapshot")
	}
	if nodes[2].CommitIndex() != nodes[0].CommitIndex() {
		t.Fatalf("commit index mismatch: %d vs %d", nodes[2].CommitIndex(), nodes[0].CommitIndex())
	}
}

func TestSingleNodeCommits(t *testing.T) {
	g, nodes, sms := newTestGroup(1, 31, nil, false, 0)
	defer g.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for g.Leader() == nil {
		if time.Now().After(deadline) {
			t.Fatal("single node never elected itself")
		}
		time.Sleep(time.Millisecond)
	}
	res, err := nodes[0].ProposeWait([]byte("v"), time.Second)
	if err != nil {
		t.Fatalf("propose: %v", err)
	}
	if res != "v" {
		t.Fatalf("apply result = %v, want v", res)
	}
	if sms[0].fingerprint() != "v" {
		t.Fatalf("applied %q, want v", sms[0].fingerprint())
	}
}

// TestConcurrentProposalStress hammers a timed 3-node group with parallel
// proposers while the leader is killed and restarted mid-stream. Every
// command must commit at least once (retries may double-apply, which the
// control plane's idempotent commands tolerate) and every replica must
// apply the identical sequence. Run with -race in the race matrix.
func TestConcurrentProposalStress(t *testing.T) {
	g, nodes, sms := newTestGroup(3, 41, nil, false, 64)
	defer g.Stop()
	waitLeader := func() *Node {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if n := g.Leader(); n != nil {
				return n
			}
			if time.Now().After(deadline) {
				t.Fatal("no leader elected")
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitLeader()

	const workers, keys = 8, 25
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				cmd := []byte(fmt.Sprintf("g%d-k%d", w, k))
				committed := false
				for try := 0; try < 200 && !committed; try++ {
					n := g.Leader()
					if n == nil {
						time.Sleep(2 * time.Millisecond)
						continue
					}
					if _, err := n.ProposeWait(cmd, 500*time.Millisecond); err == nil {
						committed = true
					}
				}
				if !committed {
					errCh <- fmt.Errorf("command %s never committed", cmd)
					return
				}
			}
		}(w)
	}

	// Kill the leader mid-stream, then bring it back.
	time.Sleep(20 * time.Millisecond)
	victim := waitLeader()
	victim.Stop()
	time.Sleep(100 * time.Millisecond)
	victim.Restart()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Barrier (retrying across leader changes), then wait for every
	// replica to drain its apply queue.
	leader := waitLeader()
	for try := 0; ; try++ {
		if err := leader.Barrier(2 * time.Second); err == nil {
			break
		} else if try == 20 {
			t.Fatalf("barrier: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
		leader = waitLeader()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		caught := true
		for _, n := range nodes {
			if !n.Stopped() && n.Applied() < leader.CommitIndex() {
				caught = false
			}
		}
		if caught {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replicas never caught up to the commit index")
		}
		time.Sleep(2 * time.Millisecond)
	}
	want := sms[0].fingerprint()
	for i, sm := range sms {
		if nodes[i].Stopped() {
			continue
		}
		if got := sm.fingerprint(); got != want {
			t.Fatalf("node %d applied sequence diverges from node 0", i)
		}
	}
	seen := make(map[string]bool)
	for _, cmd := range strings.Split(want, ",") {
		seen[cmd] = true
	}
	for w := 0; w < workers; w++ {
		for k := 0; k < keys; k++ {
			if !seen[fmt.Sprintf("g%d-k%d", w, k)] {
				t.Fatalf("command g%d-k%d missing from the applied sequence", w, k)
			}
		}
	}
}
