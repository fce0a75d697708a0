// Package netsim simulates the network between the platform's controllers
// and their machines. Every controller→machine interaction — statement
// execution, the PREPARE/COMMIT/ABORT actions of 2PC, read routing,
// Algorithm 1 dump/apply steps, cross-colo replication batches — crosses a
// directed Link, and each Link can be given faults: added latency, dropped
// requests, lost replies, duplicated deliveries of idempotent calls, and
// asymmetric partitions. A seeded PRNG drives every fault decision, so a
// failure run's schedule is reproducible from its seed.
//
// The fault model mirrors a TCP connection carrying an RPC protocol:
//
//   - per-link delivery is FIFO (the caller's session queues provide
//     ordering; netsim only adds latency inside the queue worker),
//   - a dropped request never executes at the receiver (ErrDropped),
//   - a lost reply means the call DID execute but the caller cannot know
//     (ErrReplyLost) — the ambiguity at the heart of 2PC timeout handling,
//   - duplicated delivery re-executes the call, but only for calls the
//     sender declared idempotent (the connection layer de-duplicates
//     sequence-numbered non-idempotent traffic, as TCP does; application
//     level retransmits of idempotent RPCs may re-execute),
//   - a partitioned link refuses traffic in one direction only
//     (ErrPartitioned); partition A→B says nothing about B→A.
//
// Delivery hooks fire after a call executes and before the reply returns,
// which is exactly the window "participant acked PREPARE, coordinator has
// not yet sent COMMIT" — tests use them to crash machines at a chosen
// protocol phase.
package netsim

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"sdp/internal/obs"
)

// Sentinel errors reported by Link.Call.
var (
	// ErrDropped means the request was lost before reaching the receiver;
	// the call did not execute. Safe to retry even for non-idempotent calls.
	ErrDropped = errors.New("netsim: message dropped")

	// ErrReplyLost means the call executed at the receiver but its reply was
	// lost. Only idempotent calls may be retried after this error.
	ErrReplyLost = errors.New("netsim: reply lost")

	// ErrPartitioned means the link currently refuses traffic in this
	// direction; the call did not execute.
	ErrPartitioned = errors.New("netsim: link partitioned")
)

// IsTransient reports whether err is a simulated network fault that a
// caller may retry (subject to the idempotency rules above), as opposed to
// an application error from the call itself.
func IsTransient(err error) bool {
	return errors.Is(err, ErrDropped) || errors.Is(err, ErrReplyLost) || errors.Is(err, ErrPartitioned)
}

// Executed reports whether the call ran at the receiver despite err: true
// for a lost reply, false for a dropped request or a partitioned link.
// Callers use it to distinguish "retry freely" from "outcome unknown".
func Executed(err error) bool { return errors.Is(err, ErrReplyLost) }

// Faults are the injectable fault rates and delays of one link (or the
// network-wide defaults). The zero value is a perfect link.
type Faults struct {
	// DropProb is the probability a request is lost before delivery.
	DropProb float64
	// ReplyLossProb is the probability the call executes but its reply is
	// lost.
	ReplyLossProb float64
	// DupProb is the probability an idempotent call is delivered (and
	// executed) twice.
	DupProb float64
	// Latency is the fixed added delay per delivery.
	Latency time.Duration
	// Jitter adds a uniformly distributed extra delay in [0, Jitter).
	Jitter time.Duration
}

// active reports whether the faults differ from a perfect link.
func (f Faults) active() bool { return f != Faults{} }

// CallInfo identifies one delivery for hooks: the directed link it crossed
// and the operation name the sender tagged it with.
type CallInfo struct {
	// From is the sending endpoint.
	From string
	// To is the receiving endpoint.
	To string
	// Op is the sender's operation tag (e.g. "prepare", "commit", "exec").
	Op string
	// Idempotent records the sender's idempotency declaration.
	Idempotent bool
}

// Hook observes a delivery. It runs after the call executed at the receiver
// and before the reply returns to the sender — the crash-at-phase window.
type Hook func(CallInfo)

// linkKey names a directed link.
type linkKey struct{ from, to string }

// linkState is the per-link fault configuration.
type linkState struct {
	faults      *Faults // nil: use network defaults
	partitioned bool
}

// Network is a simulated network: a set of directed links with injectable
// faults, driven by a single seeded PRNG. All methods are safe for
// concurrent use. A nil *Network is a valid perfect network on which Link
// returns nil links whose Call runs the function directly.
type Network struct {
	mu       sync.Mutex
	rng      *rand.Rand
	defaults Faults
	links    map[linkKey]*linkState
	hooks    []Hook

	// sleep is swappable for tests that must not spend wall-clock time.
	sleep func(time.Duration)

	calls      *obs.Counter
	dropped    *obs.Counter
	replyLost  *obs.Counter
	duplicated *obs.Counter
	refused    *obs.Counter
	delay      *obs.Histogram
	partitions *obs.Gauge
}

// New creates a network whose fault decisions are all drawn from a PRNG
// seeded with seed. Metrics are registered on reg; nil gives the network a
// private registry.
func New(seed int64, reg *obs.Registry) *Network {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Network{
		rng:   rand.New(rand.NewSource(seed)),
		links: make(map[linkKey]*linkState),
		sleep: time.Sleep,
		calls: reg.Counter("netsim_calls_total",
			"Simulated network deliveries attempted across all links"),
		dropped: reg.Counter("netsim_dropped_total",
			"Requests lost before delivery (the call never executed)"),
		replyLost: reg.Counter("netsim_reply_lost_total",
			"Calls that executed but whose reply was lost (2PC's ambiguous outcome)"),
		duplicated: reg.Counter("netsim_duplicated_total",
			"Idempotent calls delivered and executed twice"),
		refused: reg.Counter("netsim_partition_refused_total",
			"Calls refused by a partitioned link"),
		delay: reg.Histogram("netsim_delay_seconds",
			"Injected per-delivery latency", nil),
		partitions: reg.Gauge("netsim_partitions_active",
			"Directed links currently partitioned"),
	}
}

// SetDefaults installs the network-wide fault rates used by links without a
// per-link override.
func (n *Network) SetDefaults(f Faults) {
	if n == nil {
		return
	}
	n.mu.Lock()
	n.defaults = f
	n.mu.Unlock()
}

// SetFaults installs a per-link fault override for the directed link
// from→to.
func (n *Network) SetFaults(from, to string, f Faults) {
	if n == nil {
		return
	}
	n.mu.Lock()
	n.state(from, to).faults = &f
	n.mu.Unlock()
}

// Partition blocks the directed link from→to. Traffic to→from is
// unaffected — partitions are asymmetric by default.
func (n *Network) Partition(from, to string) {
	if n == nil {
		return
	}
	n.mu.Lock()
	st := n.state(from, to)
	if !st.partitioned {
		st.partitioned = true
		n.partitions.Inc()
	}
	n.mu.Unlock()
}

// PartitionPair blocks both directions between a and b.
func (n *Network) PartitionPair(a, b string) {
	n.Partition(a, b)
	n.Partition(b, a)
}

// Heal unblocks the directed link from→to.
func (n *Network) Heal(from, to string) {
	if n == nil {
		return
	}
	n.mu.Lock()
	if st, ok := n.links[linkKey{from, to}]; ok && st.partitioned {
		st.partitioned = false
		n.partitions.Dec()
	}
	n.mu.Unlock()
}

// HealAll removes every partition.
func (n *Network) HealAll() {
	if n == nil {
		return
	}
	n.mu.Lock()
	for _, st := range n.links {
		if st.partitioned {
			st.partitioned = false
			n.partitions.Dec()
		}
	}
	n.mu.Unlock()
}

// Partitioned reports whether the directed link from→to currently refuses
// traffic. Safe on a nil network (always false).
func (n *Network) Partitioned(from, to string) bool {
	if n == nil {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	st, ok := n.links[linkKey{from, to}]
	return ok && st.partitioned
}

// OnDeliver registers a delivery hook. Hooks run on the delivering
// goroutine after the call executed, before the reply returns; a hook that
// needs to mutate cluster state (e.g. crash a machine) should do so in a
// fresh goroutine if that mutation can block on the delivering path.
func (n *Network) OnDeliver(h Hook) {
	if n == nil {
		return
	}
	n.mu.Lock()
	n.hooks = append(n.hooks, h)
	n.mu.Unlock()
}

// ClearHooks removes all delivery hooks.
func (n *Network) ClearHooks() {
	if n == nil {
		return
	}
	n.mu.Lock()
	n.hooks = nil
	n.mu.Unlock()
}

// Quiesce returns the network to a perfect state: defaults and per-link
// fault overrides cleared, partitions healed, hooks removed. The chaos
// driver calls it before draining traffic so invariant checks run over a
// settled cluster.
func (n *Network) Quiesce() {
	if n == nil {
		return
	}
	n.mu.Lock()
	n.defaults = Faults{}
	for _, st := range n.links {
		st.faults = nil
		if st.partitioned {
			st.partitioned = false
			n.partitions.Dec()
		}
	}
	n.hooks = nil
	n.mu.Unlock()
}

// state returns (creating if needed) the directed link state. Caller holds
// n.mu.
func (n *Network) state(from, to string) *linkState {
	k := linkKey{from, to}
	st, ok := n.links[k]
	if !ok {
		st = &linkState{}
		n.links[k] = st
	}
	return st
}

// Link returns the directed link from→to. A nil network returns a nil
// link, whose Call invokes the function directly with no fault layer — the
// zero-overhead path for clusters running without netsim.
func (n *Network) Link(from, to string) *Link {
	if n == nil {
		return nil
	}
	return &Link{net: n, from: from, to: to}
}

// Link is one directed sender→receiver channel of the network.
type Link struct {
	net      *Network
	from, to string
}

// decision is the set of fault draws for one delivery, taken under the
// network mutex in a fixed order so a seed reproduces the same stream.
type decision struct {
	partitioned bool
	drop        bool
	dup         bool
	replyLost   bool
	delay       time.Duration
	hooks       []Hook
}

// decide draws all fault decisions for one delivery.
func (n *Network) decide(from, to string, idempotent bool) decision {
	n.mu.Lock()
	defer n.mu.Unlock()
	var d decision
	st := n.links[linkKey{from, to}]
	if st != nil && st.partitioned {
		d.partitioned = true
		return d
	}
	f := n.defaults
	if st != nil && st.faults != nil {
		f = *st.faults
	}
	if !f.active() {
		d.hooks = n.hooks
		return d
	}
	// Fixed draw order: drop, dup, reply-loss, jitter. Every delivery
	// consumes the same number of PRNG values regardless of which faults
	// fire, so one link's traffic does not shift another link's stream.
	d.drop = n.rng.Float64() < f.DropProb
	d.dup = idempotent && n.rng.Float64() < f.DupProb
	d.replyLost = n.rng.Float64() < f.ReplyLossProb
	d.delay = f.Latency
	if f.Jitter > 0 {
		d.delay += time.Duration(n.rng.Int63n(int64(f.Jitter)))
	}
	d.hooks = n.hooks
	return d
}

// Call delivers one operation across the link: injected latency is slept,
// a dropped request returns ErrDropped without running fn, a partitioned
// link returns ErrPartitioned, a duplicated delivery runs an idempotent fn
// twice, and a lost reply runs fn but returns ErrReplyLost. Otherwise fn's
// own error is returned. A nil link runs fn directly.
func (l *Link) Call(op string, idempotent bool, fn func() error) error {
	if l == nil {
		return fn()
	}
	n := l.net
	n.calls.Inc()
	d := n.decide(l.from, l.to, idempotent)
	if d.partitioned {
		n.refused.Inc()
		return ErrPartitioned
	}
	if d.delay > 0 {
		n.delay.ObserveDuration(d.delay)
		n.sleep(d.delay)
	}
	if d.drop {
		n.dropped.Inc()
		return ErrDropped
	}
	err := fn()
	if d.dup {
		n.duplicated.Inc()
		err = fn()
	}
	info := CallInfo{From: l.from, To: l.to, Op: op, Idempotent: idempotent}
	for _, h := range d.hooks {
		h(info)
	}
	if d.replyLost {
		n.replyLost.Inc()
		return ErrReplyLost
	}
	return err
}
