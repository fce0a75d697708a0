package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"sdp/internal/netsim"
	"sdp/internal/obs"
	"sdp/internal/sqldb"
	"sdp/internal/twopc"
)

// opResult is the outcome of one operation executed on a replica.
type opResult struct {
	res *sqldb.Result
	err error
}

// future resolves to the result of an operation on a replica session. It is
// safe for any number of goroutines to wait on it.
type future struct {
	done chan struct{}
	res  opResult
}

func newFuture() *future { return &future{done: make(chan struct{})} }

// resolvedSignal is the done channel shared by every future born resolved.
var resolvedSignal = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// resolved returns the future of an operation that already ran.
func resolved(r opResult) *future { return &future{done: resolvedSignal, res: r} }

// complete resolves the future. It must be called exactly once.
func (f *future) complete(r opResult) {
	f.res = r
	close(f.done)
}

// wait blocks until the operation finishes and returns its outcome. It may
// be called repeatedly and concurrently.
func (f *future) wait() opResult {
	<-f.done
	return f.res
}

// poll returns the outcome if the operation has finished.
func (f *future) poll() (opResult, bool) {
	select {
	case <-f.done:
		return f.res, true
	default:
		return opResult{}, false
	}
}

// waitTimeout blocks until the operation finishes or d elapses, reporting
// whether an outcome arrived in time. A non-positive d waits forever — the
// no-network configuration, where an in-process call cannot stall.
func (f *future) waitTimeout(d time.Duration) (opResult, bool) {
	if d <= 0 {
		return f.wait(), true
	}
	select {
	case <-f.done:
		return f.res, true
	default:
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-f.done:
		return f.res, true
	case <-t.C:
		return opResult{}, false
	}
}

// replicaSession is the controller's connection to one machine on behalf of
// one distributed transaction. Operations on it execute strictly in the
// order they were submitted, like statements written down one JDBC
// connection, but machines run independently of each other — the property
// that makes the aggressive controller's anomaly (Table 1) possible.
//
// An operation is a function call: do runs it on the submitting goroutine
// whenever nothing is in flight on the session, which under a conservative
// controller with no simulated time is always (Txn.fanOut). Only what send
// hands over — the shares of a fan-out that overlaps machines, and anything
// submitted behind one of those that has not finished — goes down a FIFO
// queue to the session's worker goroutine, started by the first send, so one
// goroutine at a time touches the sqldb branch.
// With a simulated network every operation crosses the controller→machine
// link wherever it executes, so injected latency delays later operations on
// the same machine as a slow connection would.
type replicaSession struct {
	c       *Cluster
	machine *Machine
	txn     *sqldb.Txn
	link    *netsim.Link // nil without a simulated network
	term    uint64       // the controller lease term the transaction began under
	db      string       // the database the transaction runs in

	// ops feeds the worker; nil until a send needs it. queued counts the
	// operations sent down ops that have not finished: the submitter raises
	// it, the worker lowers it, and zero means the branch is the submitter's
	// to use.
	ops    chan queuedOp
	queued atomic.Int32
}

// An op is one operation on a replica session: a session method such as
// (*replicaSession).prepare, or execOp's closure over a statement.
type op func(*replicaSession) opResult

// queuedOp is one operation handed to the worker and the future it resolves.
type queuedOp struct {
	op  op
	fut *future
}

// newReplicaSession begins t's branch on the machine (across the
// controller's link to it, when a network is simulated).
func newReplicaSession(t *Txn, m *Machine) (*replicaSession, error) {
	if m.Failed() {
		return nil, ErrMachineFailed
	}
	c := t.c
	link := c.opts.Network.Link(c.endpoint, m.ID())
	var txn *sqldb.Txn
	err := callLink(link, "begin", false, func() error {
		var berr error
		txn, berr = m.Engine().BeginWithID(t.db, t.gid)
		return berr
	})
	if err != nil {
		if txn != nil {
			// Reply lost after the branch began: roll the orphan back so a
			// begin the controller never learned of cannot hold locks.
			_ = txn.Rollback()
		}
		if errors.Is(err, sqldb.ErrNoTable) {
			// The route said this machine hosts the database but its engine
			// disagrees: an aborted replica copy dropped its half-copied
			// destination between routing and begin. Retryable, not a
			// schema error.
			return nil, fmt.Errorf("%w: %s has no %s (%v)", ErrStaleRoute, m.ID(), t.db, err)
		}
		return nil, err
	}
	return &replicaSession{c: c, machine: m, txn: txn, link: link, term: t.term, db: t.db}, nil
}

// callLink delivers fn across link, or runs it directly on a nil link.
func callLink(link *netsim.Link, op string, idempotent bool, fn func() error) error {
	if link == nil {
		return fn()
	}
	return link.Call(op, idempotent, fn)
}

// call delivers fn across the session's link with bounded
// exponential-backoff retries. Idempotent operations (PREPARE, COMMIT,
// ROLLBACK — all safe to re-deliver, see their engine-side no-op behaviour
// on repeated application) retry on any transient network fault;
// non-idempotent operations (statement execution) retry only when the
// request provably never executed (a dropped request or a partitioned
// link), never on a lost reply, whose outcome is ambiguous. A call that
// gives up after some attempt executed with its reply lost returns that
// attempt's error, so netsim.Executed still says the operation may have
// taken effect.
func (s *replicaSession) call(op string, idempotent bool, fn func() error) error {
	if s.link == nil {
		return fn()
	}
	backoff := s.c.opts.RetryBackoff
	var ran error
	for attempt := 0; ; attempt++ {
		err := s.link.Call(op, idempotent, fn)
		if err == nil || !netsim.IsTransient(err) {
			return err
		}
		if netsim.Executed(err) {
			if !idempotent {
				return err
			}
			ran = err
		}
		if attempt >= s.c.opts.RetryLimit {
			return cmp.Or(ran, err)
		}
		if s.machine.Failed() {
			return cmp.Or(ran, ErrMachineFailed)
		}
		s.c.metrics.netRetry.With(op).Inc()
		time.Sleep(backoff)
		backoff *= 2
	}
}

// do runs o after every operation already submitted to this machine and
// returns its outcome: a plain call when nothing is in flight, else a trip
// through the worker's queue. A session has one submitter at a time (the
// transaction's goroutine), so a session found idle stays idle until that
// submitter's next call.
func (s *replicaSession) do(o op) opResult {
	if s.queued.Load() == 0 {
		return s.run(o)
	}
	return s.send(o).wait()
}

// start is do for a caller that collects the outcome later, or never: the
// future is born resolved when o ran here.
func (s *replicaSession) start(o op) *future {
	if s.queued.Load() == 0 {
		return resolved(s.run(o))
	}
	return s.send(o)
}

// send queues o for the worker even if the session is idle, for a caller
// that must not execute it itself: it has other machines to dispatch to
// first, or it waits for the result under a deadline.
func (s *replicaSession) send(o op) *future {
	if s.ops == nil {
		// Room for the writes an aggressive transaction leaves pending on a
		// slow machine; beyond it the submitter waits for that machine.
		s.ops = make(chan queuedOp, 64)
		go s.work()
	}
	fut := newFuture()
	s.queued.Add(1)
	s.ops <- queuedOp{o, fut}
	return fut
}

// work is the worker: it executes queued operations in order until close.
// An operation stops counting as queued before its future resolves, so
// whoever waited for the last future finds the session idle.
func (s *replicaSession) work() {
	for q := range s.ops {
		r := s.run(q.op)
		s.queued.Add(-1)
		q.fut.complete(r)
	}
}

// close stops the worker, if one was started, once it has drained the queue.
func (s *replicaSession) close() {
	if s.ops != nil {
		close(s.ops)
	}
}

// run executes o here and now, failing fast when the machine has died
// instead of touching its engine.
func (s *replicaSession) run(o op) opResult {
	if s.machine.Failed() {
		return opResult{err: ErrMachineFailed}
	}
	return o(s)
}

// setTrace updates the branch's trace context, ordered behind any operations
// already in flight so it applies exactly to the statements submitted after
// it.
func (s *replicaSession) setTrace(tc obs.SpanContext) {
	s.start(func(s *replicaSession) opResult {
		s.txn.SetTraceContext(tc)
		return opResult{}
	})
}

// execOp is the execution of one statement.
func execOp(stmt sqldb.Statement, params []sqldb.Value) op {
	return func(s *replicaSession) opResult {
		var res *sqldb.Result
		err := s.call("exec", false, func() error {
			var xerr error
			res, xerr = s.txn.ExecStmt(stmt, params...)
			return xerr
		})
		if errors.Is(err, sqldb.ErrNoTable) {
			// On a machine that is no replica, the table is missing because
			// the machine's copy of the database was dropped after the write
			// was routed there and a copy has re-created it without the
			// table yet: a stale route, not a schema error.
			if reps, _ := s.c.Replicas(s.db); !slices.Contains(reps, s.machine.ID()) {
				err = fmt.Errorf("%w: %s (%v)", ErrStaleRoute, s.machine.ID(), err)
			}
		}
		return opResult{res: res, err: err}
	}
}

// prepare is the PREPARE action of 2PC. It runs after all previously
// submitted operations on this machine (FIFO), but independently of the
// transaction's pending operations on other machines. PREPARE is
// idempotent at the engine (a prepared transaction re-prepares as a no-op),
// so lost votes are retried.
func (s *replicaSession) prepare() opResult {
	return opResult{err: s.call("prepare", true, s.txn.Prepare)}
}

// commitPrepared is the COMMIT action of 2PC, delivered only while the
// controller lease the transaction began under holds: a coordinator whose
// controller was deposed stops itself and leaves its branches to the new
// leader's resolver, whose claim refuses a COMMIT that slips past the check.
// Idempotent: a second delivery finds the transaction committed and returns
// ErrTxnDone, which is normalised to success here so duplicated deliveries
// are transparent.
func (s *replicaSession) commitPrepared() opResult {
	if !s.c.ctl.holdsLease(s.term) {
		return opResult{err: errDeposed}
	}
	return opResult{err: twopc.Redelivered(s.call("commit", true, s.txn.CommitPrepared))}
}

// commit is a one-phase commit (read-only branches).
func (s *replicaSession) commit() opResult {
	return opResult{err: twopc.Redelivered(s.call("commit1p", true, s.txn.Commit))}
}

// rollback aborts the branch. Idempotent: rolling back an aborted
// transaction is a no-op.
func (s *replicaSession) rollback() opResult {
	return opResult{err: s.call("rollback", true, s.txn.Rollback)}
}
