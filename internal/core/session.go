package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"sdp/internal/netsim"
	"sdp/internal/obs"
	"sdp/internal/sqldb"
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

// waitAny blocks until one of the futures resolves and returns its outcome —
// the aggressive controller's "return as soon as one machine answers".
func waitAny(futs []*future) opResult {
	if len(futs) == 1 {
		return futs[0].wait()
	}
	ch := make(chan opResult, len(futs))
	for _, f := range futs {
		go func(f *future) { ch <- f.wait() }(f)
	}
	return <-ch
}

// replicaSession is the controller's connection to one machine on behalf of
// one distributed transaction. Operations on it execute strictly in the
// order they were submitted, like statements written down one JDBC
// connection, but machines run independently of each other — the property
// that makes the aggressive controller's anomaly (Table 1) possible.
//
// An operation submitted while nothing is in flight runs on the submitting
// goroutine: a read, a one-phase commit and one replica's share of every 2PC
// phase cost a function call. The rest — anything behind an unfinished
// operation, and what the transaction sends viaWorker: a write that goes to
// several replicas, the other replicas of a 2PC phase, a PREPARE whose vote
// is collected under a deadline — goes down a FIFO queue to the session's
// worker goroutine, started by the first such operation, so one goroutine at
// a time touches the sqldb branch.
// With a simulated network every operation crosses the controller→machine
// link wherever it executes, so injected latency delays later operations on
// the same machine as a slow connection would.
type replicaSession struct {
	c       *Cluster
	machine *Machine
	txn     *sqldb.Txn
	link    *netsim.Link // nil without a simulated network

	// ops feeds the worker; nil until an operation needs it. queued counts
	// the operations sent down ops that have not finished: the submitter
	// raises it, the worker lowers it, and zero means the branch is the
	// submitter's to use.
	ops    chan queuedOp
	queued atomic.Int32
	// handOff is set while viaWorker submits: the operation goes to the
	// worker even though the session is idle.
	handOff bool
}

// queuedOp is one operation handed to the worker and the future it resolves.
type queuedOp struct {
	fn  func() opResult
	fut *future
}

// newReplicaSession begins a transaction branch on the machine (across the
// controller's link to it, when a network is simulated).
func newReplicaSession(c *Cluster, m *Machine, db string, globalID uint64) (*replicaSession, error) {
	if m.Failed() {
		return nil, ErrMachineFailed
	}
	link := c.opts.Network.Link(c.endpoint, m.ID())
	var txn *sqldb.Txn
	err := callLink(link, "begin", false, func() error {
		var berr error
		txn, berr = m.Engine().BeginWithID(db, globalID)
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
			return nil, fmt.Errorf("%w: %s has no %s (%v)", ErrStaleRoute, m.ID(), db, err)
		}
		return nil, err
	}
	return &replicaSession{c: c, machine: m, txn: txn, link: link}, nil
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
// link), never on a lost reply, whose outcome is ambiguous.
func (s *replicaSession) call(op string, idempotent bool, fn func() error) error {
	if s.link == nil {
		return fn()
	}
	backoff := s.c.opts.RetryBackoff
	var err error
	for attempt := 0; ; attempt++ {
		err = s.link.Call(op, idempotent, fn)
		if err == nil || !netsim.IsTransient(err) {
			return err
		}
		if !idempotent && netsim.Executed(err) {
			return err
		}
		if attempt >= s.c.opts.RetryLimit {
			return err
		}
		if s.machine.Failed() {
			return ErrMachineFailed
		}
		s.c.metrics.netRetry.With(op).Inc()
		time.Sleep(backoff)
		backoff *= 2
	}
}

// submit schedules fn after every operation already submitted to this
// machine and returns a future for its result. With nothing in flight, fn
// runs on the caller before submit returns; otherwise, or under viaWorker, it
// is queued for the worker. A session has one submitter at a time (the
// transaction's goroutine, or the takeover that inherited it), so a session
// found idle stays idle until that submitter's next call.
func (s *replicaSession) submit(fn func() opResult) *future {
	if !s.handOff && s.queued.Load() == 0 {
		return resolved(s.guard(fn))
	}
	if s.ops == nil {
		// Room for the writes an aggressive transaction leaves pending on a
		// slow machine; beyond it the submitter waits for that machine.
		s.ops = make(chan queuedOp, 64)
		go s.work()
	}
	fut := newFuture()
	s.queued.Add(1)
	s.ops <- queuedOp{fn, fut}
	return fut
}

// viaWorker submits one operation (op is a session method such as
// (*replicaSession).prepare) to the worker even if the session is idle, for a
// caller that must not execute it itself: it has other machines to dispatch
// to first, or it waits for the result under a deadline.
func (s *replicaSession) viaWorker(op func(*replicaSession) *future) *future {
	s.handOff = true
	fut := op(s)
	s.handOff = false
	return fut
}

// work is the worker: it executes queued operations in order until close.
// An operation stops counting as queued before its future resolves, so
// whoever waited for the last future finds the session idle.
func (s *replicaSession) work() {
	for op := range s.ops {
		r := s.guard(op.fn)
		s.queued.Add(-1)
		op.fut.complete(r)
	}
}

// close stops the worker, if one was started, once it has drained the queue.
func (s *replicaSession) close() {
	if s.ops != nil {
		close(s.ops)
	}
}

// guard fails fast when the machine has died instead of touching its engine.
func (s *replicaSession) guard(fn func() opResult) opResult {
	if s.machine.Failed() {
		return opResult{err: ErrMachineFailed}
	}
	return fn()
}

// setTrace updates the branch's trace context, ordered behind any operations
// already in flight so it applies exactly to the statements submitted after
// it.
func (s *replicaSession) setTrace(tc obs.SpanContext) {
	s.submit(func() opResult {
		s.txn.SetTraceContext(tc)
		return opResult{}
	})
}

// execStmt submits a statement execution.
func (s *replicaSession) execStmt(stmt sqldb.Statement, params []sqldb.Value) *future {
	return s.submit(func() opResult {
		var res *sqldb.Result
		err := s.call("exec", false, func() error {
			var xerr error
			res, xerr = s.txn.ExecStmt(stmt, params...)
			return xerr
		})
		return opResult{res: res, err: err}
	})
}

// prepare submits the PREPARE action of 2PC. It runs after all previously
// submitted operations on this machine (FIFO), but independently of the
// transaction's pending operations on other machines. PREPARE is
// idempotent at the engine (a prepared transaction re-prepares as a no-op),
// so lost votes are retried.
func (s *replicaSession) prepare() *future {
	return s.submit(func() opResult {
		return opResult{err: s.call("prepare", true, s.txn.Prepare)}
	})
}

// commitPrepared submits the COMMIT action of 2PC. Idempotent: a second
// delivery finds the transaction committed and returns ErrTxnDone, which
// is normalised to success here so duplicated deliveries are transparent.
func (s *replicaSession) commitPrepared() *future {
	return s.submit(func() opResult {
		return opResult{err: alreadyDone(s.call("commit", true, s.txn.CommitPrepared))}
	})
}

// commit submits a one-phase commit (read-only branches).
func (s *replicaSession) commit() *future {
	return s.submit(func() opResult {
		return opResult{err: alreadyDone(s.call("commit1p", true, s.txn.Commit))}
	})
}

// alreadyDone maps the engine's "transaction already committed" answer to
// success: it is the expected result of re-delivering a commit.
func alreadyDone(err error) error {
	if errors.Is(err, sqldb.ErrTxnDone) {
		return nil
	}
	return err
}

// rollback submits a rollback. Idempotent: rolling back an aborted
// transaction is a no-op.
func (s *replicaSession) rollback() *future {
	return s.submit(func() opResult {
		return opResult{err: s.call("rollback", true, s.txn.Rollback)}
	})
}
