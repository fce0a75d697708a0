package core

import (
	"cmp"
	"errors"
	"fmt"
	"time"

	"sdp/internal/netsim"
	"sdp/internal/obs"
	"sdp/internal/sqldb"
	"sdp/internal/twopc"
	"sdp/internal/wal"
)

// Txn is a distributed transaction managed by the cluster controller. Reads
// execute on one replica chosen by the read option; writes execute on all
// replicas; commit runs two-phase commit across the machines touched. A Txn
// must be used from a single goroutine, like a database connection.
type Txn struct {
	c     *Cluster
	db    string
	gid   uint64
	term  uint64    // the controller lease term it began under
	start time.Time // for the SLA monitor's commit-latency accounting

	// sessions holds one branch per machine touched, in the order the routes
	// first named them, so every 2PC fan-out visits machines in the same
	// order. It starts out backed by sessionBuf: a transaction on two
	// replicas allocates nothing for it.
	sessions   []*replicaSession
	sessionBuf [2]*replicaSession
	resultBuf  [3]opResult // backs fanOut's outcomes: two replicas and a copy target
	readHome   string      // Option 2's per-transaction read replica
	// targetBuf backs a write's route, three replicas, and then its rest.
	targetBuf [6]string

	wrote    bool
	finished bool
	// rejected marks a transaction aborted by a proactive Algorithm 1
	// rejection, so the SLA monitor books it against the availability
	// bound instead of the inherent-abort tally.
	rejected bool

	// async tracks, in aggressive mode, writes whose remaining replicas
	// have not been confirmed yet. Before each subsequent operation the
	// already-resolved ones are checked; unresolved ones are left pending
	// and ultimately checked by the PREPARE votes.
	async []*future

	// trace is the distributed-tracing context this transaction's spans
	// (read routing, 2PC phases) parent under. The zero value disables
	// recording.
	trace obs.SpanContext
}

// SetTraceContext installs (or, with the zero value, clears) the trace
// context the transaction's core-layer spans parent under. The context is
// forwarded to every replica session — ordered behind any operations still
// in flight there — so engine-side statement and WAL-flush spans join the
// same trace.
func (t *Txn) SetTraceContext(tc obs.SpanContext) {
	if t.trace == tc {
		return
	}
	t.trace = tc
	for _, s := range t.sessions {
		s.setTrace(tc)
	}
}

// recordSpan records one core-scope span, id, under the transaction's
// context.
func (t *Txn) recordSpan(id uint64, name, detail string, start time.Time) {
	t.c.metrics.reg.Spans().Record(obs.Span{
		TraceID:  t.trace.TraceID,
		SpanID:   id,
		Parent:   t.trace.SpanID,
		Scope:    "core",
		Name:     name,
		ID:       t.db,
		Start:    start,
		Duration: time.Since(start),
		Detail:   detail,
	})
}

// session returns (creating if needed) the replica session on machine id.
func (t *Txn) session(id string) (*replicaSession, error) {
	for _, s := range t.sessions {
		if s.machine.ID() == id {
			return s, nil
		}
	}
	m, err := t.c.Machine(id)
	if err != nil {
		return nil, err
	}
	s, err := newReplicaSession(t, m)
	if err != nil {
		return nil, err
	}
	if t.trace.Traced() {
		s.setTrace(t.trace)
	}
	t.sessions = append(t.sessions, s)
	return s, nil
}

// Exec parses and executes one statement, serving repeated statement text
// from the controller's shared statement cache. SELECT statements are routed
// to a single replica; all other statements execute on every replica of the
// database (read-one-write-all).
func (t *Txn) Exec(sql string, params ...sqldb.Value) (*sqldb.Result, error) {
	stmt, err := t.Parse(sql)
	if err != nil {
		return nil, err
	}
	return t.ExecStmt(stmt, params...)
}

// Parse returns the parsed form of sql from the controller's shared
// statement cache. Callers that need the statement before executing it (the
// system layer decides from its kind whether to capture it for DR) get the
// same AST for a text that repeats, and with it the plans every replica
// engine has bound from it.
func (t *Txn) Parse(sql string) (sqldb.Statement, error) {
	return t.c.stmts.Parse(sql)
}

// ExecStmt executes a pre-parsed statement.
func (t *Txn) ExecStmt(stmt sqldb.Statement, params ...sqldb.Value) (*sqldb.Result, error) {
	if t.finished {
		return nil, ErrTxnDone
	}
	if err := t.checkAsync(); err != nil {
		t.abort()
		return nil, err
	}
	switch s := stmt.(type) {
	case *sqldb.SelectStmt, *sqldb.ExplainStmt:
		// EXPLAIN is a read: route it like the statement it describes.
		return t.execRead(stmt, params)
	case *sqldb.InsertStmt:
		return t.execWrite(stmt, s.Table, params)
	case *sqldb.UpdateStmt:
		return t.execWrite(stmt, s.Table, params)
	case *sqldb.DeleteStmt:
		return t.execWrite(stmt, s.Table, params)
	case *sqldb.CreateTableStmt:
		return t.execCreate(s, params)
	case *sqldb.CreateIndexStmt:
		return t.execWrite(stmt, s.Table, params)
	case *sqldb.DropTableStmt:
		return t.execWrite(stmt, s.Table, params)
	case *sqldb.BeginStmt:
		return &sqldb.Result{}, nil // transactions are explicit in this API
	case *sqldb.CommitStmt:
		return &sqldb.Result{}, t.Commit()
	case *sqldb.RollbackStmt:
		return &sqldb.Result{}, t.Rollback()
	default:
		return nil, fmt.Errorf("core: unsupported statement %T", stmt)
	}
}

// checkAsync inspects resolved-but-unchecked asynchronous writes; a failure
// on any replica aborts the transaction, per the paper's aggressive
// controller ("subsequent operations of the transaction are aborted").
func (t *Txn) checkAsync() error {
	remaining := t.async[:0]
	var firstErr error
	for _, f := range t.async {
		if r, done := f.poll(); done {
			if r.err != nil && firstErr == nil {
				firstErr = r.err
			}
		} else {
			remaining = append(remaining, f)
		}
	}
	t.async = remaining
	return firstErr
}

// execRead routes a read-only statement to one replica.
func (t *Txn) execRead(stmt sqldb.Statement, params []sqldb.Value) (*sqldb.Result, error) {
	id, err := t.c.pickReadMachine(t)
	if err != nil {
		t.abort()
		return nil, err
	}
	s, err := t.session(id)
	if err != nil {
		t.abort()
		return nil, err
	}
	traced := t.trace.Traced()
	var readStart time.Time
	if traced {
		readStart = time.Now()
	}
	r := s.do(execOp(stmt, params))
	if traced {
		t.recordSpan(obs.NewTraceID(), "read", "machine="+id, readStart)
	}
	if r.err != nil {
		t.abort()
		return nil, r.err
	}
	return r.res, nil
}

// execWrite runs a write on every replica, applying Algorithm 1 during
// replica creation, and acknowledges it per the controller's AckMode. Its
// head share runs first, on this goroutine, and the rest only once the head
// holds the write's locks. So every transaction takes a row's lock at the
// head before any other replica: two writers of one row meet there and
// nowhere else, a write–write cycle is whole in the head's wait-for graph,
// and its deadlock detector, not the lock timeout, breaks it. The head is
// also a copy's source, so the share holds the table's lock against the
// copy's dump: the rest, settled after it (writeRest), goes to the copy's
// target if the table's image was taken before, and the image waits for the
// write otherwise.
func (t *Txn) execWrite(stmt sqldb.Statement, table string, params []sqldb.Value) (*sqldb.Result, error) {
	route, err := t.c.writeRoute(t.db, table, t.targetBuf[:0:3])
	if err != nil {
		if IsRejection(err) {
			t.rejected = true
		}
		t.abort()
		return nil, err
	}
	return t.runWrite(stmt, table, params, route)
}

// execCreate runs a CREATE TABLE as execWrite runs a write, routed by
// createRoute: refused while a copy of the database runs, and counted until
// it returns, so that no copy begins meanwhile.
func (t *Txn) execCreate(s *sqldb.CreateTableStmt, params []sqldb.Value) (*sqldb.Result, error) {
	route, done, err := t.c.createRoute(t.db, t.targetBuf[:0:3])
	if err != nil {
		t.abort()
		return nil, err
	}
	defer done()
	return t.runWrite(s, s.Table, params, route)
}

// runWrite runs a write routed to route, head first: the head share here,
// then the rest (writeRest).
func (t *Txn) runWrite(stmt sqldb.Statement, table string, params []sqldb.Value, route []string) (*sqldb.Result, error) {
	t.wrote = true
	o := execOp(stmt, params)
	head, err := t.session(route[0])
	if err != nil {
		t.abort()
		return nil, err
	}
	r := head.do(o)
	if r.err != nil {
		t.abort()
		return nil, r.err
	}
	rest, err := t.c.writeRest(t.db, table, route, t.targetBuf[3:3])
	if err != nil {
		t.abort()
		return nil, err
	}
	var buf [3]*replicaSession
	ss := buf[:0]
	for _, id := range rest {
		s, err := t.session(id)
		if err != nil {
			t.abort()
			return nil, err
		}
		ss = append(ss, s)
	}
	if t.c.opts.AckMode == Conservative {
		// Every replica has executed the write, or one has refused it, when
		// fanOut returns. Any failure aborts.
		for _, r := range t.fanOut(ss, o, acquire) {
			if r.err != nil {
				t.abort()
				return nil, r.err
			}
		}
		return r.res, nil
	}
	// Aggressive: acknowledge on the head's answer and leave the rest
	// pending on their workers.
	t.async = append(t.async, sendAll(ss, o, false)...)
	return r.res, nil
}

// phase is what a fan-out is for, which decides how it may be dispatched.
type phase int

const (
	acquire phase = iota // a write: takes locks, so a refusal ends it
	vote                 // PREPARE: collected under CallTimeout, and one NO decides
	decide               // COMMIT or ROLLBACK: reaches every session whatever the others answer
)

// fanOut runs o on every session in ss and returns the outcomes in ss's
// order, in a buffer the next fanOut reuses. This is the one place that
// decides where a replica operation runs.
//
// The shares run one machine after another in ss's order on this goroutine
// when no machine operation can take simulated time (Cluster.overlap is
// false), or when one session is left; an acquire (the rest of a write,
// after its head share) or a vote stops at the first error. Otherwise
// the machines work in parallel: the sessions after the first are sent to
// their workers before the first runs here, if that session is idle. A vote
// under a deadline runs nothing here, since a stalled machine would hold the
// coordinator past it; a vote that misses it reads ErrPrepareTimeout.
func (t *Txn) fanOut(ss []*replicaSession, o op, ph phase) []opResult {
	rs := t.resultBuf[:0]
	var deadline time.Duration
	if ph == vote {
		deadline = t.c.opts.CallTimeout
	}
	if deadline <= 0 && (len(ss) <= 1 || !t.c.overlap) {
		for _, s := range ss {
			r := s.do(o)
			rs = append(rs, r)
			if r.err != nil && ph != decide {
				break
			}
		}
		return rs
	}
	for _, f := range sendAll(ss, o, deadline <= 0) {
		r, ok := f.waitTimeout(deadline)
		if !ok {
			r.err = ErrPrepareTimeout
		}
		rs = append(rs, r)
	}
	return rs
}

// sendAll starts o on every session in ss, the first one last, and returns
// the futures in ss's order; with firstOnCaller the first session's share
// runs on this goroutine if that session is idle.
func sendAll(ss []*replicaSession, o op, firstOnCaller bool) []*future {
	futs := make([]*future, len(ss))
	for i := 1; i < len(ss); i++ {
		futs[i] = ss[i].send(o)
	}
	if len(ss) > 0 {
		if firstOnCaller {
			futs[0] = ss[0].start(o)
		} else {
			futs[0] = ss[0].send(o)
		}
	}
	return futs
}

// Commit finishes the transaction. Read-only transactions commit in one
// phase on each replica they touched; transactions with writes run 2PC: the
// PREPARE action goes to every session (behind any still-pending writes on
// that machine; across machines as fanOut decides) and the transaction
// commits only if every participant votes yes.
func (t *Txn) Commit() error {
	if t.finished {
		return ErrTxnDone
	}

	m := t.c.metrics
	if !t.wrote {
		var firstErr error
		for _, s := range t.sessions {
			r := s.do((*replicaSession).commit)
			firstErr = cmp.Or(firstErr, r.err)
			if netsim.IsTransient(r.err) {
				// The one-phase commit never reached a live machine: its
				// branch still holds read locks. Re-deliver the release in
				// the background (as a rollback — equivalent for a branch
				// with no writes) so the locks cannot leak.
				m.twopcTimeout.With("commit1p").Inc()
				t.c.rollbackLater(s, t.gid)
			}
		}
		if firstErr == nil {
			m.readonlyCommit.Inc()
		}
		t.finish(firstErr == nil)
		return firstErr
	}

	// Phase 1: prepare everywhere.
	m.prepareTotal.Inc()
	if t.c.opts.AckMode == Aggressive && t.c.opts.ReadOption != ReadOption1 &&
		t.c.opts.EngineConfig.ReleaseReadLocksAtPrepare {
		// The exact combination the paper proves non-serializable (Table
		// 1): read locks dropped at PREPARE while reads are routed per
		// transaction or per operation under an aggressive controller.
		m.unsafePrepare.Inc()
	}
	prepStart := time.Now()
	// A missing vote is a NO by the presumed-abort rule: the coordinator logs
	// nothing for aborts, so deciding abort on a timeout is always safe — a
	// participant that did prepare will be rolled back by the abort phase
	// (or, if it crashed, by the in-doubt rule at its restart: no
	// participant logged a commit). twopc.Coordinator decides each move.
	var co twopc.Coordinator
	timedOut := false
	for _, r := range t.fanOut(t.sessions, (*replicaSession).prepare, vote) {
		if r.err == ErrPrepareTimeout {
			timedOut = true
			m.twopcTimeout.With("prepare").Inc()
		}
		co.Vote(r.err)
	}
	m.prepareSeconds.ObserveDuration(time.Since(prepStart))
	if t.trace.Traced() {
		t.recordSpan(obs.NewTraceID(), "2pc_prepare", fmt.Sprintf("%d participants", len(t.sessions)), prepStart)
	}
	if mv := co.Voted(); mv&twopc.SendCommit == 0 {
		// Phase 2 (abort): roll everyone back.
		m.voteNoTotal.Inc()
		if timedOut {
			m.presumedAbort.Inc()
			m.reg.TraceEvent("2pc", gidString(t.gid), "presumed_abort", co.Err.Error())
		}
		t.rollbackAll()
		return t.conclude(mv, fmt.Errorf("core: transaction aborted by 2PC: %w", co.Err))
	}

	// Phase 2 (commit). The client hears "committed" only once some
	// participant is known to have committed — it acknowledged a COMMIT, or
	// its log holds the commit frame — and the in-doubt rule then commits
	// every branch this coordinator did not reach. A branch is left undecided
	// by a COMMIT lost to the network, refused by a resolver's claim, or never
	// sent because the lease this transaction began under ended
	// (commitPrepared); the resolver settles them when some COMMIT ran. A
	// machine that died between prepare and commit is settled by the same
	// rule at its restart.
	commitStart := time.Now()
	var commitSpanID uint64
	if t.trace.Traced() {
		// Re-point the replica branches at the commit span before the
		// decision goes out, so each engine's WAL-flush span parents under
		// the 2PC commit phase rather than the last statement.
		commitSpanID = obs.NewTraceID()
		ctc := obs.SpanContext{TraceID: t.trace.TraceID, SpanID: commitSpanID, Sampled: true}
		for _, s := range t.sessions {
			s.setTrace(ctc)
		}
	}
	for _, r := range t.fanOut(t.sessions, (*replicaSession).commitPrepared, decide) {
		ran := false // a COMMIT may have executed unanswered
		if netsim.IsTransient(r.err) {
			m.twopcTimeout.With("commit").Inc()
			ran = netsim.Executed(r.err)
		}
		co.Ack(r.err, ran)
	}
	mv := co.Acked()
	if mv&twopc.Resolve != 0 {
		verdict, err := t.c.resolve(t.gid, mv&twopc.Acknowledge != 0)
		mv = co.Settled(verdict, err != nil)
	}
	if mv&twopc.SendRollback != 0 {
		// No COMMIT ran, so the in-doubt rule can only abort: this
		// coordinator delivers that verdict itself, reading no log.
		t.rollbackAll()
	}
	m.commitSeconds.ObserveDuration(time.Since(commitStart))
	if t.trace.Traced() {
		t.recordSpan(commitSpanID, "2pc_commit", "", commitStart)
	}
	if mv&twopc.Acknowledge != 0 {
		return t.conclude(mv, nil)
	}
	m.reg.TraceEvent("2pc", gidString(t.gid), "unacknowledged", co.Err.Error())
	if mv&twopc.Unsure != 0 {
		// A COMMIT ran unanswered, and no log could be read yet to say
		// whether it committed: the background resolver will know.
		return t.conclude(mv, fmt.Errorf("%w: %v", ErrOutcomeUnknown, co.Err))
	}
	return t.conclude(mv, fmt.Errorf("core: no participant committed: %w", co.Err))
}

// conclude finishes the transaction with its coordinator's answer: nil if
// the client hears "committed", else refused.
func (t *Txn) conclude(mv twopc.Move, refused error) error {
	t.finish(mv&twopc.Acknowledge != 0)
	if mv&twopc.Acknowledge != 0 {
		return nil
	}
	return refused
}

// Rollback aborts the transaction on every replica it touched.
func (t *Txn) Rollback() error {
	if t.finished {
		return ErrTxnDone
	}
	t.abort()
	return nil
}

// abort rolls back every session and finishes the transaction. The guard on
// finished makes the abort counter exact: no matter how many error paths
// converge here (failed read, failed write, rejected route, explicit
// Rollback after an error), a transaction is counted aborted at most once.
func (t *Txn) abort() {
	if t.finished {
		return
	}
	t.rollbackAll()
	t.finish(false)
}

func (t *Txn) rollbackAll() {
	for i, r := range t.fanOut(t.sessions, (*replicaSession).rollback, decide) {
		if r.err != nil && netsim.IsTransient(r.err) {
			// The abort decision must still reach this participant or its
			// prepared/active branch would hold locks forever.
			t.c.rollbackLater(t.sessions[i], t.gid)
		}
	}
}

// finish stops the sessions' workers, marks the transaction finished, and
// books its outcome: the outcome counters, the SLA monitor (an abort that a
// proactive Algorithm 1 rejection caused counts against availability) and,
// for a commit, the history recorder.
func (t *Txn) finish(committed bool) {
	for _, s := range t.sessions {
		s.close()
	}
	t.finished = true
	m, mon := t.c.metrics, t.c.slamon
	switch {
	case committed:
		m.committed.Inc()
		mon.ObserveCommit(t.db, time.Since(t.start))
		if rec := t.c.opts.Recorder; rec != nil {
			rec.Commit(t.gid)
		}
	case t.rejected:
		m.aborted.Inc()
		mon.ObserveReject(t.db)
	default:
		m.aborted.Inc()
		mon.ObserveAbort(t.db)
	}
}

// IsRejection reports whether err is a proactive rejection (Algorithm 1).
func IsRejection(err error) bool { return errors.Is(err, ErrRejected) }

// IsRetryable reports whether the error is transient from the client's
// perspective: deadlock victim, lock timeout, rejection during copy (and a
// CREATE TABLE refused while one runs), a machine failure mid-transaction, a
// branch abort surfacing through a 2PC vote (the aggressive controller
// learns of an asynchronous write failure only when the prepare vote comes
// back), a controller failover in progress
// (not-leader redirects and quorum loss heal once a leader re-emerges; a
// COMMIT refused because the in-doubt resolver claimed its branch is one), or
// any simulated-network fault — dropped or delayed messages, lost replies,
// partitioned or timed-out calls all abort the transaction cleanly and
// invite a retry. A sealed log or a closed engine is the same story as a
// failed machine: the statement was in flight when the machine crashed and
// discovered it only at its next log append or table lookup, before the
// session noticed the failure.
func IsRetryable(err error) bool {
	return errors.Is(err, sqldb.ErrDeadlock) ||
		errors.Is(err, sqldb.ErrLockTimeout) ||
		errors.Is(err, sqldb.ErrTxnAborted) ||
		errors.Is(err, sqldb.ErrClaimed) ||
		errors.Is(err, ErrRejected) ||
		errors.Is(err, ErrCopyInProgress) ||
		errors.Is(err, ErrMachineFailed) ||
		errors.Is(err, wal.ErrSealed) ||
		errors.Is(err, sqldb.ErrEngineClosed) ||
		errors.Is(err, ErrPrepareTimeout) ||
		errors.Is(err, ErrUnreachable) ||
		errors.Is(err, ErrStaleRoute) ||
		errors.Is(err, ErrNotLeader) ||
		errors.Is(err, ErrNoQuorum) ||
		netsim.IsTransient(err)
}
