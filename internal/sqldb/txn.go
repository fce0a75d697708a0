package sqldb

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sdp/internal/obs"
)

// TxnState is the lifecycle state of a transaction.
type TxnState int

// Transaction states. A transaction moves Active → (Prepared →) Committed,
// or to Aborted from Active/Prepared.
const (
	TxnActive TxnState = iota
	TxnPrepared
	TxnCommitted
	TxnAborted
)

// String returns the state name.
func (s TxnState) String() string {
	switch s {
	case TxnActive:
		return "active"
	case TxnPrepared:
		return "prepared"
	case TxnCommitted:
		return "committed"
	case TxnAborted:
		return "aborted"
	default:
		return "unknown"
	}
}

// undoKind classifies undo records.
type undoKind int

const (
	undoInsert undoKind = iota // row was inserted; undo deletes it
	undoDelete                 // row was deleted; undo reinserts it
	undoUpdate                 // row was updated; undo restores the image
)

// undoRec is one entry of a transaction's undo log.
type undoRec struct {
	table  *Table
	kind   undoKind
	rowID  uint64
	before Row
}

// Txn is a transaction on a single engine. It implements strict two-phase
// locking (locks held until commit/abort) and acts as a 2PC participant via
// Prepare/CommitPrepared. A Txn must not be used from multiple goroutines
// concurrently, matching the behaviour of a MySQL connection.
type Txn struct {
	// GlobalID is an optional caller-assigned identity. The cluster
	// controller assigns the same GlobalID to a distributed transaction's
	// branches on every replica so that history checking can correlate them.
	GlobalID uint64

	id     uint64
	engine *Engine
	db     string // database namespace this transaction operates in

	mu    sync.Mutex
	state TxnState
	undo  []undoRec
	// claimed marks a prepared branch handed to the in-doubt resolver
	// (Engine.ClaimPrepared): only Engine.ResolvePrepared decides it now.
	claimed bool

	// walBegun records that the transaction's begin record (and at least one
	// statement) was logged, so commit/prepare must force an outcome record.
	// Only the transaction's own goroutine touches it.
	walBegun bool
	// walBuf is where walStmt builds the transaction's redo records.
	walBuf []byte

	// locks is guarded by the engine's lock-manager mutex, not mu: all
	// mutation happens inside lockManager methods. The manager appends an
	// entry exactly once per hold (on first grant; upgrades do not
	// re-append), so the slice stays duplicate-free without a set, and
	// release reaches each entry without a lookup. locksBuf keeps short
	// transactions — the common point read/write — allocation-free.
	locks    []*lockEntry
	locksBuf [8]*lockEntry

	// Per-transaction scratch, reused from statement to statement: the
	// evaluation environment of the running statement, and the row, one-row
	// list and one-ID list of a point step.
	env         env
	rowBuf      Row
	rowsScratch []Row
	rowsBuf     [1]Row
	idBuf       [1]uint64

	// trace is the distributed-tracing context this transaction's work is
	// attributed to (zero = untraced; every recording site checks Sampled
	// first, so untraced transactions pay one branch). Only the transaction's
	// own goroutine touches it.
	trace obs.SpanContext
}

// newEnv resets the transaction's evaluation environment for a statement
// bound to params.
func (t *Txn) newEnv(params []Value) *env {
	t.env = env{params: params}
	return &t.env
}

// SetTraceContext attributes the transaction's subsequent statement and
// WAL-flush work to a distributed trace (the zero context clears it). The
// context names the parent span engine-side spans link under.
func (t *Txn) SetTraceContext(tc obs.SpanContext) { t.trace = tc }

// noteLock records that the transaction holds e's lock. Called by the lock
// manager with its mutex held, only when the transaction is newly granted the
// lock (never on upgrades of an already-held lock).
func (t *Txn) noteLock(e *lockEntry) { t.locks = append(t.locks, e) }

// logUndo appends an undo record.
func (t *Txn) logUndo(rec undoRec) {
	t.mu.Lock()
	t.undo = append(t.undo, rec)
	t.mu.Unlock()
}

// checkActive returns an error unless the transaction can accept data
// operations.
func (t *Txn) checkActive() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch t.state {
	case TxnActive:
		return nil
	case TxnPrepared:
		return ErrTxnPrepared
	case TxnCommitted:
		return ErrTxnDone
	default:
		return ErrTxnAborted
	}
}

// Exec parses and executes a statement inside the transaction, serving a
// text that repeats from the engine's statement cache. Params bind to ?
// placeholders in order; parameterised statements share one cached plan
// across all bindings.
func (t *Txn) Exec(sql string, params ...Value) (*Result, error) {
	stmt, err := t.engine.stmts.Parse(sql)
	if err != nil {
		return nil, err
	}
	return t.ExecStmt(stmt, params...)
}

// ExecStmt executes a pre-parsed statement inside the transaction, through
// the plan the statement carries for this engine and database.
func (t *Txn) ExecStmt(stmt Statement, params ...Value) (*Result, error) {
	return t.execPlanned(stmt, t.engine.plannedStmt(t.db, stmt), params)
}

func (t *Txn) execPlanned(stmt Statement, plan *stmtPlan, params []Value) (*Result, error) {
	if err := t.checkActive(); err != nil {
		return nil, err
	}
	// Capacity model: occupy one of the machine's worker slots for the
	// statement's service time before touching data. The slot is released
	// before lock acquisition, so saturation queues here (as CPU-bound
	// statements queue on a real machine) without ever interacting with
	// the lock manager.
	if w := t.engine.workers; w != nil {
		w <- struct{}{}
		if st := t.engine.cfg.StmtServiceTime; st > 0 {
			time.Sleep(st)
		}
		<-w
	}
	traced := t.trace.Traced() && t.engine.cfg.Spans != nil
	var spanStart time.Time
	if traced {
		spanStart = time.Now()
	}
	res, err := t.engine.execute(t, stmt, plan, params)
	if err != nil && errors.Is(err, ErrNoTable) && !t.engine.HasDatabase(t.db) {
		// Not a missing table: the whole database was dropped underneath the
		// open transaction (a replica being shrunk away, or an aborted copy
		// discarding its half-copied destination while branches were still
		// routed there). The branch cannot proceed; the client sees a
		// retryable abort rather than a missing-schema error.
		res, err = nil, fmt.Errorf("%w: database %s was dropped", ErrTxnAborted, t.db)
		t.rollbackLocked()
	}
	if err != nil && isAbortError(err) {
		// Deadlock victims and lock-wait timeouts roll the whole
		// transaction back, as InnoDB does for deadlocks.
		t.rollbackLocked()
	}
	if traced {
		t.recordSQLSpan(stmt, spanStart)
	}
	return res, err
}

// recordSQLSpan emits the "sql"-scope span of one traced statement: what
// kind of statement, which tenant and how long.
func (t *Txn) recordSQLSpan(stmt Statement, start time.Time) {
	t.engine.cfg.Spans.Record(obs.Span{
		TraceID:  t.trace.TraceID,
		SpanID:   obs.NewTraceID(),
		Parent:   t.trace.SpanID,
		Scope:    "sql",
		Name:     stmtKind(stmt),
		ID:       t.db,
		Start:    start,
		Duration: time.Since(start),
		Detail:   "exec=compiled",
	})
}

// stmtKind names a statement for its span.
func stmtKind(stmt Statement) string {
	switch stmt.(type) {
	case *SelectStmt:
		return "select"
	case *InsertStmt:
		return "insert"
	case *UpdateStmt:
		return "update"
	case *DeleteStmt:
		return "delete"
	case *ExplainStmt:
		return "explain"
	case *CreateTableStmt, *CreateIndexStmt, *DropTableStmt:
		return "ddl"
	default:
		return "other"
	}
}

// isAbortError reports whether the error forces a transaction rollback.
func isAbortError(err error) bool {
	return err == ErrDeadlock || err == ErrLockTimeout || err == ErrTxnAborted
}

// Prepare enters the PREPARED state of two-phase commit: the transaction can
// no longer execute operations, its effects are stable, and — when the
// engine's ReleaseReadLocksAtPrepare optimisation is on, as in most real
// systems — its read locks are released while write locks are retained until
// CommitPrepared. Prepare on a read-only transaction is permitted. A branch
// the in-doubt resolver has claimed votes no: it rolls back and returns
// ErrClaimed.
func (t *Txn) Prepare() error {
	t.mu.Lock()
	switch {
	case t.state == TxnPrepared:
		t.mu.Unlock()
		return nil
	case t.state == TxnCommitted:
		t.mu.Unlock()
		return ErrTxnDone
	case t.state != TxnActive:
		t.mu.Unlock()
		return ErrTxnAborted
	case t.claimed:
		t.abortLocked(false)
		return ErrClaimed
	}
	t.state = TxnPrepared
	// The prepare record is forced before any lock moves: an in-doubt
	// transaction must survive a crash with its writes intact. Holding mu
	// across it makes a prepare and a claim exclusive, as in commitLocked.
	if err := t.engine.walPrepare(t); err != nil {
		t.abortLocked(false)
		return err
	}
	t.mu.Unlock()
	if t.engine.cfg.ReleaseReadLocksAtPrepare {
		t.engine.locks.releaseShared(t)
	}
	return nil
}

// CommitPrepared completes the second phase of 2PC, making the transaction's
// effects permanent and releasing all remaining locks. A branch the in-doubt
// resolver has claimed refuses it with ErrClaimed.
func (t *Txn) CommitPrepared() error {
	t.mu.Lock()
	if t.state != TxnPrepared || t.claimed {
		st, claimed := t.state, t.claimed
		t.mu.Unlock()
		switch {
		case st == TxnCommitted:
			return ErrTxnDone
		case st == TxnAborted:
			return ErrTxnAborted
		case claimed:
			return ErrClaimed
		default:
			return ErrNotPrepared
		}
	}
	return t.commitLocked()
}

// Commit performs a one-phase commit (prepare + commit). It is what a plain
// COMMIT on a single machine does.
func (t *Txn) Commit() error {
	t.mu.Lock()
	switch {
	case t.claimed:
		t.mu.Unlock()
		return ErrClaimed
	case t.state == TxnActive, t.state == TxnPrepared:
		return t.commitLocked()
	case t.state == TxnCommitted:
		t.mu.Unlock()
		return ErrTxnDone
	default:
		t.mu.Unlock()
		return ErrTxnAborted
	}
}

// commitLocked forces the commit record before releasing any lock
// (write-ahead rule); if the log is failing the transaction rolls back
// instead. Called with t.mu held, which it releases. Holding it across the
// forced record makes a commit and a claim exclusive: a claim that arrives
// meanwhile waits, then finds the branch committed and its commit frame
// durable.
func (t *Txn) commitLocked() error {
	if err := t.engine.walCommit(t); err != nil {
		t.abortLocked(false)
		return err
	}
	t.state = TxnCommitted
	t.undo = nil
	t.mu.Unlock()
	t.engine.forgetBranch(t)
	t.engine.locks.releaseAll(t)
	t.engine.finishTxn(t, true)
	return nil
}

// Rollback aborts the transaction, undoing all of its effects and releasing
// its locks. Rolling back an already-finished transaction is an error except
// for the already-aborted case, which is a no-op (deadlock victims arrive
// here pre-aborted). A prepared branch the in-doubt resolver has claimed
// refuses it with ErrClaimed.
func (t *Txn) Rollback() error {
	t.mu.Lock()
	switch {
	case t.state == TxnCommitted:
		t.mu.Unlock()
		return ErrTxnDone
	case t.state == TxnAborted:
		t.mu.Unlock()
		return nil
	case t.claimed && t.state == TxnPrepared:
		t.mu.Unlock()
		return ErrClaimed
	}
	t.abortLocked(false)
	return nil
}

// rollbackLocked applies the undo log in reverse and releases locks.
func (t *Txn) rollbackLocked() {
	t.mu.Lock()
	if t.state == TxnAborted || t.state == TxnCommitted {
		t.mu.Unlock()
		return
	}
	t.abortLocked(false)
}

// abortLocked rolls back a live transaction; force makes its abort record
// durable. Called with t.mu held, which it releases.
func (t *Txn) abortLocked(force bool) {
	t.state = TxnAborted
	undo := t.undo
	t.undo = nil
	t.mu.Unlock()
	t.engine.walAbort(t, force)
	t.engine.forgetBranch(t)

	for i := len(undo) - 1; i >= 0; i-- {
		rec := undo[i]
		switch rec.kind {
		case undoInsert:
			rec.table.deleteRowPhysical(rec.rowID)
		case undoDelete:
			rec.table.insertRowPhysical(rec.rowID, rec.before)
		case undoUpdate:
			rec.table.updateRowPhysical(rec.rowID, rec.before)
		}
	}
	t.engine.locks.releaseAll(t)
	t.engine.finishTxn(t, false)
}
