package sqldb

import (
	"sync"
	"time"

	"sdp/internal/obs"
	"sdp/internal/twopc"
	"sdp/internal/wal"
)

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

	id      uint64
	engine  *Engine
	db      string    // database namespace this transaction operates in
	catalog *database // the incarnation of db it began in

	mu    sync.Mutex
	state twopc.State // the branch's state; twopc.Step decides every move
	undo  []undoRec
	// claimed marks a prepared branch handed to the in-doubt resolver
	// (Engine.ClaimPrepared): only Engine.ResolvePrepared decides it now.
	claimed bool
	// doomed marks an active transaction a DDL statement or a restore
	// wounded (see lockManager.wound). execMu is held while a statement
	// runs, so the wound's rollback waits for it.
	doomed bool
	execMu sync.Mutex

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

	// env is the evaluation environment of the running statement, and vals
	// the arena its reads decode into (nil until the first statement; see
	// arena). Only the statement's goroutine, holding execMu, touches them,
	// until finishTxn hands vals back to the engine.
	env  env
	vals *arena

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

// arena is where a transaction's statements put the rows that die with the
// statement: every row a read decodes, every joined row, and the write images
// an INSERT assembles and an UPDATE computes. A row is a capacity-capped view
// of the values slab (so appending to it never writes over the next row), a
// row list a view of the lists slab, a write's row IDs one of the IDs slab.
// A slab that is full is replaced by one twice its size, and the rows cut
// from the old one stay valid until the statement ends. The arena is reset
// at each statement's start, so nothing that outlives the statement may
// alias it: the output stage copies the values into the Result, and an undo
// record keeps a private copy of its row. When the transaction ends the
// engine takes the arena back for the next transaction (Engine.arenas),
// unless it grew past arenaMaxValues.
type arena struct {
	vals  []Value
	lists []Row
	ids   []uint64
}

const (
	arenaMinValues = 256     // the values slab a new arena starts with
	arenaMaxValues = 1 << 12 // the largest values slab the engine recycles (192 KB)
)

// cut returns a view of the next n elements of *slab, capacity capped,
// replacing a full slab by a fresh one at least twice its size.
func cut[T any](slab *[]T, n, least int) []T {
	s := *slab
	if cap(s)-len(s) < n {
		s = make([]T, 0, max(2*cap(s), n, least))
	}
	i := len(s)
	*slab = s[:i+n]
	return s[i : i+n : i+n]
}

// row returns an arena row of w values.
func (a *arena) row(w int) Row { return cut(&a.vals, w, arenaMinValues) }

// unrow gives back the row of w values row just returned.
func (a *arena) unrow(w int) { a.vals = a.vals[:len(a.vals)-w] }

// list returns an empty row list with room for n rows; appending past n
// moves it to the heap.
func (a *arena) list(n int) []Row { return cut(&a.lists, n, 64)[:0] }

// idList returns an empty row-ID list with room for n IDs.
func (a *arena) idList(n int) []uint64 { return cut(&a.ids, n, 64)[:0] }

// concat returns the arena row l followed by the n values of r or, when r
// is nil, by n NULLs (a LEFT JOIN's null extension).
func (a *arena) concat(l, r Row, n int) Row {
	out := a.row(len(l) + n)
	if r == nil {
		clear(out[copy(out, l):])
	} else {
		copy(out[copy(out, l):], r)
	}
	return out
}

// nulls returns an arena row of n NULLs.
func (a *arena) nulls(n int) Row {
	out := a.row(n)
	clear(out) // the zero Value is NULL
	return out
}

// reset empties the arena for the next statement, dropping the values it
// held, which would otherwise keep their page images alive.
func (a *arena) reset() {
	clear(a.vals)
	clear(a.lists)
	a.vals, a.lists, a.ids = a.vals[:0], a.lists[:0], a.ids[:0]
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

// step applies ev to the transaction's branch: twopc.Step decides the
// answer, and step does the log and lock work it asks for. A forced frame is
// written with mu held, so a prepare or commit and a claim are exclusive: a
// claim that arrives meanwhile waits, then finds the outcome and its frame
// durable.
func (t *Txn) step(ev twopc.Event) error {
	t.mu.Lock()
	doomed := t.doomed || ev == twopc.Exec && t.catalog.dropped.Load()
	b, act, err := twopc.Step(twopc.Branch{State: t.state, Claimed: t.claimed, Doomed: doomed}, ev)
	t.state, t.claimed, t.doomed = b.State, b.Claimed, b.Doomed
	switch act {
	case twopc.ForcePrepare:
		// An in-doubt transaction must survive a crash with its writes
		// intact, so the prepare record is forced before any lock moves.
		if err := t.engine.walForce(t, wal.RecPrepare); err != nil {
			t.abortLocked(false)
			return err
		}
		t.mu.Unlock()
		if t.engine.cfg.ReleaseReadLocksAtPrepare {
			t.engine.locks.releaseShared(t)
		}
	case twopc.ForceCommit:
		// The commit record is forced before any lock is released
		// (write-ahead rule); if the log is failing the transaction rolls
		// back instead.
		if err := t.engine.walForce(t, wal.RecCommit); err != nil {
			t.abortLocked(false)
			return err
		}
		t.undo = nil
		t.mu.Unlock()
		t.engine.forgetBranch(t)
		t.engine.locks.releaseAll(t)
		t.engine.finishTxn(t, true)
	case twopc.Undo, twopc.ForceUndo:
		t.abortLocked(act == twopc.ForceUndo)
	default:
		t.mu.Unlock()
	}
	return err
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
	return t.execPlanned(stmt, t.plannedStmt(stmt), params)
}

// plannedStmt returns stmt's plan bound against the transaction's database:
// the one kept on the statement node while it is current, else a fresh bind,
// kept there for the next execution. A statement kind that does not bind
// (DDL, EXPLAIN) has no plan; one that fails to bind (an unknown table) comes
// back nil and runBound reports why.
func (t *Txn) plannedStmt(stmt Statement) *stmtPlan {
	pt := plansOf(stmt)
	if pt == nil {
		return nil
	}
	e := t.engine
	if plan := pt.load(e, t.db); plan != nil && plan.db == t.catalog {
		e.planHitMiss.IncA()
		return plan
	}
	e.planHitMiss.IncB()
	plan, _ := bindStatement(t.catalog, stmt)
	pt.store(e, t.db, plan)
	return plan
}

func (t *Txn) execPlanned(stmt Statement, plan *stmtPlan, params []Value) (*Result, error) {
	t.execMu.Lock()
	defer t.execMu.Unlock()
	// The statement starts only if the transaction is active and its engine
	// open; a wounded transaction, or one whose database was dropped, rolls
	// back.
	if err := t.step(twopc.Exec); err != nil {
		return nil, err
	}
	if t.engine.closed.Load() {
		return nil, ErrEngineClosed
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
	if err != nil && isAbortError(err) {
		// Deadlock victims and lock-wait timeouts roll the whole
		// transaction back, as InnoDB does for deadlocks.
		_ = t.step(twopc.Abort)
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
func (t *Txn) Prepare() error { return t.step(twopc.Prepare) }

// CommitPrepared completes the second phase of 2PC, making the transaction's
// effects permanent and releasing all remaining locks. A branch the in-doubt
// resolver has claimed refuses it with ErrClaimed.
func (t *Txn) CommitPrepared() error { return t.step(twopc.CommitPrepared) }

// Commit performs a one-phase commit (prepare + commit). It is what a plain
// COMMIT on a single machine does.
func (t *Txn) Commit() error { return t.step(twopc.Commit) }

// Rollback aborts the transaction, undoing all of its effects and releasing
// its locks. Rolling back an already-finished transaction is an error except
// for the already-aborted case, which is a no-op (deadlock victims arrive
// here pre-aborted). A prepared branch the in-doubt resolver has claimed
// refuses it with ErrClaimed.
func (t *Txn) Rollback() error { return t.step(twopc.Rollback) }

// abortLocked rolls back a live transaction; force makes its abort record
// durable. Called with t.mu held, which it releases.
func (t *Txn) abortLocked(force bool) {
	t.state = twopc.Aborted
	undo := t.undo
	t.undo = nil
	t.mu.Unlock()
	t.engine.walAbort(t, force)
	t.engine.forgetBranch(t)

	for i := len(undo) - 1; i >= 0; i-- {
		switch rec := undo[i]; {
		case rec.table.dead.Load():
			// Its pages are gone (see DropDatabase): nothing to undo.
		case rec.kind == undoInsert:
			rec.table.deleteRowPhysical(rec.rowID)
		case rec.kind == undoDelete:
			rec.table.insertRowPhysical(rec.rowID, rec.before)
		case rec.kind == undoUpdate:
			rec.table.updateRowPhysical(rec.rowID, rec.before)
		}
	}
	t.engine.locks.releaseAll(t)
	t.engine.finishTxn(t, false)
}
