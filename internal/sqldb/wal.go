package sqldb

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"sdp/internal/obs"
	"sdp/internal/twopc"
	"sdp/internal/wal"
)

// WAL integration. The engine logs logical redo: every successful write
// statement is appended as it ran — the text Parse was given plus the bound
// parameters (walcodec.go) — while the statement's locks are still held, and
// the commit record is forced to the log before any lock is released. Under
// strict two-phase locking this makes log order equal lock-grant order for
// every pair of conflicting statements, so replaying the committed statements
// in log order rebuilds the exact pre-crash state. DDL and namespace changes
// are logged with transaction ID 0 and replayed unconditionally, matching
// their immediate, non-rollbackable execution semantics.

// AttachWAL replaces the engine's write-ahead log — by default an
// in-memory log with no flush latency (NewEngine) — with l, for a durable
// device that outlives the engine or a timed one. It must be called before
// the engine serves any traffic.
func (e *Engine) AttachWAL(l *wal.Log) { e.wal = l }

// WAL returns the engine's log.
func (e *Engine) WAL() *wal.Log { return e.wal }

// walStmt appends the redo record for one executed DML statement, preceded by
// the transaction's begin record on its first write. The record is built in
// the transaction's walBuf, which the log copies before Append returns.
// Called while the statement's locks are held.
func (e *Engine) walStmt(t *Txn, table, text string, params []Value) error {
	if e.recovering.Load() {
		return nil // replaying this same log
	}
	if t.walBuf == nil {
		t.walBuf = make([]byte, 0, 256)
	}
	t.walBuf = appendRedo(t.walBuf[:0], text, params)
	if !t.walBegun {
		t.walBegun = true
		if _, err := e.wal.Append(wal.Record{Type: wal.RecBegin, Txn: t.id, GID: t.GlobalID, DB: t.db}); err != nil {
			return err
		}
	}
	_, err := e.wal.Append(wal.Record{
		Type: wal.RecStatement, Txn: t.id, GID: t.GlobalID,
		DB: t.db, Table: lower(table), Data: t.walBuf,
	})
	return err
}

// walDDL appends the redo record for a DDL statement with transaction ID 0:
// DDL takes effect immediately and survives a rollback of the surrounding
// transaction, so replay applies it regardless of that transaction's outcome.
// Called while the schema change is still protected by whatever lock ordered
// it (the catalog mutex for CREATE/DROP TABLE, the table read lock for CREATE
// INDEX).
func (e *Engine) walDDL(db, table, text string) error {
	if e.recovering.Load() {
		return nil // replaying this same log
	}
	_, err := e.wal.Append(wal.Record{Type: wal.RecStatement, DB: db, Table: lower(table), Data: appendRedo(nil, text, nil)})
	return err
}

// walNamespace appends a database create/drop record. Called under the
// catalog mutex, so namespace records are ordered against the DDL and DML of
// the namespace they create or destroy.
func (e *Engine) walNamespace(typ wal.RecordType, db string) error {
	if e.recovering.Load() {
		return nil // replaying this same log
	}
	_, err := e.wal.Append(wal.Record{Type: typ, DB: db})
	return err
}

// walForce forces the transaction's prepare or commit record (typ) to the
// log; a commit's flush is traced. Called before the transaction releases
// any lock; a failure aborts the prepare or commit. Group commit batches all
// concurrently committing transactions into one flush. A prepare record
// makes the transaction an in-doubt survivor of a crash until a commit or
// abort record resolves it. Transactions that logged nothing (read-only, or
// replayed during recovery) need no record: the log's durable prefix
// already decides them.
func (e *Engine) walForce(t *Txn, typ wal.RecordType) error {
	if !t.walBegun {
		return nil
	}
	traced := typ == wal.RecCommit && t.trace.Traced() && e.cfg.Spans != nil
	var start time.Time
	if traced {
		start = time.Now()
	}
	_, err := e.wal.AppendSync(wal.Record{Type: typ, Txn: t.id, GID: t.GlobalID, DB: t.db})
	if traced {
		e.cfg.Spans.Record(obs.Span{
			TraceID:  t.trace.TraceID,
			SpanID:   obs.NewTraceID(),
			Parent:   t.trace.SpanID,
			Scope:    "wal",
			Name:     "flush",
			ID:       t.db,
			Start:    start,
			Duration: time.Since(start),
		})
	}
	return err
}

// walAbort appends the transaction's abort record. Aborts need no flush —
// recovery presumes abort for any transaction without a durable commit — so
// the record is advisory and append errors are ignored (the store may already
// be failing, which is often why the transaction is rolling back). force
// flushes it anyway, so a resolved in-doubt branch is not re-instated by the
// next recovery.
func (e *Engine) walAbort(t *Txn, force bool) {
	if !t.walBegun || e.recovering.Load() {
		return
	}
	if _, err := e.wal.Append(wal.Record{Type: wal.RecAbort, Txn: t.id, GID: t.GlobalID, DB: t.db}); err == nil && force {
		_ = e.wal.Sync()
	}
}

// Checkpoint writes a fuzzy checkpoint of every database: a begin frame, per
// database one namespace marker followed by one image frame per table (each
// captured under that table's read lock, one table at a time, so writers are
// blocked only for their own table's copy), and a forced end frame. Recovery
// uses only the newest checkpoint whose end frame is durable. Replay work
// after a checkpoint is bounded by the log tail: a statement frame is applied
// only if its LSN is past the image frame of its table, and strict 2PL
// guarantees every transaction reflected in the image committed before the
// image frame was appended. A checkpoint covers a whole database — marker
// plus every table — because the marker's LSN filters the namespace's
// create/drop history during replay, which is only sound if every surviving
// table is imaged. When the log is configured for it, the dead head before
// the checkpoint is compacted away.
func (e *Engine) Checkpoint() error {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	if _, err := e.wal.Append(wal.Record{Type: wal.RecCheckpointBegin}); err != nil {
		return err
	}
	for _, db := range e.Databases() {
		if !e.HasDatabase(db) {
			continue // dropped since the listing
		}
		// The namespace marker's own LSN is the database's snapshot position:
		// create/drop records — and statements — before it are reflected in
		// the checkpoint's images, later ones are replayed.
		if _, err := e.wal.Append(wal.Record{Type: wal.RecCheckpointTable, DB: db}); err != nil {
			return err
		}
		for _, table := range e.Tables(db) {
			err := e.DumpTables(db, []string{table}, func(ds []TableDump) error {
				// Appended while the table read lock is held: every commit
				// touching this table is either before this frame (and in the
				// image) or after it (and replayed).
				_, err := e.wal.Append(wal.Record{
					Type: wal.RecCheckpointTable, DB: db, Table: table,
					Data: imageHead(ds[0]),
				}, ds[0].Rows...)
				return err
			})
			if err != nil && !errors.Is(err, ErrNoTable) && err != ErrTxnAborted {
				// A table (or the database) dropped while checkpointing is
				// skipped: its drop record replays.
				return err
			}
		}
	}
	if _, err := e.wal.AppendSync(wal.Record{Type: wal.RecCheckpointEnd}); err != nil {
		return err
	}
	if e.wal.Config().Compact {
		if _, err := e.wal.Compact(); err != nil {
			return err
		}
	}
	return nil
}

// RecoveryStats summarises one Engine.Recover run.
type RecoveryStats struct {
	// CheckpointLSN is the begin-frame LSN of the newest complete checkpoint
	// in the log, or -1 when recovery replayed the whole log.
	CheckpointLSN int64
	// Records is the number of intact log records scanned.
	Records int
	// Applied is the number of statements, table restores and database
	// creations replayed.
	Applied int
	// InDoubt is the number of prepared transactions re-instated for the
	// in-doubt resolver (see ClaimPrepared).
	InDoubt int
	// TornTail reports whether a torn log tail was truncated.
	TornTail bool
	// Duration is the wall time of checkpoint restore plus replay.
	Duration time.Duration
}

// Recover rebuilds the engine's state from its log: it truncates any
// torn tail, restores the newest complete checkpoint, replays the statements
// of committed transactions, all DDL and every table restore in log order,
// and re-instates prepared in-doubt transactions among the engine's prepared
// branches, for the in-doubt resolver. It must run on a fresh engine before it
// serves traffic.
func (e *Engine) Recover() (*RecoveryStats, error) {
	start := time.Now()
	recs, torn, err := e.wal.Recover()
	if err != nil {
		return nil, err
	}
	e.recovering.Store(true)
	defer e.recovering.Store(false)
	stats := &RecoveryStats{CheckpointLSN: -1, Records: len(recs), TornTail: torn}

	// One pass locates the newest complete checkpoint and each database's
	// last drop. Checkpoints are serialised by ckptMu, so begin and end frames
	// pair up in log order; a begin without a matching end is an interrupted
	// checkpoint and is ignored. Every checkpoint covers every database, so
	// the newest one supersedes the rest.
	//
	// snap maps "db" and "db/table" to the LSN up to which the log is already
	// reflected in what recovery has built; frames at or before it are
	// skipped. A database starts at its last drop record: the drop destroyed
	// everything logged before it, so nothing older — a checkpoint's marker
	// and images of that incarnation included — is rebuilt, and the drop
	// itself has nothing left to remove.
	snap := make(map[string]int64)
	begin, end, open := -1, -1, -1
	for i, r := range recs {
		switch r.Type {
		case wal.RecCheckpointBegin:
			open = i
		case wal.RecCheckpointEnd:
			if open >= 0 {
				begin, end, open = open, i, -1
			}
		case wal.RecDropDB:
			snap[r.DB] = r.LSN
		}
	}
	// marked holds the databases restored from the checkpoint; ckptEnd closes
	// its fuzzy window.
	marked := make(map[string]bool)
	ckptEnd := int64(-1)
	if begin >= 0 {
		stats.CheckpointLSN = recs[begin].LSN
		ckptEnd = recs[end].LSN
		for _, r := range recs[begin+1 : end] {
			if r.Type != wal.RecCheckpointTable || r.LSN <= snapLSN(snap, r.DB) {
				continue
			}
			if r.Table == "" {
				if err := e.CreateDatabase(r.DB); err != nil {
					return nil, fmt.Errorf("sqldb: recover: %w", err)
				}
				snap[r.DB] = r.LSN
				marked[r.DB] = true
			} else if marked[r.DB] {
				if err := e.restoreImage(r); err != nil {
					return nil, err
				}
				snap[r.DB+"/"+r.Table] = r.LSN
			}
		}
	}

	// Decide every logged transaction's outcome. Outcomes are also keyed by
	// global transaction ID: an in-doubt transaction resolved after an earlier
	// recovery committed under a fresh engine-local ID, so only its GID links
	// that commit record back to the statements logged before the crash.
	type txnInfo struct {
		gid      uint64
		outcome  twopc.State // Committed, Aborted, or Active while undecided
		prepared bool
	}
	txns := make(map[uint64]txnInfo)
	gidOutcome := make(map[uint64]twopc.State)
	var maxID uint64
	for _, r := range recs {
		maxID = max(maxID, r.Txn)
		ti := txns[r.Txn]
		switch r.Type {
		case wal.RecBegin, wal.RecStatement:
			ti.gid = r.GID
		case wal.RecPrepare:
			ti.prepared = true
		case wal.RecCommit, wal.RecAbort:
			ti.outcome = twopc.Aborted
			if r.Type == wal.RecCommit {
				ti.outcome = twopc.Committed
			}
			if r.GID != 0 {
				gidOutcome[r.GID] = ti.outcome
			}
		default:
			continue
		}
		if r.Txn != 0 {
			txns[r.Txn] = ti
		}
	}
	// recovered classifies a logged transaction (twopc.Recovered).
	recovered := func(id uint64) twopc.State {
		ti := txns[id]
		return twopc.Recovered(ti.outcome, gidOutcome[ti.gid], ti.prepared, ti.gid != 0)
	}

	// New transactions must not reuse logged IDs (history correlation and a
	// second recovery both depend on ID uniqueness across the restart).
	if e.nextTxn.Load() < maxID {
		e.nextTxn.Store(maxID)
	}

	// Replay pass: committed statements and DDL in log order, each applied in
	// its own transaction — with no concurrency, per-statement application in
	// log order reproduces the original interleaving exactly. In-doubt
	// statements are set aside and re-executed live afterwards (their locks
	// cannot conflict with anything: every conflicting transaction either
	// committed before them or is also merely in doubt, and concurrently
	// prepared transactions held compatible locks).
	doubtOrder := []uint64{}
	doubtStmts := make(map[uint64][]wal.RecordAt)
	for _, r := range recs {
		switch r.Type {
		case wal.RecCreateDB:
			if r.LSN <= snapLSN(snap, r.DB) {
				continue
			}
			if err := e.CreateDatabase(r.DB); err != nil {
				return nil, fmt.Errorf("sqldb: recover: %w", err)
			}
			stats.Applied++
		case wal.RecRestoreTable:
			// A table installed in bulk: replace whatever replay has built of
			// it with the image — unless a later checkpoint covers it.
			if r.LSN <= snapLSN(snap, r.DB+"/"+r.Table) || r.LSN <= snapLSN(snap, r.DB) {
				continue
			}
			if err := e.restoreImage(r); err != nil {
				return nil, err
			}
			stats.Applied++
		case wal.RecStatement:
			// Skip statements reflected in the table's image — or at or before
			// the database's marker: the marker attests the whole database's
			// state at that LSN, so an older statement either lives on in some
			// image or touched a table that no longer existed at the
			// checkpoint and must not be resurrected.
			if r.LSN <= snapLSN(snap, r.DB+"/"+r.Table) || r.LSN <= snapLSN(snap, r.DB) {
				continue
			}
			if r.Txn != 0 {
				switch recovered(r.Txn) {
				case twopc.Committed:
					// fall through to apply
				case twopc.Prepared:
					if _, seen := doubtStmts[r.Txn]; !seen {
						doubtOrder = append(doubtOrder, r.Txn)
					}
					doubtStmts[r.Txn] = append(doubtStmts[r.Txn], r)
					continue
				default:
					continue // rolled back, presumed aborted, or unfinished
				}
			}
			if err := e.replayStmt(r.DB, r.Data); err != nil {
				if errors.Is(err, ErrNoTable) && marked[r.DB] &&
					snapLSN(snap, r.DB+"/"+r.Table) < 0 && r.LSN <= ckptEnd {
					// The table died inside its checkpoint's fuzzy window: the
					// database's marker filters the table's creation, and the
					// table was dropped before an image of it could be taken —
					// so these statements have nothing to apply to, and nothing
					// to lose: the drop made their effects moot.
					continue
				}
				return nil, fmt.Errorf("sqldb: recover: %w", err)
			}
			stats.Applied++
		}
	}

	// Re-instate in-doubt transactions: re-execute their statements in a live
	// transaction and leave it prepared, keyed by GID among the prepared
	// branches. Its outcome record, once decided, is logged under the GID
	// (walBegun), which links it to the statements logged before the crash.
	for _, id := range doubtOrder {
		stmts := doubtStmts[id]
		gid := txns[id].gid
		t, err := e.BeginWithID(stmts[0].DB, gid)
		if err != nil {
			return nil, fmt.Errorf("sqldb: recover: %w", err)
		}
		for _, s := range stmts {
			if err := t.execRedo(s.Data); err != nil {
				_ = t.Rollback()
				return nil, fmt.Errorf("sqldb: recover: in doubt: %w", err)
			}
		}
		if err := t.Prepare(); err != nil {
			return nil, fmt.Errorf("sqldb: recover: %w", err)
		}
		t.walBegun = true
		stats.InDoubt++
	}

	stats.Duration = time.Since(start)
	if e.walMetrics != nil && e.walMetrics.ReplaySeconds != nil {
		e.walMetrics.ReplaySeconds.Observe(stats.Duration.Seconds())
	}
	return stats, nil
}

// snapLSN returns the checkpoint snapshot LSN for key, or -1 when the
// checkpoint has no image for it (every frame must then be replayed).
func snapLSN(snap map[string]int64, key string) int64 {
	if lsn, ok := snap[key]; ok {
		return lsn
	}
	return -1
}

// restoreImage installs the table image carried by a checkpoint or restore
// frame.
func (e *Engine) restoreImage(r wal.RecordAt) error {
	img, err := decodeTableImage(r.Data)
	if err == nil {
		err = e.RestoreTable(r.DB, img)
	}
	if err != nil {
		return fmt.Errorf("sqldb: recover: %s.%s image: %w", r.DB, r.Table, err)
	}
	return nil
}

// replayStmt applies one statement record in its own transaction.
func (e *Engine) replayStmt(db string, data []byte) error {
	t, err := e.Begin(db)
	if err != nil {
		return err
	}
	if err := t.execRedo(data); err != nil {
		_ = t.Rollback()
		return err
	}
	return t.Commit()
}

// execRedo executes a statement record in t: its text, through the engine's
// statement cache, with its parameters.
func (t *Txn) execRedo(data []byte) error {
	text, params, err := decodeRedo(data)
	if err != nil {
		return err
	}
	if _, err := t.Exec(text, params...); err != nil {
		return fmt.Errorf("replay %q: %w", text, err)
	}
	return nil
}

// SetWALMetrics installs the wal metric instruments the engine itself
// observes (replay durations). The Log carries its own Metrics for flush and
// append counters.
func (e *Engine) SetWALMetrics(m *wal.Metrics) { e.walMetrics = m }

// forgetBranch removes a finished branch from the engine's branches.
func (e *Engine) forgetBranch(t *Txn) {
	if t.GlobalID == 0 {
		return
	}
	e.branchMu.Lock()
	if e.branches[t.GlobalID] == t {
		delete(e.branches, t.GlobalID)
		e.branchEnded.Broadcast()
	}
	e.branchMu.Unlock()
}

// AwaitBranches waits until no unfinished branch of db's current
// incarnation is left on the engine, or for Config.LockTimeout; with a zero
// LockTimeout it does not wait, since nothing would bound the wait. A
// branch that ends wakes it. The cluster controller waits so before it
// drops a retired replica, so the transactions that began there finish
// rather than being wounded by the drop.
func (e *Engine) AwaitBranches(db string) {
	timeout := e.cfg.LockTimeout
	d, err := e.database(db)
	if err != nil || timeout <= 0 {
		return
	}
	e.branchMu.Lock()
	defer e.branchMu.Unlock()
	expired := false
	timer := time.AfterFunc(timeout, func() {
		e.branchMu.Lock()
		expired = true
		e.branchEnded.Broadcast()
		e.branchMu.Unlock()
	})
	defer timer.Stop()
	for {
		open := false
		for _, t := range e.branches {
			if t.catalog == d {
				open = true
				break
			}
		}
		if !open || expired {
			return
		}
		e.branchEnded.Wait()
	}
}

// branch returns the unfinished branch of gid, or nil.
func (e *Engine) branch(gid uint64) *Txn {
	e.branchMu.Lock()
	defer e.branchMu.Unlock()
	return e.branches[gid]
}

// PreparedGIDs lists, in ascending order, the global IDs of the engine's
// undecided prepared branches: those prepared live and those re-instated by
// Recover. A branch mutex is taken under branchMu, never the other way.
func (e *Engine) PreparedGIDs() []uint64 {
	e.branchMu.Lock()
	var gids []uint64
	for gid, t := range e.branches {
		t.mu.Lock()
		if t.state == twopc.Prepared {
			gids = append(gids, gid)
		}
		t.mu.Unlock()
	}
	e.branchMu.Unlock()
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	return gids
}

// ClaimPrepared hands the branch of gid to the in-doubt resolver, whether
// it has prepared yet or not. A claimed branch refuses PREPARE, COMMIT and —
// once prepared — ROLLBACK from its session (ErrClaimed): a branch claimed
// before it prepared can only abort, and a prepared one is decided by
// ResolvePrepared alone. It reports whether the branch is prepared, so the
// resolver must decide it. A PREPARE or COMMIT in progress finishes first,
// so false means the branch can never commit unless it already has, its
// commit frame then durable.
func (e *Engine) ClaimPrepared(gid uint64) bool {
	t := e.branch(gid)
	return t != nil && t.step(twopc.Claim) == nil
}

// ResolvePrepared decides the prepared branch of gid with the resolver's
// verdict; a branch already decided is left alone. Either outcome record is
// forced and carries the GID, so a later recovery of the same log resolves
// the branch's statement frames too, whatever engine-local ID it runs under.
func (e *Engine) ResolvePrepared(gid uint64, commit bool) error {
	t := e.branch(gid)
	if t == nil {
		return nil
	}
	if commit {
		return t.step(twopc.ResolveCommit)
	}
	return t.step(twopc.ResolveAbort)
}

// CommitsLogged reports, for each of gids (ascending), whether the engine's
// log holds a commit frame for it, in one scan of the log: the participant's
// own answer to the in-doubt resolver.
func (e *Engine) CommitsLogged(gids []uint64) ([]bool, error) {
	return e.wal.Contains(wal.RecCommit, gids)
}
