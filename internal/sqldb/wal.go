package sqldb

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"sdp/internal/obs"
	"sdp/internal/wal"
)

// WAL integration. The engine logs logical redo: every successful write
// statement is appended (as literal SQL, re-rendered from the bound AST) while
// the statement's locks are still held, and the commit record is forced to the
// log before any lock is released. Under strict two-phase locking this makes
// log order equal lock-grant order for every pair of conflicting statements,
// so replaying the committed statements in log order rebuilds the exact
// pre-crash state. DDL and namespace changes are logged with transaction ID 0
// and replayed unconditionally, matching their immediate, non-rollbackable
// execution semantics.

// AttachWAL installs the engine's write-ahead log. It must be called before
// the engine serves any traffic; an engine without a WAL runs exactly as
// before (volatile).
func (e *Engine) AttachWAL(l *wal.Log) { e.wal = l }

// WAL returns the attached log, or nil.
func (e *Engine) WAL() *wal.Log { return e.wal }

// walLogging reports whether write operations should append log records:
// a WAL is attached and the engine is not replaying that same log.
func (e *Engine) walLogging() bool {
	return e.wal != nil && !e.recovering.Load()
}

// walStmt appends the redo record for one executed DML statement, preceded by
// the transaction's begin record on its first write. The statement is
// rendered into the transaction's walBuf, which the log copies before Append
// returns. Called while the statement's locks are held.
func (e *Engine) walStmt(t *Txn, table string, stmt Statement, params []Value) error {
	if !e.walLogging() {
		return nil
	}
	if t.walBuf == nil {
		t.walBuf = make([]byte, 0, 256)
	}
	sql, err := AppendStmt(t.walBuf[:0], stmt, params)
	if err != nil {
		return err
	}
	t.walBuf = sql
	if !t.walBegun {
		t.walBegun = true
		if _, err := e.wal.Append(wal.Record{Type: wal.RecBegin, Txn: t.id, GID: t.GlobalID, DB: t.db}); err != nil {
			return err
		}
	}
	_, err = e.wal.Append(wal.Record{
		Type: wal.RecStatement, Txn: t.id, GID: t.GlobalID,
		DB: t.db, Table: lower(table), Data: sql,
	})
	return err
}

// walDDL appends the redo record for a DDL statement with transaction ID 0:
// DDL takes effect immediately and survives a rollback of the surrounding
// transaction, so replay applies it regardless of that transaction's outcome.
// Called while the schema change is still protected by whatever lock ordered
// it (the catalog mutex for CREATE/DROP TABLE, the table read lock for CREATE
// INDEX).
func (e *Engine) walDDL(db, table string, stmt Statement) error {
	if !e.walLogging() {
		return nil
	}
	sql, err := RenderStmt(stmt, nil)
	if err != nil {
		return err
	}
	_, err = e.wal.Append(wal.Record{Type: wal.RecStatement, DB: db, Table: lower(table), Data: []byte(sql)})
	return err
}

// walNamespace appends a database create/drop record. Called under the
// catalog mutex, so namespace records are ordered against the DDL and DML of
// the namespace they create or destroy.
func (e *Engine) walNamespace(typ wal.RecordType, db string) error {
	if !e.walLogging() {
		return nil
	}
	_, err := e.wal.Append(wal.Record{Type: typ, DB: db})
	return err
}

// walCommit forces the transaction's commit record to the log. Called before
// the transaction releases any lock; a failure aborts the commit. Group
// commit batches all concurrently committing transactions into one flush.
// Transactions that logged nothing (read-only, or replayed during recovery)
// need no record: the log's durable prefix already decides them.
func (e *Engine) walCommit(t *Txn) error {
	if e.wal == nil || !t.walBegun {
		return nil
	}
	if t.trace.Traced() && e.cfg.Spans != nil {
		start := time.Now()
		_, err := e.wal.AppendSync(wal.Record{Type: wal.RecCommit, Txn: t.id, GID: t.GlobalID, DB: t.db})
		e.cfg.Spans.Record(obs.Span{
			TraceID:  t.trace.TraceID,
			SpanID:   obs.NewTraceID(),
			Parent:   t.trace.SpanID,
			Scope:    "wal",
			Name:     "flush",
			DB:       t.db,
			Start:    start,
			Duration: time.Since(start),
		})
		return err
	}
	_, err := e.wal.AppendSync(wal.Record{Type: wal.RecCommit, Txn: t.id, GID: t.GlobalID, DB: t.db})
	return err
}

// walPrepare forces the transaction's prepare record, making it an in-doubt
// survivor of a crash until a commit or abort record resolves it.
func (e *Engine) walPrepare(t *Txn) error {
	if e.wal == nil || !t.walBegun {
		return nil
	}
	_, err := e.wal.AppendSync(wal.Record{Type: wal.RecPrepare, Txn: t.id, GID: t.GlobalID, DB: t.db})
	return err
}

// walAbort appends the transaction's abort record. Aborts need no flush —
// recovery presumes abort for any transaction without a durable commit — so
// the record is advisory and append errors are ignored (the store may already
// be failing, which is often why the transaction is rolling back).
func (e *Engine) walAbort(t *Txn) {
	if e.wal == nil || !t.walBegun || e.recovering.Load() {
		return
	}
	_, _ = e.wal.Append(wal.Record{Type: wal.RecAbort, Txn: t.id, GID: t.GlobalID, DB: t.db})
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
	if e.wal == nil {
		return fmt.Errorf("sqldb: no WAL attached")
	}
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
			err := e.DumpTables(db, []string{table}, func(d TableDump) error {
				// Appended while the table read lock is held: every commit
				// touching this table is either before this frame (and in the
				// image) or after it (and replayed).
				_, err := e.wal.Append(wal.Record{
					Type: wal.RecCheckpointTable, DB: db, Table: table,
					Data: encodeTableImage(d),
				})
				return err
			})
			if err != nil && !errors.Is(err, ErrNoTable) {
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
	// commit coordinator to resolve (see RecoveredPrepared).
	InDoubt int
	// InDoubtTables maps each database to the tables touched by its in-doubt
	// transactions. A coordinator that presumes abort must treat these tables
	// as possibly stale (the aborted statements may have committed elsewhere).
	InDoubtTables map[string][]string
	// TornTail reports whether a torn log tail was truncated.
	TornTail bool
	// Duration is the wall time of checkpoint restore plus replay.
	Duration time.Duration
}

// Recover rebuilds the engine's state from its attached log: it truncates any
// torn tail, restores the newest complete checkpoint, replays the statements
// of committed transactions, all DDL and every table restore in log order,
// and re-instates prepared in-doubt transactions so the commit coordinator
// can resolve them with ResolvePrepared. It must run on a fresh engine before
// it serves traffic.
func (e *Engine) Recover() (*RecoveryStats, error) {
	if e.wal == nil {
		return nil, fmt.Errorf("sqldb: no WAL attached")
	}
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
		outcome  wal.RecordType // RecCommit, RecAbort, or 0 while undecided
		prepared bool
	}
	txns := make(map[uint64]*txnInfo)
	gidOutcome := make(map[uint64]wal.RecordType)
	info := func(id uint64) *txnInfo {
		ti := txns[id]
		if ti == nil {
			ti = &txnInfo{}
			txns[id] = ti
		}
		return ti
	}
	var maxID uint64
	for _, r := range recs {
		if r.Txn > maxID {
			maxID = r.Txn
		}
		switch r.Type {
		case wal.RecBegin, wal.RecStatement:
			if r.Txn != 0 {
				info(r.Txn).gid = r.GID
			}
		case wal.RecPrepare:
			info(r.Txn).prepared = true
		case wal.RecCommit, wal.RecAbort:
			if r.Txn != 0 {
				info(r.Txn).outcome = r.Type
			}
			if r.GID != 0 {
				gidOutcome[r.GID] = r.Type
			}
		}
	}
	outcome := func(id uint64) wal.RecordType {
		ti := txns[id]
		if ti == nil {
			return 0
		}
		if ti.outcome != 0 {
			return ti.outcome
		}
		if ti.gid != 0 {
			return gidOutcome[ti.gid]
		}
		return 0
	}
	inDoubt := func(id uint64) bool {
		ti := txns[id]
		return ti != nil && ti.prepared && outcome(id) == 0 && ti.gid != 0
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
	type doubtStmt struct {
		db, sql string
	}
	doubtOrder := []uint64{}
	doubtStmts := make(map[uint64][]doubtStmt)
	doubtTables := make(map[string]map[string]bool)
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
				switch {
				case outcome(r.Txn) == wal.RecCommit:
					// fall through to apply
				case inDoubt(r.Txn):
					if _, seen := doubtStmts[r.Txn]; !seen {
						doubtOrder = append(doubtOrder, r.Txn)
					}
					doubtStmts[r.Txn] = append(doubtStmts[r.Txn], doubtStmt{db: r.DB, sql: string(r.Data)})
					if doubtTables[r.DB] == nil {
						doubtTables[r.DB] = make(map[string]bool)
					}
					doubtTables[r.DB][r.Table] = true
					continue
				default:
					continue // rolled back, presumed aborted, or unfinished
				}
			}
			if err := e.replayStmt(r.DB, string(r.Data)); err != nil {
				if errors.Is(err, ErrNoTable) && marked[r.DB] &&
					snapLSN(snap, r.DB+"/"+r.Table) < 0 && r.LSN <= ckptEnd {
					// The table died inside its checkpoint's fuzzy window: the
					// database's marker filters the table's creation, and the
					// table was dropped before an image of it could be taken —
					// so these statements have nothing to apply to, and nothing
					// to lose: the drop made their effects moot.
					continue
				}
				return nil, fmt.Errorf("sqldb: recover: replay %q: %w", r.Data, err)
			}
			stats.Applied++
		}
	}

	// Re-instate in-doubt transactions: re-execute their statements in a live
	// transaction and leave it prepared, keyed by GID for ResolvePrepared.
	for _, id := range doubtOrder {
		stmts := doubtStmts[id]
		gid := txns[id].gid
		t, err := e.BeginWithID(stmts[0].db, gid)
		if err != nil {
			return nil, fmt.Errorf("sqldb: recover: %w", err)
		}
		for _, s := range stmts {
			if _, err := t.Exec(s.sql); err != nil {
				_ = t.Rollback()
				return nil, fmt.Errorf("sqldb: recover: in-doubt replay %q: %w", s.sql, err)
			}
		}
		if err := t.Prepare(); err != nil {
			return nil, fmt.Errorf("sqldb: recover: %w", err)
		}
		if e.prepared == nil {
			e.prepared = make(map[uint64]*Txn)
		}
		e.prepared[gid] = t
		stats.InDoubt++
	}

	if len(doubtTables) > 0 {
		stats.InDoubtTables = make(map[string][]string, len(doubtTables))
		for db, tbls := range doubtTables {
			for t := range tbls {
				stats.InDoubtTables[db] = append(stats.InDoubtTables[db], t)
			}
			sort.Strings(stats.InDoubtTables[db])
		}
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

// replayStmt applies one logged statement in its own transaction.
func (e *Engine) replayStmt(db, sql string) error {
	t, err := e.Begin(db)
	if err != nil {
		return err
	}
	if _, err := t.Exec(sql); err != nil {
		_ = t.Rollback()
		return err
	}
	return t.Commit()
}

// SetWALMetrics installs the wal metric instruments the engine itself
// observes (replay durations). The Log carries its own Metrics for flush and
// append counters.
func (e *Engine) SetWALMetrics(m *wal.Metrics) { e.walMetrics = m }

// RecoveredPrepared lists the global transaction IDs of in-doubt transactions
// re-instated by Recover, in log order of their first statement. The commit
// coordinator must resolve each with ResolvePrepared before their locked rows
// become available again.
func (e *Engine) RecoveredPrepared() []uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	gids := make([]uint64, 0, len(e.prepared))
	for gid := range e.prepared {
		gids = append(gids, gid)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	return gids
}

// ResolvePrepared commits or aborts a re-instated in-doubt transaction. The
// outcome record is logged keyed by the transaction's GID, so a later
// recovery of the same log resolves the original statement frames even though
// this transaction now runs under a fresh engine-local ID.
func (e *Engine) ResolvePrepared(gid uint64, commit bool) error {
	e.mu.Lock()
	t, ok := e.prepared[gid]
	if ok {
		delete(e.prepared, gid)
	}
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("sqldb: no recovered prepared transaction %d", gid)
	}
	var typ wal.RecordType
	if commit {
		typ = wal.RecCommit
	} else {
		typ = wal.RecAbort
	}
	if e.wal != nil {
		if _, err := e.wal.AppendSync(wal.Record{Type: typ, Txn: t.id, GID: gid, DB: t.db}); err != nil {
			_ = t.Rollback()
			return err
		}
	}
	if commit {
		return t.CommitPrepared()
	}
	return t.Rollback()
}
