package sqldb

import (
	"fmt"

	"sdp/internal/wal"
)

// The dump tool models mysqldump: each table is copied under a table read
// lock, which blocks writers to that table for the duration of the table's
// copy. The cluster controller builds its online replica-creation protocol
// (the paper's Algorithm 1) on DumpTables and RestoreTable.

// TableDump is the copied image of one table.
type TableDump struct {
	Schema  *Schema
	Rows    []Row
	Indexes []IndexDef
}

// IndexDef describes a secondary index for re-creation on restore.
type IndexDef struct {
	Name   string
	Col    string
	Unique bool
}

// DumpGranularity selects the copy tool's locking unit, as in the paper's
// recovery experiments: table-level copying locks one table at a time
// (higher concurrency, some rejected writes per Algorithm 1), while
// database-level copying holds read locks on every table for the whole copy.
type DumpGranularity int

// Dump granularities.
const (
	// GranularityTable locks and copies one table at a time.
	GranularityTable DumpGranularity = iota
	// GranularityDatabase locks all tables up front and holds the locks
	// until the entire database has been copied.
	GranularityDatabase
)

// String names the granularity.
func (g DumpGranularity) String() string {
	if g == GranularityDatabase {
		return "database"
	}
	return "table"
}

// DumpTables copies the named tables of db under table read locks: one
// transaction S-locks every table, in the order given, and then hands each
// image to fn while all the locks are still held. The cluster controller's
// online replica creation (the paper's Algorithm 1) installs each image on
// the target machine from inside fn, so a copied table exists on the target
// before writers on the source can resume — otherwise a write executing
// right after the lock release could reach the source but miss the target.
// Granularity is the caller's choice of how many tables one call names.
func (e *Engine) DumpTables(db string, tables []string, fn func(TableDump) error) error {
	t, err := e.Begin(db)
	if err != nil {
		return err
	}
	if err := t.dumpTables(tables, fn); err != nil {
		_ = t.Rollback()
		return err
	}
	return t.Commit()
}

// dumpTables S-locks every named table, then images each for fn.
func (t *Txn) dumpTables(tables []string, fn func(TableDump) error) error {
	locked := make([]*Table, len(tables))
	for i, name := range tables {
		tbl, err := t.engine.Table(t.db, name)
		if err != nil {
			return err
		}
		if err := t.lockTable(tbl, LockS); err != nil {
			return err
		}
		locked[i] = tbl
	}
	for _, tbl := range locked {
		if err := fn(copyTable(tbl)); err != nil {
			return err
		}
	}
	return nil
}

// copyTable snapshots a table's schema, rows and index definitions. The
// caller holds a table S lock, so the image is transactionally consistent.
func copyTable(tbl *Table) TableDump {
	d := TableDump{Schema: tbl.Schema().Clone(), Rows: make([]Row, 0, tbl.RowCount())}
	tbl.scanCold(func(_ uint64, r Row) bool {
		d.Rows = append(d.Rows, r) // r was decoded for this call: the dump's own
		return true
	})
	tbl.mu.Lock()
	for _, idx := range tbl.indexes {
		d.Indexes = append(d.Indexes, IndexDef{
			Name:   idx.name,
			Col:    tbl.schema.Cols[idx.col].Name,
			Unique: idx.unique,
		})
	}
	tbl.mu.Unlock()
	return d
}

// RestoreTable installs a dump image as the table's contents, replacing any
// table of that name, and bulk-loads its rows without transactional
// bookkeeping (the table is not serving client traffic: it is a replica
// copy's target, or the engine is recovering). Outside recovery the
// restore is durable when it returns: the image is forced to the log as one
// redo frame after the rows are loaded. The whole restore holds ckptMu, so a
// checkpoint images the table either before the restore began (and the later
// frame replaces that image on replay) or after it completed (and the
// checkpoint supersedes the frame) — never half loaded.
func (e *Engine) RestoreTable(db string, d TableDump) error {
	logged := !e.recovering.Load()
	if logged {
		e.ckptMu.Lock()
		defer e.ckptMu.Unlock()
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrEngineClosed
	}
	tables, ok := e.dbs[db]
	if !ok {
		e.mu.Unlock()
		return fmt.Errorf("%w: database %s", ErrNoTable, db)
	}
	key := lower(d.Schema.Table)
	if old, exists := tables[key]; exists {
		e.pool.InvalidateTable(old.qname)
	}
	tbl := newTable(e, qualified(db, d.Schema.Table), d.Schema.Clone())
	tables[key] = tbl
	e.mu.Unlock()
	// Plans bound to the replaced table, and cached "no such table" knowledge
	// derived before the restore, must not outlive it.
	e.planGen.Add(1)

	for _, r := range d.Rows {
		rowID := tbl.allocRowID()
		tbl.insertRowPhysical(rowID, r)
	}
	for _, idx := range d.Indexes {
		colIdx := tbl.schema.ColIndex(idx.Col)
		if colIdx < 0 {
			return fmt.Errorf("%w: %s.%s", ErrNoColumn, d.Schema.Table, idx.Col)
		}
		if err := tbl.createIndex(idx.Name, colIdx, idx.Unique); err != nil {
			return err
		}
	}
	if !logged {
		return nil
	}
	_, err := e.wal.AppendSync(wal.Record{
		Type: wal.RecRestoreTable, DB: db, Table: key, Data: encodeTableImage(d),
	})
	return err
}
