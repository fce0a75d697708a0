package sqldb

import (
	"fmt"
	"time"

	"sdp/internal/wal"
)

// The dump tool models mysqldump: each table is copied under a table read
// lock, which blocks writers to that table for the duration of the table's
// copy. The cluster controller builds its online replica-creation protocol
// (the paper's Algorithm 1) on DumpTables and RestoreTable.

// TableDump is the copied image of one table. A row travels as its stored
// encoding, the bytes a page slot holds (encodeRow's), from the source's
// pages to the target's pages and log: a copy decodes and re-encodes no row.
type TableDump struct {
	Schema  *Schema
	Rows    []string // one encodeRow encoding a row
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
// It reads the sealed pages "from disk" — paying the engine's miss latency
// per page and not loading them into the buffer pool (a dirty resident page
// is written back first, so the image is current) — because a bulk copy
// neither benefits from nor should pollute the cache. This is what makes
// replica-creation time proportional to database size, as in the paper (a
// 200 MB copy took about two minutes on their hardware). A row is its slot's
// encoding, cut from the page image or the tail, and is never decoded. Every
// slot of a current image holds a live row (a delete removes its slot), and
// under the S lock no writer moves one.
func copyTable(tbl *Table) TableDump {
	tbl.mu.Lock()
	d := TableDump{Schema: tbl.schema.Clone(), Rows: make([]string, 0, tbl.liveRows)}
	for _, idx := range tbl.indexes {
		d.Indexes = append(d.Indexes, IndexDef{
			Name:   idx.name,
			Col:    tbl.schema.Cols[idx.col].Name,
			Unique: idx.unique,
		})
	}
	numPages := len(tbl.pages)
	tbl.mu.Unlock()
	lat := tbl.engine.cfg.MissLatency
	for p := 0; p < numPages; p++ {
		tbl.mu.Lock()
		tbl.engine.pool.Flush(tbl.pageKey(p))
		img := tbl.pages[p].image()
		tbl.mu.Unlock()
		if lat > 0 {
			time.Sleep(lat)
		}
		slots, err := mapPage(img)
		if err != nil {
			tbl.corruptPagePanic(p, err)
		}
		for _, s := range slots {
			d.Rows = append(d.Rows, s.enc)
		}
	}
	tbl.mu.Lock()
	tail := len(tbl.tail)
	for _, s := range tbl.tail { // slots are immutable: their bytes need no copy
		d.Rows = append(d.Rows, s.enc)
	}
	tbl.mu.Unlock()
	if lat > 0 && tail > 0 {
		time.Sleep(lat)
	}
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

	for _, idx := range d.Indexes {
		colIdx := tbl.schema.ColIndex(idx.Col)
		if colIdx < 0 {
			return fmt.Errorf("%w: %s.%s", ErrNoColumn, d.Schema.Table, idx.Col)
		}
		if err := tbl.createIndex(idx.Name, colIdx, idx.Unique); err != nil {
			return err
		}
	}
	if err := tbl.load(d.Rows); err != nil || !logged {
		return err
	}
	_, err := e.wal.AppendSync(wal.Record{
		Type: wal.RecRestoreTable, DB: db, Table: key, Data: encodeTableImage(d),
	})
	return err
}
