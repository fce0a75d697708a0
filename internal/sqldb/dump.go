package sqldb

import (
	"errors"
	"fmt"
	"time"

	"sdp/internal/wal"
)

// The dump tool models mysqldump: each table is copied under a table read
// lock, which blocks writers to that table for the duration of the table's
// copy. The cluster controller builds its online replica-creation protocol
// (the paper's Algorithm 1) on DumpTables and RestoreTable.

// TableDump is the copied image of one table. A row travels as its stored
// encoding, the bytes a page slot holds (EncodeRow's), from the source's
// pages to the target's pages and log: a copy decodes and re-encodes no row.
type TableDump struct {
	Schema  *Schema
	Rows    []string // one EncodeRow encoding a row
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
// transaction S-locks every table, in the order given, takes every table's
// image, and only then hands the images, in that order, to fn while all the
// locks are still held. The cluster controller's online replica creation
// (the paper's Algorithm 1) marks the tables copied and installs each image
// on the target machine from inside fn: a write routed to the target after
// that waits here for the locks, so it reaches the target after the image —
// otherwise it could reach the source but miss, or precede, the target's
// copy. Granularity is the caller's choice of how many tables one call
// names. The locks are a lock owner's (Engine.lockOwner): a DDL statement
// or restore on a dumped table waits for the dump.
func (e *Engine) DumpTables(db string, tables []string, fn func([]TableDump) error) error {
	d, err := e.database(db)
	if err != nil {
		return err
	}
	t := e.lockOwner(d)
	defer e.locks.releaseAll(t)
	locked := make([]*Table, len(tables))
	for i, name := range tables {
		if locked[i], err = t.lockNamed(name, LockS); err != nil {
			return err
		}
	}
	images := make([]TableDump, len(locked))
	for i, tbl := range locked {
		images[i] = copyTable(tbl)
	}
	return fn(images)
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
	d := TableDump{Schema: tbl.schema, Rows: make([]string, 0, tbl.liveRows)}
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
		page := tbl.pages[p]
		tbl.mu.Unlock()
		img, err := page.mapped()
		if err != nil {
			tbl.corruptPagePanic(p, err)
		}
		if lat > 0 {
			time.Sleep(lat)
		}
		pg := residentPage{img: img}
		for i := range pg.len() {
			d.Rows = append(d.Rows, pg.slot(i).enc)
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
// bookkeeping into a new incarnation that no one sees until it is full. It
// then takes the new incarnation's X lock and the replaced one's as DROP
// TABLE does (see lockManager.lock), swaps them in the catalog and, outside
// recovery, forces the image to the log as one redo frame before it lets go
// of the new incarnation: a writer of the table logs after that frame. The
// replaced incarnation's pages leave the buffer pool at the swap, before the
// new one's go in, so none is written back only to be discarded. The whole
// restore holds ckptMu, so a checkpoint images the table either before the
// restore began (and the later frame replaces that image on replay) or after
// it completed (and the checkpoint supersedes the frame) — never half loaded.
//
// Outside recovery a restore builds the primary-key map but leaves each
// secondary index pending (see BuildIndexes), so that a copy holding the
// source's lock while it restores holds it for the rows alone. Recovery
// builds every index at once.
func (e *Engine) RestoreTable(db string, d TableDump) error {
	logged := !e.recovering.Load()
	if logged {
		e.ckptMu.Lock()
		defer e.ckptMu.Unlock()
	}
	cat, err := e.database(db)
	if err != nil {
		return err
	}
	tbl := newTable(e, db, d.Schema)
	for _, idx := range d.Indexes {
		colIdx := tbl.schema.ColIndex(idx.Col)
		if colIdx < 0 {
			return fmt.Errorf("%w: %s.%s", ErrNoColumn, d.Schema.Table, idx.Col)
		}
		tbl.indexes[lower(idx.Col)] = &index{name: idx.Name, col: colIdx, unique: idx.Unique}
	}
	owner := e.lockOwner(cat)
	defer e.locks.releaseAll(owner)
	pages, err := tbl.load(d.Rows)
	if err == nil && !logged {
		err = tbl.buildRestored() // recovery builds at once
	}
	if err == nil {
		err = owner.lockInc(tbl, LockX, false) // no one knows it yet: granted at once
	}
	key := lower(d.Schema.Table)
	for done := false; err == nil && !done; {
		old, lerr := owner.lockNamed(key, LockX)
		e.mu.Lock()
		switch {
		case lerr != nil && !errors.Is(lerr, ErrNoTable):
			err = lerr
		case cat.dropped.Load():
			err = fmt.Errorf("%w: database %s", ErrNoTable, db)
		case cat.tables[key] == old: // nil, or alive under our X lock; else one was created meanwhile
			if old != nil {
				e.unpublish(cat, key, old)
			}
			cat.tables[key], done = tbl, true
		}
		e.mu.Unlock()
	}
	if err != nil {
		return err
	}
	tbl.place(pages)
	if !logged {
		return nil
	}
	_, err = e.wal.AppendSync(wal.Record{
		Type: wal.RecRestoreTable, DB: db, Table: key, Data: imageHead(d),
	}, d.Rows...)
	return err
}

// BuildIndexes builds the secondary indexes RestoreTable left pending on the
// named tables of db: each table's from its image, outside the table latch,
// and then, under the latch, with the edits that writes (and their undo)
// made since the restore, before it installs the maps — the online index
// build of Mohan and Narang (SIGMOD 1992), through Table.buildPending as
// CREATE INDEX builds. A copy calls it once the source's locks are released;
// until then no plan reads the pending indexes, so a statement scans. A
// unique index whose rows repeat a key fails the build with ErrDuplicateKey
// and stays pending. A table that is gone has nothing to build.
func (e *Engine) BuildIndexes(db string, tables []string) error {
	cat, err := e.database(db)
	if err != nil {
		return err
	}
	for _, name := range tables {
		e.mu.RLock()
		tbl := cat.tables[lower(name)]
		e.mu.RUnlock()
		if tbl == nil {
			continue
		}
		if err := tbl.buildRestored(); err != nil {
			return err
		}
	}
	return nil
}

// IndexesBuilt reports whether no index of db is pending; false when db
// cannot be read (a closed engine, a dropped database). A copy's target
// registers only when it is true.
func (e *Engine) IndexesBuilt(db string) bool {
	cat, err := e.database(db)
	if err != nil {
		return false
	}
	built := true
	for _, tbl := range e.tablesOf(cat) {
		tbl.mu.Lock()
		for _, idx := range tbl.indexes {
			built = built && idx.pending == nil
		}
		tbl.mu.Unlock()
	}
	return built
}
