package sqldb

import "errors"

// This file is the table-read half of the executor: one bound read per table
// a statement touches, executed by one routine per access step. The same
// routines serve single-table SELECTs, join inputs, and the row-selection
// step of UPDATE and DELETE; only the lock strength differs.

// errStalePlan reports that a table a plan was bound to left the catalog
// (dropped, or replaced by a restore) before the statement locked it: the
// statement is re-bound against the current catalog and run again. It never
// leaves the engine.
var errStalePlan = errors.New("sqldb: plan is stale")

// tableRead is one table access of a bound statement: the access path the
// planner chose, its constants bound to the parameters, and the filter.
type tableRead struct {
	tbl  *Table
	path *accessPath

	eq, lo, hi exprFn // the path's constants
	residual   predFn // conjuncts the path did not consume (point, index, range steps)
	where      predFn // the whole predicate (scan step)

	// first, when positive, marks the one read that stops early (see
	// orderedStop): an index-equality step whose statement needs only its
	// first rows in primary-key order, ascending or, with desc, descending.
	first int
	desc  bool

	// write marks the row-selection step of UPDATE/DELETE: IX/X locks instead
	// of IS/S, row IDs are returned, and index candidates are re-checked
	// against the whole predicate once locked.
	write bool
}

// bindRead plans and binds the read of tbl (visible as alias) filtered by
// where.
func bindRead(tbl *Table, alias string, where Expr) *tableRead {
	p := planWhere(tbl, where)
	b := &binder{cols: bindingsFor(tbl.schema, alias)}
	r := &tableRead{
		tbl: tbl, path: p,
		eq: bindConst(p.eq), lo: bindConst(p.lo), hi: bindConst(p.hi),
	}
	if where != nil {
		r.where = b.pred(where)
	}
	if p.residual != nil {
		r.residual = b.pred(p.residual)
	}
	return r
}

// access is the step one execution takes, with its constants evaluated.
type access struct {
	kind pathKind
	eq   Value       // point, index equality
	b    rangeBounds // range
}

// prepare evaluates the path's constants for this execution. A range whose
// bound is NULL (no row can match, but the scan owns the locking behaviour)
// or not comparable with the column (the scan owns the type-mismatch error)
// takes the same plan's scan step instead.
func (r *tableRead) prepare(tbl *Table, en *env) (a access, err error) {
	p := r.path
	a.kind = p.kind
	switch p.kind {
	case pathPoint, pathIndexEq:
		a.eq, err = r.eq(en)
	case pathIndexRange:
		colTyp := tbl.schema.Cols[p.colIdx].Typ
		if r.lo != nil {
			v, err := r.lo(en)
			if err != nil {
				return a, err
			}
			if v.IsNull() || !colComparable(colTyp, v) {
				return access{kind: pathScan}, nil
			}
			a.b.lo, a.b.hasLo, a.b.loIncl = v, true, p.loIncl
		}
		if r.hi != nil {
			v, err := r.hi(en)
			if err != nil {
				return a, err
			}
			if v.IsNull() || !colComparable(colTyp, v) {
				return access{kind: pathScan}, nil
			}
			a.b.hi, a.b.hasHi, a.b.hiIncl = v, true, p.hiIncl
		}
	}
	return a, err
}

// candidates returns the primary-key keys of the rows an index-equality or
// range step starts from.
func (r *tableRead) candidates(tbl *Table, a *access) []string {
	p := r.path
	switch {
	case a.kind == pathIndexEq:
		return tbl.lookupIndex(p.col, a.eq, "", false, -1)
	case p.onPK:
		return tbl.lookupPKRange(a.b)
	default:
		return tbl.lookupIndexRange(p.col, a.b)
	}
}

// holds re-checks the access column of a fetched candidate against the
// step's equality or range.
func (r *tableRead) holds(a *access, row Row) bool {
	v := row[r.path.colIdx]
	if a.kind == pathIndexEq {
		return Equal(v, a.eq)
	}
	return a.b.match(v)
}

// fetchPoint reads the row under the primary key key into the transaction's
// arena and applies the residual.
func (r *tableRead) fetchPoint(t *Txn, tbl *Table, en *env, key string) (row Row, id uint64, found bool, err error) {
	row, id, found = tbl.readPKRow(key, t.vals)
	if found && r.residual != nil {
		en.row = row
		found, err = r.residual(en)
	}
	return row, id, found, err
}

// scan reads every row matching the whole predicate, which is evaluated under
// the page latch on the row as it is decoded into the arena, where a row it
// rejects gives its room to the next.
func (r *tableRead) scan(t *Txn, tbl *Table, en *env) (rows []Row, ids []uint64, err error) {
	var match func(Row) (bool, error)
	if r.where != nil {
		match = func(row Row) (bool, error) {
			en.row = row
			return r.where(en)
		}
	}
	err = tbl.scanWhere(t.vals, match, func(id uint64, row Row) bool {
		rows = append(rows, row)
		if r.write {
			ids = append(ids, id)
		}
		return true
	})
	return rows, ids, err
}

// rows runs the read under the transaction's locks and returns the matching
// rows (for a write read, with their row IDs). Lock order is table intention
// lock first, then row locks; every lock grant is followed by its history
// record.
func (r *tableRead) rows(t *Txn, tbl *Table, en *env) ([]Row, []uint64, error) {
	a, err := r.prepare(tbl, en)
	if err != nil {
		return nil, nil, err
	}
	if a.kind == pathScan {
		return r.lockScan(t, tbl, en)
	}
	tableMode := LockIS
	if r.write {
		tableMode = LockIX
	}
	if err := t.lockInc(tbl, tableMode, false); err != nil {
		return nil, nil, err
	}
	if a.kind == pathPoint {
		return r.lockPoint(t, tbl, en, a.eq)
	}
	if a.kind == pathIndexEq && a.eq.IsNull() {
		return nil, nil, nil // = NULL holds for no row, as the scan step finds
	}
	if r.first > 0 {
		rows, err := r.lockFirst(t, tbl, en, a.eq)
		return rows, nil, err
	}
	return r.lockCandidates(t, tbl, en, r.candidates(tbl, &a), &a)
}

// lockPoint is the primary-key equality step: one row lock on the key itself
// (not the row ID), so the lock also guards the key's absence against
// concurrent inserts. The row is then looked up by the same key string.
func (r *tableRead) lockPoint(t *Txn, tbl *Table, en *env, pk Value) ([]Row, []uint64, error) {
	key := keyOf(pk)
	if err := t.lockRow(tbl, key, r.rowMode()); err != nil {
		return nil, nil, err
	}
	t.engine.record(t, r.write, tbl, key)
	row, id, found, err := r.fetchPoint(t, tbl, en, key)
	if err != nil || !found {
		return nil, nil, err
	}
	rows := append(t.vals.list(1), row)
	if !r.write {
		return rows, nil, nil
	}
	return rows, append(t.vals.idList(1), id), nil
}

// lockCandidates is the row-collection step of the index-equality and range
// steps, and of a scanning write: lock each candidate under its primary-key
// key, in candidate order, then fetch the rows those keys name now, under one
// latch acquisition, and keep those that still match — a read's equality or
// range a, a write's whole predicate — for the candidates were an unlocked
// guess, and a row may have changed, taken another key or vanished in
// between.
func (r *tableRead) lockCandidates(t *Txn, tbl *Table, en *env, keys []string, a *access) (rows []Row, kept []uint64, err error) {
	for _, key := range keys {
		if err := t.lockRow(tbl, key, r.rowMode()); err != nil {
			return nil, nil, err
		}
		t.engine.record(t, r.write, tbl, key)
	}
	var ids *[]uint64
	if r.write {
		kept = t.vals.idList(len(keys))
		ids = &kept
	}
	fetched := tbl.getRowsBatch(keys, t.vals, ids)
	rows = fetched[:0]
	for i, row := range fetched {
		en.row = row
		keep := true
		switch {
		case r.write:
			if r.where != nil {
				keep, err = r.where(en)
			}
		case !r.holds(a, row):
			keep = false
		case r.residual != nil:
			keep, err = r.residual(en)
		}
		if err != nil {
			return nil, nil, err
		}
		if !keep {
			continue
		}
		if r.write {
			kept[len(rows)] = kept[i]
		}
		rows = append(rows, row)
	}
	if r.write {
		kept = kept[:len(rows)]
	}
	return rows, kept, nil
}

// lockFirst is the index-equality step of a read that needs only its first
// r.first rows in primary-key order: it takes the key's postings from the end
// r.desc names, and locks, fetches and re-checks only as many as it still
// needs, until it holds r.first rows or the postings run out. A candidate
// that fails its re-check costs another round for the rows it left missing.
func (r *tableRead) lockFirst(t *Txn, tbl *Table, en *env, v Value) (rows []Row, err error) {
	a := &access{kind: pathIndexEq, eq: v}
	for after := ""; len(rows) < r.first; {
		want := r.first - len(rows)
		keys := tbl.lookupIndex(r.path.col, v, after, r.desc, want)
		got, _, err := r.lockCandidates(t, tbl, en, keys, a)
		if err != nil {
			return nil, err
		}
		if rows == nil {
			rows = got // the one round a read whose candidates all match takes
		} else {
			rows = append(rows, got...)
		}
		if len(keys) < want {
			break
		}
		after = keys[len(keys)-1]
	}
	return rows, nil
}

// lockScan is the scan step. A query reads under a shared table lock. A write
// finds its candidates under IX and then locks and re-checks each one — unless
// the table has no primary key and so no row-lock identity: then the write
// takes the whole table exclusively.
func (r *tableRead) lockScan(t *Txn, tbl *Table, en *env) ([]Row, []uint64, error) {
	if r.write && tbl.schema.PKIdx >= 0 {
		if err := t.lockInc(tbl, LockIX, false); err != nil {
			return nil, nil, err
		}
		rows, _, err := r.scan(t, tbl, en)
		if err != nil {
			return nil, nil, err
		}
		keys := make([]string, len(rows))
		for i, row := range rows {
			keys[i] = keyOf(row[tbl.schema.PKIdx])
		}
		return r.lockCandidates(t, tbl, en, keys, nil)
	}
	tableMode := LockS
	if r.write {
		tableMode = LockX
	}
	if err := t.lockInc(tbl, tableMode, false); err != nil {
		return nil, nil, err
	}
	t.engine.record(t, r.write, tbl, "")
	return r.scan(t, tbl, en)
}

func (r *tableRead) rowMode() LockMode {
	if r.write {
		return LockX
	}
	return LockS
}
