package sqldb

import "errors"

// This file is the table-read half of the executor: one bound read per table
// a statement touches, executed by one routine per access step. The same
// routines serve single-table SELECTs, join inputs, and the row-selection
// step of UPDATE and DELETE; only the lock strength differs.

// errStalePlan reports that the catalog moved between the plan-cache lookup
// and execution (the table was dropped and re-created, or the index a step
// uses is gone): the statement is re-bound against the current catalog and
// run again. It never leaves the engine.
var errStalePlan = errors.New("sqldb: plan is stale")

// tableRead is one table access of a bound statement: the access path the
// planner chose, its constants bound to the parameters, and the filter.
type tableRead struct {
	name   string  // table name as written, resolved per execution
	schema *Schema // schema bound against; pointer-compared at execution
	path   *accessPath

	eq, lo, hi exprFn // the path's constants
	residual   predFn // conjuncts the path did not consume (point, index, range steps)
	where      predFn // the whole predicate (scan step)

	// write marks the row-selection step of UPDATE/DELETE: IX/X locks instead
	// of IS/S, row IDs are returned, and index candidates are re-checked
	// against the whole predicate once locked.
	write bool
	// scratch lets the point step return its row in the transaction's reusable
	// buffer. Only a single-table SELECT sets it: its output stage copies the
	// values out before anything else reads a row.
	scratch bool
}

// bindRead plans and binds the read of tbl (visible as alias) filtered by
// where.
func bindRead(tbl *Table, name, alias string, where Expr) *tableRead {
	p := planWhere(tbl, where)
	b := &binder{cols: bindingsFor(tbl.schema, alias)}
	r := &tableRead{
		name: name, schema: tbl.schema, path: p,
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

// boundTable looks name up in the transaction's database and checks it is
// still the table (by schema identity) a plan was bound against.
func (t *Txn) boundTable(name string, schema *Schema) (*Table, error) {
	tbl, err := t.engine.Table(t.db, name)
	if err != nil {
		return nil, err
	}
	if tbl.schema != schema {
		return nil, errStalePlan
	}
	return tbl, nil
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

// candidates returns the row IDs an index-equality or range step starts from,
// and the re-check of the access column for a fetched candidate.
func (r *tableRead) candidates(tbl *Table, a access) (ids []uint64, match func(Row) bool, err error) {
	p, col, ok := r.path, r.path.colIdx, true
	if a.kind == pathIndexEq {
		v := a.eq
		ids, ok = tbl.lookupIndex(p.col, v)
		match = func(row Row) bool { return Equal(row[col], v) }
	} else {
		b := a.b
		if p.onPK {
			ids = tbl.lookupPKRange(b)
		} else {
			ids, ok = tbl.lookupIndexRange(p.col, b)
		}
		match = func(row Row) bool { return b.match(row[col]) }
	}
	if !ok {
		return nil, nil, errStalePlan
	}
	return ids, match, nil
}

// fetchPoint reads the row under the primary key key — into the
// transaction's row buffer when the read may use it — and applies the
// residual.
func (r *tableRead) fetchPoint(t *Txn, tbl *Table, en *env, key string) (row Row, id uint64, found bool, err error) {
	if r.scratch {
		row, id, found = tbl.readPKRowInto(key, t.rowBuf)
		t.rowBuf = row
	} else {
		row, id, found = tbl.readPKRowInto(key, nil) // a private copy
	}
	if found && r.residual != nil {
		en.row = row
		found, err = r.residual(en)
	}
	return row, id, found, err
}

// scan reads every row matching the whole predicate, which is evaluated under
// the page latch so non-matching rows are never cloned.
func (r *tableRead) scan(tbl *Table, en *env) (rows []Row, ids []uint64, err error) {
	var match func(Row) (bool, error)
	if r.where != nil {
		match = func(row Row) (bool, error) {
			en.row = row
			return r.where(en)
		}
	}
	err = tbl.scanWhere(match, func(id uint64, row Row) bool {
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
	if err := t.lockTable(tbl, tableMode); err != nil {
		return nil, nil, err
	}
	if a.kind == pathPoint {
		return r.lockPoint(t, tbl, en, a.eq)
	}
	ids, match, err := r.candidates(tbl, a)
	if err != nil {
		return nil, nil, err
	}
	return r.lockCandidates(t, tbl, en, ids, match)
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
	if !r.scratch && !r.write {
		return []Row{row}, nil, nil
	}
	// A single-table SELECT and a write both consume the one-row list before
	// the transaction reads again.
	t.rowsScratch = append(t.rowsScratch[:0], row)
	t.idBuf[0] = id
	return t.rowsScratch, t.idBuf[:], nil
}

// lockCandidates is the row-collection step of the index-equality and range
// steps, and of a scanning write: read the candidates' primary keys, lock each
// candidate by its key in candidate order, fetch the rows once their locks
// are held (the candidates were an unlocked guess; a row may have changed or
// vanished in between), and keep those that still match. It takes the
// candidates a page's run at a time (see Table.pkValues), one latch
// acquisition for the keys and one for the rows. ids is overwritten.
func (r *tableRead) lockCandidates(t *Txn, tbl *Table, en *env, ids []uint64, match func(Row) bool) (rows []Row, kept []uint64, err error) {
	var (
		n       int
		batch   []uint64
		pks     []Value // reused from batch to batch, as fetched is
		fetched []Row
	)
	for len(ids) > 0 {
		n, batch, pks = tbl.pkValues(ids, pks[:0])
		ids = ids[n:]
		for _, pk := range pks {
			key := keyOf(pk)
			if err := t.lockRow(tbl, key, r.rowMode()); err != nil {
				return nil, nil, err
			}
			t.engine.record(t, r.write, tbl, key)
		}
		fetched = tbl.getRowsBatch(batch, fetched[:0])
		for i, row := range fetched {
			en.row = row
			keep := true
			switch {
			case r.write:
				if r.where != nil {
					keep, err = r.where(en)
				}
			case !match(row):
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
			rows = append(rows, row)
			if r.write {
				kept = append(kept, batch[i])
			}
		}
	}
	return rows, kept, nil
}

// lockScan is the scan step. A query reads under a shared table lock. A write
// finds its candidates under IX and then locks and re-checks each one — unless
// the table has no primary key and so no row-lock identity: then the write
// takes the whole table exclusively.
func (r *tableRead) lockScan(t *Txn, tbl *Table, en *env) ([]Row, []uint64, error) {
	if r.write && tbl.schema.PKIdx >= 0 {
		if err := t.lockTable(tbl, LockIX); err != nil {
			return nil, nil, err
		}
		_, ids, err := r.scan(tbl, en)
		if err != nil {
			return nil, nil, err
		}
		return r.lockCandidates(t, tbl, en, ids, nil)
	}
	tableMode := LockS
	if r.write {
		tableMode = LockX
	}
	if err := t.lockTable(tbl, tableMode); err != nil {
		return nil, nil, err
	}
	t.engine.record(t, r.write, tbl, "")
	return r.scan(tbl, en)
}

func (r *tableRead) rowMode() LockMode {
	if r.write {
		return LockX
	}
	return LockS
}
