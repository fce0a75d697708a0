package sqldb

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Result is the outcome of a statement: column names and rows for queries,
// an affected-row count for DML.
type Result struct {
	Cols     []string
	Rows     []Row
	Affected int
}

// locking helpers ----------------------------------------------------------

// lockInc takes tbl's lock in mode, preempting as DDL does (see
// lockManager.lock) if asked to. A table leaves the catalog only under its
// X lock, so once the lock is held tbl is either alive until the transaction
// ends, or already dead: errStalePlan.
func (t *Txn) lockInc(tbl *Table, mode LockMode, preempt bool) error {
	if err := t.engine.locks.lock(t, lockID{Table: tbl.inc}, mode, preempt); err != nil || !tbl.dead.Load() {
		return err
	}
	return errStalePlan
}

// lockNamed looks name up in the transaction's database and locks it — in X,
// for DDL, preempting — again if the table it found left the catalog before
// the lock was granted.
func (t *Txn) lockNamed(name string, mode LockMode) (*Table, error) {
	for {
		tbl, err := t.catalog.table(name)
		if err != nil {
			return nil, err
		}
		if err = t.lockInc(tbl, mode, mode == LockX); err != errStalePlan {
			return tbl, err
		}
	}
}

func (t *Txn) lockRow(tbl *Table, key string, mode LockMode) error {
	return t.engine.locks.acquire(t, lockID{Table: tbl.inc, Key: key}, mode)
}

// execute dispatches a parsed statement. The transaction's state has already
// been validated by the caller. plan, when non-nil, is the statement's cached
// bound form.
func (e *Engine) execute(t *Txn, stmt Statement, plan *stmtPlan, params []Value) (*Result, error) {
	if !e.recovering.Load() {
		e.statStmtExecs.Add(1)
	}
	switch s := stmt.(type) {
	case *CreateTableStmt:
		return e.execCreateTable(t, s)
	case *CreateIndexStmt:
		res, err := e.execCreateIndex(t, s)
		if err == nil {
			// Logged at the install, under the table IX lock the statement's
			// transaction holds to its end: recovery builds from the rows it
			// has at the record, and later records keep the index as they
			// kept it here, so the record needs no order against the writes
			// that ran beside the build.
			err = e.walDDL(t.db, s.Table, s.text)
		}
		return res, err
	case *DropTableStmt:
		return e.execDropTable(t, s)
	case *InsertStmt:
		res, err := e.runBound(t, stmt, plan, params)
		return e.logWrite(t, s.Table, s.text, params, res, err)
	case *UpdateStmt:
		res, err := e.runBound(t, stmt, plan, params)
		return e.logWrite(t, s.Table, s.text, params, res, err)
	case *DeleteStmt:
		res, err := e.runBound(t, stmt, plan, params)
		return e.logWrite(t, s.Table, s.text, params, res, err)
	case *SelectStmt:
		return e.runBound(t, stmt, plan, params)
	case *ExplainStmt:
		return e.execExplain(t, s, params)
	case *BeginStmt, *CommitStmt, *RollbackStmt:
		return nil, fmt.Errorf("sqldb: transaction-control statements are handled by the session layer")
	default:
		return nil, fmt.Errorf("sqldb: unsupported statement %T", stmt)
	}
}

// runBound executes a SELECT or DML statement through its bound plan, in the
// transaction's arena, which it takes from the engine at the transaction's
// first such statement and resets for each run. A missing plan (the
// statement did not bind when it was cached) is bound now, which reports
// why; a plan whose table left the catalog since it was fetched is re-bound
// against the current catalog and run again.
func (e *Engine) runBound(t *Txn, stmt Statement, plan *stmtPlan, params []Value) (*Result, error) {
	if !e.recovering.Load() {
		e.statCompiledExecs.Add(1)
	}
	if t.vals == nil {
		t.vals = e.arenas.Get().(*arena)
	}
	for {
		t.vals.reset()
		if plan == nil {
			var err error
			if plan, err = bindStatement(t.catalog, stmt); err != nil {
				return nil, err
			}
		}
		res, err := plan.exec(t, params)
		if err != errStalePlan {
			return res, err
		}
		plan = nil
	}
}

// logWrite appends the redo record for a successful DML statement while its
// locks are still held (the locks stay held until commit either way, so log
// order equals lock-grant order for conflicting statements). Statements that
// matched no rows are not logged: replaying them would redo nothing.
func (e *Engine) logWrite(t *Txn, table, text string, params []Value, res *Result, err error) (*Result, error) {
	if err != nil || res == nil || res.Affected == 0 {
		return res, err
	}
	if werr := e.walStmt(t, table, text, params); werr != nil {
		return res, werr
	}
	return res, nil
}

// --- DDL -------------------------------------------------------------------
//
// DDL statements take effect immediately and are not undone by rollback
// (matching MySQL's implicit-commit behaviour for DDL).

func (e *Engine) execCreateTable(t *Txn, s *CreateTableStmt) (*Result, error) {
	cols := make([]Column, len(s.Cols))
	for i, c := range s.Cols {
		cols[i] = Column{Name: c.Name, Typ: c.Typ, PrimaryKey: c.PrimaryKey, NotNull: c.NotNull, Unique: c.Unique}
	}
	schema, err := NewSchema(s.Table, cols)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if t.catalog.dropped.Load() {
		return nil, ErrTxnAborted
	}
	key := lower(s.Table)
	if _, exists := t.catalog.tables[key]; exists {
		if s.IfNotExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("%w: %s", ErrTableExists, s.Table)
	}
	t.catalog.tables[key] = newTable(e, t.db, schema)
	// Logged under the catalog mutex: a write to the new table can only start
	// after this mutex is released, so its record lands after this one.
	if err := e.walDDL(t.db, s.Table, s.text); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// execCreateIndex builds the index online (Table.createIndex) under the
// table IX lock that writers take: writers go on beside the build, and the
// dump's and a checkpoint's S lock wait for the statement's transaction as
// they wait for any writer's, so an image holds the index whole or not at
// all. A unique index installs under the table's X lock: every writer that
// ran beside the build has then ended, its keys among the edits the install
// checks, and every later one locks and probes its keys (lockUnique,
// uniqueViolation).
func (e *Engine) execCreateIndex(t *Txn, s *CreateIndexStmt) (*Result, error) {
	tbl, err := t.lockNamed(s.Table, LockIX)
	if err != nil {
		return nil, err
	}
	colIdx := tbl.schema.ColIndex(s.Col)
	if colIdx < 0 {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoColumn, s.Table, s.Col)
	}
	var beforeInstall func() error
	if s.Unique {
		beforeInstall = func() error { return t.lockInc(tbl, LockX, false) }
	}
	if err := tbl.createIndex(s.Name, colIdx, s.Unique, beforeInstall); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// execDropTable drops a table under its X lock, taken preempting (see
// lockManager.lock): the transactions that hold the table roll back or,
// prepared, are waited for, and the ones that wait for it find it dead.
func (e *Engine) execDropTable(t *Txn, s *DropTableStmt) (*Result, error) {
	tbl, err := t.lockNamed(s.Table, LockX)
	if err != nil {
		if s.IfExists && errors.Is(err, ErrNoTable) {
			return &Result{}, nil
		}
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.unpublish(t.catalog, lower(s.Table), tbl)
	// Logged under the table's X lock, ordering the drop after every record
	// of the dropped table.
	if err := e.walDDL(t.db, s.Table, s.text); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// --- INSERT ------------------------------------------------------------------

// boundInsert is an INSERT bound against its table: the schema position of
// every listed column and the value expressions of every row.
type boundInsert struct {
	table     string // as the statement names it
	tbl       *Table
	positions []int
	tableMode LockMode
	unique    []int  // the columns whose values lockUnique locks and uniqueViolation probes
	gen       uint32 // tbl's indexGen when unique was read

	// bound[r][i] evaluates values[r][i], except that a literal is taken
	// straight from its node: bulk loads are 50-row all-literal statements
	// that the plan caches retain, and a closure per literal would grow each
	// of their plans by some 10 kB. bound (or bound[r]) stays nil while
	// everything in the statement (or row) is a literal.
	values [][]Expr
	bound  [][]exprFn
}

func bindInsert(p *stmtPlan, s *InsertStmt) (func(*Txn, []Value) (*Result, error), error) {
	tbl, err := p.table(s.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.schema
	bi := &boundInsert{table: s.Table, tbl: tbl, tableMode: LockIX}

	// Map the statement's column list to schema positions.
	if len(s.Cols) == 0 {
		for i := range schema.Cols {
			bi.positions = append(bi.positions, i)
		}
	}
	for _, c := range s.Cols {
		idx := schema.ColIndex(c)
		if idx < 0 {
			return nil, fmt.Errorf("%w: %s.%s", ErrNoColumn, s.Table, c)
		}
		bi.positions = append(bi.positions, idx)
	}
	// Without a primary key there is no row-lock identity.
	bi.unique, bi.gen = tbl.uniqueAmong(nil) // a column left out is NULL, which an index counts
	if schema.PKIdx < 0 {
		bi.tableMode = LockX
	}
	var b binder // VALUES see no columns
	bi.values = s.Rows
	for r, exprRow := range s.Rows {
		for i, ex := range exprRow {
			if _, literal := ex.(*LiteralExpr); literal {
				continue
			}
			if bi.bound == nil {
				bi.bound = make([][]exprFn, len(s.Rows))
			}
			if bi.bound[r] == nil {
				bi.bound[r] = make([]exprFn, len(exprRow))
			}
			bi.bound[r][i] = b.expr(ex)
		}
	}
	return bi.exec, nil
}

func (bi *boundInsert) exec(t *Txn, params []Value) (*Result, error) {
	e, tbl, schema := t.engine, bi.tbl, bi.tbl.schema
	// Lock order: table intention lock first, then row locks.
	if err := t.lockInc(tbl, bi.tableMode, false); err != nil {
		return nil, err
	}
	if tbl.indexGen.Load() != bi.gen { // an index installed since: lock and probe it too
		return nil, errStalePlan
	}

	en := t.newEnv(params)
	affected := 0
	var err error
	for r, exprRow := range bi.values {
		if len(exprRow) != len(bi.positions) {
			return nil, fmt.Errorf("%w: INSERT has %d values for %d columns", ErrTypeMismatch, len(exprRow), len(bi.positions))
		}
		full := t.vals.nulls(len(schema.Cols))
		for i, ex := range exprRow {
			if lit, ok := ex.(*LiteralExpr); ok {
				full[bi.positions[i]] = lit.Val
			} else if full[bi.positions[i]], err = bi.bound[r][i](en); err != nil {
				return nil, err
			}
		}
		if err := schema.CheckRow(full); err != nil {
			return nil, err
		}
		if schema.PKIdx >= 0 {
			key := keyOf(full[schema.PKIdx])
			if err := t.lockRow(tbl, key, LockX); err != nil {
				return nil, err
			}
			if _, dup := tbl.lookupPK(full[schema.PKIdx]); dup {
				return nil, fmt.Errorf("%w: %s=%s in %s", ErrDuplicateKey, schema.Cols[schema.PKIdx].Name, full[schema.PKIdx], bi.table)
			}
			e.record(t, true, tbl, key)
		} else {
			e.record(t, true, tbl, "")
		}
		if err := t.lockUnique(tbl, bi.unique, full); err != nil {
			return nil, err
		}
		if err := tbl.uniqueViolation(bi.unique, full, 0); err != nil {
			return nil, err
		}
		rowID := tbl.allocRowID()
		tbl.insertRowPhysical(rowID, full)
		t.logUndo(undoRec{table: tbl, kind: undoInsert, rowID: rowID})
		affected++
	}
	return &Result{Affected: affected}, nil
}

// --- UPDATE / DELETE --------------------------------------------------------

// boundWrite is an UPDATE or DELETE bound against its table: the read that
// locks and returns the target rows and, for UPDATE, the assignments.
type boundWrite struct {
	read   *tableRead
	delete bool
	setIdx []int
	set    []exprFn
	unique []int  // the columns it sets (UPDATE) or drops (DELETE) that lockUnique locks
	gen    uint32 // the table's indexGen when unique was read
}

func bindUpdate(p *stmtPlan, s *UpdateStmt) (func(*Txn, []Value) (*Result, error), error) {
	tbl, err := p.table(s.Table)
	if err != nil {
		return nil, err
	}
	bw := &boundWrite{}
	b := &binder{cols: bindingsFor(tbl.schema, s.Table)}
	for _, a := range s.Set {
		idx := tbl.schema.ColIndex(a.Col)
		if idx < 0 {
			return nil, fmt.Errorf("%w: %s.%s", ErrNoColumn, s.Table, a.Col)
		}
		bw.setIdx = append(bw.setIdx, idx)
		bw.set = append(bw.set, b.expr(a.Expr))
	}
	bw.unique, bw.gen = tbl.uniqueAmong(bw.setIdx)
	bw.read = bindRead(tbl, s.Table, s.Where)
	bw.read.write = true
	return bw.exec, nil
}

func bindDelete(p *stmtPlan, s *DeleteStmt) (func(*Txn, []Value) (*Result, error), error) {
	tbl, err := p.table(s.Table)
	if err != nil {
		return nil, err
	}
	bw := &boundWrite{delete: true, read: bindRead(tbl, s.Table, s.Where)}
	bw.unique, bw.gen = tbl.uniqueAmong(nil)
	bw.read.write = true
	return bw.exec, nil
}

func (bw *boundWrite) exec(t *Txn, params []Value) (*Result, error) {
	tbl := bw.read.tbl
	en := t.newEnv(params)
	rows, ids, err := bw.read.rows(t, tbl, en)
	if err != nil {
		return nil, err
	}
	if tbl.indexGen.Load() != bw.gen { // as boundInsert does
		return nil, errStalePlan
	}
	schema := tbl.schema
	for i, old := range rows {
		if err := t.lockUnique(tbl, bw.unique, old); err != nil {
			return nil, err
		}
		// old is an arena row: its undo record keeps a copy of its own.
		if bw.delete {
			tbl.deleteRowPhysical(ids[i])
			t.logUndo(undoRec{table: tbl, kind: undoDelete, rowID: ids[i], before: old.Clone()})
			continue
		}
		en.row = old
		newRow := t.vals.row(len(old))
		copy(newRow, old)
		for k, f := range bw.set {
			if newRow[bw.setIdx[k]], err = f(en); err != nil {
				return nil, err
			}
		}
		if err := schema.CheckRow(newRow); err != nil {
			return nil, err
		}
		if pk := schema.PKIdx; pk >= 0 {
			if _, newKey, changed := keyChange(old[pk], newRow[pk]); changed {
				if err := t.lockRow(tbl, newKey, LockX); err != nil {
					return nil, err
				}
				if _, dup := tbl.lookupPK(newRow[pk]); dup {
					return nil, fmt.Errorf("%w: %s", ErrDuplicateKey, newRow[pk])
				}
				t.engine.record(t, true, tbl, newKey)
			}
		}
		if err := t.lockUnique(tbl, bw.unique, newRow); err != nil {
			return nil, err
		}
		if err := tbl.uniqueViolation(bw.unique, newRow, ids[i]); err != nil {
			return nil, err
		}
		tbl.updateRowPhysical(ids[i], newRow)
		t.logUndo(undoRec{table: tbl, kind: undoUpdate, rowID: ids[i], before: old.Clone()})
	}
	return &Result{Affected: len(rows)}, nil
}

// --- shared binding helpers ---------------------------------------------------

func itemName(item SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	if ce, ok := item.Expr.(*ColumnExpr); ok {
		return ce.Col
	}
	if ag, ok := item.Expr.(*AggExpr); ok {
		return strings.ToLower(ag.Fn.String())
	}
	return "expr"
}

func splitAnd(e Expr) []Expr {
	if be, ok := e.(*BinaryExpr); ok && be.Op == OpAnd {
		return append(splitAnd(be.L), splitAnd(be.R)...)
	}
	return []Expr{e}
}

func joinAnd(es []Expr) Expr {
	if len(es) == 0 {
		return nil
	}
	out := es[0]
	for _, e := range es[1:] {
		out = &BinaryExpr{Op: OpAnd, L: out, R: e}
	}
	return out
}

// bindingsFor builds the column bindings of one table under an alias.
func bindingsFor(schema *Schema, alias string) []colBinding {
	out := make([]colBinding, len(schema.Cols))
	for i, c := range schema.Cols {
		out[i] = colBinding{table: lower(alias), col: lower(c.Name)}
	}
	return out
}

// resolveBinding returns the position of the column ce names, -1 when there
// is none, -2 when it is ambiguous.
func resolveBinding(bindings []colBinding, ce *ColumnExpr) int {
	match := -1
	for i, b := range bindings {
		if !strings.EqualFold(b.col, ce.Col) {
			continue
		}
		if ce.Table != "" && !strings.EqualFold(b.table, ce.Table) {
			continue
		}
		if match >= 0 {
			return -2 // ambiguous
		}
		match = i
	}
	return match
}

// uniqueAmong returns those of cols, schema positions (nil: every column),
// whose values must be unique apart from the primary key — a UNIQUE column,
// or one an installed unique index covers — and the indexGen they were read
// at: a plan that locks and probes them runs only while it stands.
func (t *Table) uniqueAmong(cols []int) (unique []int, gen uint32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for c, col := range t.schema.Cols {
		idx := t.indexes[lower(col.Name)]
		if (cols == nil || slices.Contains(cols, c)) && !col.PrimaryKey && (col.Unique || idx != nil && idx.unique && idx.pending == nil) {
			unique = append(unique, c)
		}
	}
	return unique, t.indexGen.Load()
}

// lockUnique takes in X the lock on the value row holds in each column of
// unique, keyed apart from every primary key (no key starts with 0xff): a
// write that stores, changes or removes a value of a unique column holds
// the value's lock to its end, as a row lock guards its primary key, so no
// other writer's probe passes on a value this one stores or its undo could
// restore.
func (t *Txn) lockUnique(tbl *Table, unique []int, row Row) error {
	for _, c := range unique {
		if err := t.lockRow(tbl, string(appendKey([]byte{0xff, byte(c)}, &row[c])), LockX); err != nil {
			return err
		}
	}
	return nil
}

// uniqueViolation refuses row, about to be stored as row self (0: a new
// one), if another live row holds its value in a column of unique: read
// from the column's installed unique index, and found by a scan otherwise.
// NULL repeats nothing, as in SQL, so a NULL is never refused. The caller
// holds the values' locks (lockUnique).
func (t *Table) uniqueViolation(unique []int, row Row, self uint64) error {
	for _, c := range unique {
		v, dup := row[c], false
		if v.IsNull() {
			continue
		}
		t.mu.Lock()
		idx := t.indexes[lower(t.schema.Cols[c].Name)]
		scan := idx == nil || !idx.unique || idx.pending != nil
		if !scan {
			ids := idx.m[keyOf(v)]
			if len(ids) == 1 {
				id, _ := t.rowIDOf(ids[0])
				dup = id != self
			} else {
				dup = len(ids) > 1
			}
		}
		t.mu.Unlock()
		if scan {
			holds := func(r Row) (bool, error) { return Equal(r[c], v), nil }
			_ = t.scanWhere(new(arena), holds, func(id uint64, _ Row) bool {
				dup = id != self
				return !dup
			})
		}
		if dup {
			return fmt.Errorf("%w: %s=%s in %s", ErrDuplicateKey, t.schema.Cols[c].Name, v, t.schema.Table)
		}
	}
	return nil
}

// errAmbiguous wraps an ambiguous column reference.
func errAmbiguous(col string) error {
	return fmt.Errorf("%w: ambiguous column %s", ErrNoColumn, col)
}
