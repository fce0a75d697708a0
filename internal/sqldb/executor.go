package sqldb

import (
	"fmt"
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

func (t *Txn) lockTable(tbl *Table, mode LockMode) error {
	return t.engine.locks.acquire(t, lockID{Table: tbl.qname}, mode)
}

func (t *Txn) lockRow(tbl *Table, key string, mode LockMode) error {
	return t.engine.locks.acquire(t, lockID{Table: tbl.qname, Key: key}, mode)
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
			// Logged while the table read lock is still held, so the record
			// is ordered against every write to the indexed table.
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

// runBound executes a SELECT or DML statement through its bound plan. A
// missing plan (the statement did not bind when it was cached) is bound now,
// which reports why; a plan the catalog moved under since it was fetched is
// re-bound against the current catalog and run again.
func (e *Engine) runBound(t *Txn, stmt Statement, plan *stmtPlan, params []Value) (*Result, error) {
	if !e.recovering.Load() {
		e.statCompiledExecs.Add(1)
	}
	for {
		if plan == nil {
			var err error
			if plan, err = bindStatement(e, t.db, stmt); err != nil {
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
	if e.closed {
		return nil, ErrEngineClosed
	}
	tables, ok := e.dbs[t.db]
	if !ok {
		return nil, fmt.Errorf("%w: database %s", ErrNoTable, t.db)
	}
	key := lower(s.Table)
	if _, exists := tables[key]; exists {
		if s.IfNotExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("%w: %s", ErrTableExists, s.Table)
	}
	tables[key] = newTable(e, qualified(t.db, s.Table), schema)
	e.planGen.Add(1)
	// Logged under the catalog mutex: a write to the new table can only start
	// after this mutex is released, so its record lands after this one.
	if err := e.walDDL(t.db, s.Table, s.text); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (e *Engine) execCreateIndex(t *Txn, s *CreateIndexStmt) (*Result, error) {
	tbl, err := e.Table(t.db, s.Table)
	if err != nil {
		return nil, err
	}
	colIdx := tbl.schema.ColIndex(s.Col)
	if colIdx < 0 {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoColumn, s.Table, s.Col)
	}
	// Build under a table S lock so the index sees a consistent image.
	if err := t.lockTable(tbl, LockS); err != nil {
		return nil, err
	}
	if err := tbl.createIndex(s.Name, colIdx, s.Unique); err != nil {
		return nil, err
	}
	// Cached plans for this table may be full scans that should now use the
	// index; force re-derivation.
	e.planGen.Add(1)
	return &Result{}, nil
}

func (e *Engine) execDropTable(t *Txn, s *DropTableStmt) (*Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrEngineClosed
	}
	tables, ok := e.dbs[t.db]
	if !ok {
		return nil, fmt.Errorf("%w: database %s", ErrNoTable, t.db)
	}
	key := lower(s.Table)
	tbl, exists := tables[key]
	if !exists {
		if s.IfExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("%w: %s.%s", ErrNoTable, t.db, s.Table)
	}
	delete(tables, key)
	e.pool.InvalidateTable(tbl.qname)
	e.planGen.Add(1)
	// Logged under the catalog mutex, ordering the drop after every record
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
	table     string
	schema    *Schema
	positions []int
	tableMode LockMode

	// bound[r][i] evaluates values[r][i], except that a literal is taken
	// straight from its node: bulk loads are 50-row all-literal statements
	// that the plan caches retain, and a closure per literal would grow each
	// of their plans by some 10 kB. bound (or bound[r]) stays nil while
	// everything in the statement (or row) is a literal.
	values [][]Expr
	bound  [][]exprFn
}

func bindInsert(e *Engine, db string, s *InsertStmt) (func(*Txn, []Value) (*Result, error), error) {
	tbl, err := e.Table(db, s.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.schema
	bi := &boundInsert{table: s.Table, schema: schema, tableMode: LockIX}

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
	// Without a primary key there is no row-lock identity; with a unique
	// secondary index the uniqueness probe needs a stable view.
	if schema.PKIdx < 0 {
		bi.tableMode = LockX
	}
	for _, c := range schema.Cols {
		if c.Unique && !c.PrimaryKey {
			bi.tableMode = LockX
		}
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
	e, schema := t.engine, bi.schema
	tbl, err := t.boundTable(bi.table, schema)
	if err != nil {
		return nil, err
	}
	// Lock order: table intention lock first, then row locks.
	if err := t.lockTable(tbl, bi.tableMode); err != nil {
		return nil, err
	}

	en := t.newEnv(params)
	affected := 0
	for r, exprRow := range bi.values {
		if len(exprRow) != len(bi.positions) {
			return nil, fmt.Errorf("%w: INSERT has %d values for %d columns", ErrTypeMismatch, len(exprRow), len(bi.positions))
		}
		full := nullRow(len(schema.Cols))
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
		for i, c := range schema.Cols {
			if c.Unique && !c.PrimaryKey {
				if dup := tbl.uniqueViolation(i, full[i]); dup {
					return nil, fmt.Errorf("%w: %s=%s in %s", ErrDuplicateKey, c.Name, full[i], bi.table)
				}
			}
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
}

func bindUpdate(e *Engine, db string, s *UpdateStmt) (func(*Txn, []Value) (*Result, error), error) {
	tbl, err := e.Table(db, s.Table)
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
	bw.read = bindRead(tbl, s.Table, s.Table, s.Where)
	bw.read.write = true
	return bw.exec, nil
}

func bindDelete(e *Engine, db string, s *DeleteStmt) (func(*Txn, []Value) (*Result, error), error) {
	tbl, err := e.Table(db, s.Table)
	if err != nil {
		return nil, err
	}
	bw := &boundWrite{delete: true, read: bindRead(tbl, s.Table, s.Table, s.Where)}
	bw.read.write = true
	return bw.exec, nil
}

func (bw *boundWrite) exec(t *Txn, params []Value) (*Result, error) {
	tbl, err := t.boundTable(bw.read.name, bw.read.schema)
	if err != nil {
		return nil, err
	}
	en := t.newEnv(params)
	rows, ids, err := bw.read.rows(t, tbl, en)
	if err != nil {
		return nil, err
	}
	schema := tbl.schema
	for i, old := range rows {
		if bw.delete {
			tbl.deleteRowPhysical(ids[i])
			t.logUndo(undoRec{table: tbl, kind: undoDelete, rowID: ids[i], before: old})
			continue
		}
		en.row = old
		newRow := old.Clone()
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
		tbl.updateRowPhysical(ids[i], newRow)
		t.logUndo(undoRec{table: tbl, kind: undoUpdate, rowID: ids[i], before: old})
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

// uniqueViolation reports whether value v already exists in column col.
func (t *Table) uniqueViolation(col int, v Value) bool {
	if v.IsNull() {
		return false
	}
	found := false
	t.scan(func(_ uint64, r Row) bool {
		if Equal(r[col], v) {
			found = true
			return false
		}
		return true
	})
	return found
}

// errAmbiguous wraps an ambiguous column reference.
func errAmbiguous(col string) error {
	return fmt.Errorf("%w: ambiguous column %s", ErrNoColumn, col)
}
