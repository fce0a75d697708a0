package sqldb

import (
	"strings"
)

// pathKind enumerates the access paths the planner chooses among, in
// increasing cost order.
type pathKind int

const (
	pathScan       pathKind = iota // full scan under a table S lock
	pathPoint                      // primary-key equality: IS + one row S/X lock
	pathIndexEq                    // secondary-index equality: IS + row locks
	pathIndexRange                 // ordered index/PK traversal for range predicates
)

// accessPath is a parameter-independent access plan for a single-table
// predicate: one plan serves every execution of a parameterised statement.
// The bound expressions (eq, lo, hi) are constant with respect to the row —
// literals, parameters, or negated constants — and are evaluated against the
// actual bindings at execution time.
type accessPath struct {
	kind   pathKind
	col    string // lower-cased column name driving the access
	colIdx int    // its schema position
	onPK   bool   // range over the primary key rather than a secondary index

	eq Expr // point / index-equality constant

	lo, hi         Expr // range bounds; nil side = unbounded
	loIncl, hiIncl bool

	residual Expr // conjuncts not consumed by the access path, nil if none
}

// stmtPlan is the bound form of one statement against one incarnation of a
// database: the closure pipeline that executes it, and the table incarnations
// it was bound to. It is kept on the statement node (planTable) while it is
// current: while each of its tables is still in the catalog, with the indexes
// it was planned with.
type stmtPlan struct {
	db     *database
	tables []boundTable
	exec   func(t *Txn, params []Value) (*Result, error)
}

// boundTable is a table a plan was bound to, and its Table.indexGen then.
type boundTable struct {
	tbl      *Table
	indexGen uint32
}

// current reports whether the plan is still what binding would give.
func (p *stmtPlan) current() bool {
	for _, b := range p.tables {
		if b.tbl.dead.Load() || b.tbl.indexGen.Load() != b.indexGen {
			return false
		}
	}
	return true
}

// table resolves name in the plan's database and binds the plan to it. The
// index generation is read before the planner looks at the indexes, so a
// concurrent CREATE INDEX leaves the plan stale, never wrong.
func (p *stmtPlan) table(name string) (*Table, error) {
	tbl, err := p.db.table(name)
	if err == nil {
		p.tables = append(p.tables, boundTable{tbl, tbl.indexGen.Load()})
	}
	return tbl, err
}

// bindStatement binds stmt against d's current catalog. A nil plan with a
// nil error means the statement kind is not planned (DDL, EXPLAIN); an error
// (an unknown table, an unknown INSERT or SET column) is what executing the
// statement reports.
func bindStatement(d *database, stmt Statement) (*stmtPlan, error) {
	plan := &stmtPlan{db: d}
	var err error
	switch s := stmt.(type) {
	case *SelectStmt:
		var bs *boundSelect
		if bs, err = bindSelect(plan, s); err == nil {
			plan.exec = bs.exec
		}
	case *InsertStmt:
		plan.exec, err = bindInsert(plan, s)
	case *UpdateStmt:
		plan.exec, err = bindUpdate(plan, s)
	case *DeleteStmt:
		plan.exec, err = bindDelete(plan, s)
	default:
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	d.e.statPlanCompiles.Add(1)
	return plan, nil
}

// planWhere selects the access path for a single-table predicate:
// PK equality beats index equality beats an index/PK range beats a scan.
func planWhere(tbl *Table, where Expr) *accessPath {
	schema := tbl.schema
	if where == nil || schema.PKIdx < 0 {
		return &accessPath{kind: pathScan}
	}
	conjuncts := splitAnd(where)
	pkName := schema.Cols[schema.PKIdx].Name

	for i, c := range conjuncts {
		if ce, val, ok := eqColConstExpr(c); ok && strings.EqualFold(ce.Col, pkName) {
			return &accessPath{
				kind: pathPoint, col: lower(pkName), colIdx: schema.PKIdx, onPK: true,
				eq: val, residual: residualOf(conjuncts, i),
			}
		}
	}
	for i, c := range conjuncts {
		if ce, val, ok := eqColConstExpr(c); ok && tbl.hasIndex(lower(ce.Col)) {
			return &accessPath{
				kind: pathIndexEq, col: lower(ce.Col), colIdx: schema.ColIndex(ce.Col),
				eq: val, residual: residualOf(conjuncts, i),
			}
		}
	}
	if p := planRange(tbl, conjuncts, pkName); p != nil {
		return p
	}
	return &accessPath{kind: pathScan}
}

// colRange accumulates the range bounds found for one column.
type colRange struct {
	lo, hi         Expr
	loIncl, hiIncl bool
	used           []int // conjunct positions consumed by the bounds
}

// planRange looks for <, <=, >, >=, BETWEEN conjuncts on the primary key or
// an indexed column and builds a pathIndexRange plan over the column with the
// tightest bounds (both sides preferred over one).
func planRange(tbl *Table, conjuncts []Expr, pkName string) *accessPath {
	ranges := make(map[string]*colRange)
	var order []string
	track := func(col string) *colRange {
		r, ok := ranges[col]
		if !ok {
			r = &colRange{}
			ranges[col] = r
			order = append(order, col)
		}
		return r
	}

	for i, c := range conjuncts {
		switch ex := c.(type) {
		case *BinaryExpr:
			ce, bound, op, ok := cmpColConstExpr(ex)
			if !ok {
				continue
			}
			lc := lower(ce.Col)
			if !strings.EqualFold(ce.Col, pkName) && !tbl.hasIndex(lc) {
				continue
			}
			r := track(lc)
			switch op {
			case OpGt:
				if r.lo == nil {
					r.lo, r.loIncl = bound, false
					r.used = append(r.used, i)
				}
			case OpGe:
				if r.lo == nil {
					r.lo, r.loIncl = bound, true
					r.used = append(r.used, i)
				}
			case OpLt:
				if r.hi == nil {
					r.hi, r.hiIncl = bound, false
					r.used = append(r.used, i)
				}
			case OpLe:
				if r.hi == nil {
					r.hi, r.hiIncl = bound, true
					r.used = append(r.used, i)
				}
			}
		case *BetweenExpr:
			ce, ok := ex.E.(*ColumnExpr)
			if !ok || ex.Negate || !isConstExpr(ex.Lo) || !isConstExpr(ex.Hi) {
				continue
			}
			lc := lower(ce.Col)
			if !strings.EqualFold(ce.Col, pkName) && !tbl.hasIndex(lc) {
				continue
			}
			r := track(lc)
			if r.lo == nil && r.hi == nil {
				r.lo, r.loIncl = ex.Lo, true
				r.hi, r.hiIncl = ex.Hi, true
				r.used = append(r.used, i)
			}
		}
	}

	best := ""
	for _, col := range order {
		r := ranges[col]
		if r.lo == nil && r.hi == nil {
			continue
		}
		if best == "" {
			best = col
			continue
		}
		b := ranges[best]
		if (r.lo != nil && r.hi != nil) && (b.lo == nil || b.hi == nil) {
			best = col
		}
	}
	if best == "" {
		return nil
	}
	r := ranges[best]
	consumed := make(map[int]bool, len(r.used))
	for _, i := range r.used {
		consumed[i] = true
	}
	var rest []Expr
	for i, c := range conjuncts {
		if !consumed[i] {
			rest = append(rest, c)
		}
	}
	colIdx := tbl.schema.ColIndex(best)
	return &accessPath{
		kind: pathIndexRange, col: best, colIdx: colIdx,
		onPK: strings.EqualFold(best, pkName),
		lo:   r.lo, hi: r.hi, loIncl: r.loIncl, hiIncl: r.hiIncl,
		residual: joinAnd(rest),
	}
}

// isConstExpr reports whether e evaluates to a row-independent constant:
// a literal, a parameter, or a negation of one.
func isConstExpr(e Expr) bool {
	switch ex := e.(type) {
	case *LiteralExpr:
		return true
	case *ParamExpr:
		return true
	case *UnaryExpr:
		return ex.Op == OpNeg && isConstExpr(ex.E)
	}
	return false
}

// eqColConstExpr matches "col = const" or "const = col".
func eqColConstExpr(e Expr) (*ColumnExpr, Expr, bool) {
	be, ok := e.(*BinaryExpr)
	if !ok || be.Op != OpEq {
		return nil, nil, false
	}
	if ce, ok := be.L.(*ColumnExpr); ok && isConstExpr(be.R) {
		return ce, be.R, true
	}
	if ce, ok := be.R.(*ColumnExpr); ok && isConstExpr(be.L) {
		return ce, be.L, true
	}
	return nil, nil, false
}

// cmpColConstExpr matches "col <op> const" or "const <op> col" for the
// ordering operators, normalising the operator so it reads column-first.
func cmpColConstExpr(be *BinaryExpr) (*ColumnExpr, Expr, BinOp, bool) {
	switch be.Op {
	case OpLt, OpLe, OpGt, OpGe:
	default:
		return nil, nil, 0, false
	}
	if ce, ok := be.L.(*ColumnExpr); ok && isConstExpr(be.R) {
		return ce, be.R, be.Op, true
	}
	if ce, ok := be.R.(*ColumnExpr); ok && isConstExpr(be.L) {
		return ce, be.L, flipCmp(be.Op), true
	}
	return nil, nil, 0, false
}

// flipCmp mirrors an ordering operator: "5 < col" means "col > 5".
func flipCmp(op BinOp) BinOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return op
}

// residualOf joins all conjuncts except position i.
func residualOf(conjuncts []Expr, i int) Expr {
	if len(conjuncts) == 1 {
		return nil
	}
	rest := make([]Expr, 0, len(conjuncts)-1)
	rest = append(rest, conjuncts[:i]...)
	rest = append(rest, conjuncts[i+1:]...)
	return joinAnd(rest)
}

// colComparable reports whether a non-null constant can be ordered against
// values of the given column type.
func colComparable(colTyp Type, v Value) bool {
	if v.numeric() && (colTyp == TypeInt || colTyp == TypeFloat) {
		return true
	}
	return colTyp == v.Typ
}
