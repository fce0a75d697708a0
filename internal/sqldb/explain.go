package sqldb

import (
	"fmt"
	"strings"
)

// execExplain describes the access paths the executor would choose for the
// inner statement, without executing it. The result has columns
// (table, access, detail): access is one of "point" (primary-key lookup),
// "index" (secondary-index equality; the detail names the ordered stop,
// "by <primary key> desc, first <n>", when the read takes only its first
// rows), "range" (ordered index or primary-key
// traversal for <, <=, >, >=, BETWEEN), "scan" (full table scan), "insert",
// or the join strategy "hash-join"/"pk-probe"/"nested-loop" for joined tables.
func (e *Engine) execExplain(t *Txn, s *ExplainStmt, params []Value) (*Result, error) {
	res := &Result{Cols: []string{"table", "access", "detail"}}
	add := func(table, access, detail string) {
		res.Rows = append(res.Rows, Row{NewText(table), NewText(access), NewText(detail)})
	}

	switch inner := s.Inner.(type) {
	case *SelectStmt:
		if inner.From == nil {
			add("", "const", "no FROM clause")
			return res, nil
		}
		tbl, err := t.catalog.table(inner.From.Table)
		if err != nil {
			return nil, err
		}
		bs, err := bindSelect(&stmtPlan{db: t.catalog}, inner)
		if err != nil {
			return nil, err
		}
		if len(inner.Joins) == 0 {
			r := bs.reads[0]
			access, detail := explainAccess(tbl, r.path, inner.Where, params)
			if r.first > 0 {
				dir := "asc"
				if r.desc {
					dir = "desc"
				}
				detail += fmt.Sprintf(", by %s %s, first %d", tbl.schema.Cols[tbl.schema.PKIdx].Name, dir, r.first)
			}
			add(tbl.Name(), access, detail)
			return res, nil
		}
		add(tbl.Name(), "scan", "join build side")
		for i, j := range inner.Joins {
			jt, err := t.catalog.table(j.Table.Table)
			if err != nil {
				return nil, err
			}
			bj := bs.joins[i]
			if bj.li < 0 {
				add(jt.Name(), "nested-loop", "general ON predicate")
				continue
			}
			lc, rc, _ := equiJoinCols(j.On)
			on := fmt.Sprintf("ON %s = %s", exprName(lc), exprName(rc))
			if bj.probe {
				// The strategy is settled per execution, from the row counts.
				add(jt.Name(), "pk-probe", fmt.Sprintf("%s; hash-join when joining more than %d rows", on, jt.RowCount()/probeJoinRatio))
			} else {
				add(jt.Name(), "hash-join", on)
			}
		}
		return res, nil

	case *UpdateStmt:
		return e.explainWrite(t, res, inner.Table, inner.Where, params, " (update)")

	case *DeleteStmt:
		return e.explainWrite(t, res, inner.Table, inner.Where, params, " (delete)")

	case *InsertStmt:
		tbl, err := t.catalog.table(inner.Table)
		if err != nil {
			return nil, err
		}
		add(tbl.Name(), "insert", fmt.Sprintf("%d row(s)", len(inner.Rows)))
		return res, nil

	default:
		return nil, fmt.Errorf("sqldb: EXPLAIN supports SELECT/INSERT/UPDATE/DELETE, not %T", s.Inner)
	}
}

// explainWrite describes the row selection of an UPDATE or DELETE.
func (e *Engine) explainWrite(t *Txn, res *Result, table string, where Expr, params []Value, kind string) (*Result, error) {
	tbl, err := t.catalog.table(table)
	if err != nil {
		return nil, err
	}
	access, detail := explainAccess(tbl, planWhere(tbl, where), where, params)
	res.Rows = append(res.Rows, Row{NewText(tbl.Name()), NewText(access), NewText(detail + kind)})
	return res, nil
}

// explainAccess describes path, the access path the planner chose for one
// table filtered by where.
func explainAccess(tbl *Table, path *accessPath, where Expr, params []Value) (access, detail string) {
	switch path.kind {
	case pathPoint:
		return "point", fmt.Sprintf("%s = %s", tbl.schema.Cols[tbl.schema.PKIdx].Name, constString(path.eq, params))
	case pathIndexEq:
		return "index", fmt.Sprintf("%s = %s", path.col, constString(path.eq, params))
	case pathIndexRange:
		return "range", rangeDetail(path, params)
	}
	if where == nil {
		return "scan", fmt.Sprintf("all %d rows", tbl.RowCount())
	}
	return "scan", fmt.Sprintf("filter over %d rows", tbl.RowCount())
}

// constString renders a constant bound expression for EXPLAIN output,
// resolving parameters when bindings were supplied.
func constString(e Expr, params []Value) string {
	if v, err := bindConst(e)(&env{params: params}); err == nil {
		return v.String()
	}
	return "?"
}

// rangeDetail renders the bounds of a range path, e.g. "price >= 10 AND
// price < 20".
func rangeDetail(p *accessPath, params []Value) string {
	var parts []string
	if p.lo != nil {
		op := ">"
		if p.loIncl {
			op = ">="
		}
		parts = append(parts, fmt.Sprintf("%s %s %s", p.col, op, constString(p.lo, params)))
	}
	if p.hi != nil {
		op := "<"
		if p.hiIncl {
			op = "<="
		}
		parts = append(parts, fmt.Sprintf("%s %s %s", p.col, op, constString(p.hi, params)))
	}
	return strings.Join(parts, " AND ")
}

func exprName(ce *ColumnExpr) string {
	if ce.Table != "" {
		return ce.Table + "." + ce.Col
	}
	return ce.Col
}
