package sqldb

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
)

// boundSelect is a SELECT bound against the catalog: the table reads that
// produce its source rows, the joins that combine them, and the output stage.
type boundSelect struct {
	reads  []*tableRead // base table first, then one per join; empty without FROM
	joins  []boundJoin  // joins[i] combines the rows so far with reads[i+1]
	filter predFn       // WHERE conjuncts spanning several joined tables

	// invalid is the statement's validation error (an unknown or ambiguous
	// column, a * that matches nothing). It is reported after the source was
	// read, as a row-by-row evaluation would have met it.
	invalid error

	out output
}

// boundJoin is one [INNER|LEFT] JOIN: a hash join — or, see probe, a
// primary-key probe — when ON is an equality of one column from each side, a
// nested loop over the bound ON otherwise.
type boundJoin struct {
	left   bool
	width  int    // columns of the right table, for LEFT JOIN null extension
	li, ri int    // equality keys: offsets in the left and right rows; li < 0 without
	on     predFn // nested loop: ON over the concatenated row

	// probe marks an equality on the joined table's primary key whose read has
	// no filter, and so no access path, of its own. Such a join need not read
	// the joined table in full: while the rows so far are few against it (see
	// probeJoinRatio) each of them is matched by a point read instead.
	probe bool
}

// probeJoinRatio picks the strategy of a probe-able join at run time, from
// the two row counts. A probe costs a row lock and a latched point read per
// outer row; the hash join clones every row of the joined table under a table
// S lock, which also blocks that table's writers for the rest of the
// transaction. The probe is used while the joined table holds at least this
// many rows per outer row.
const probeJoinRatio = 8

// probes reports whether joining outer rows against tbl is done by probing.
func (j *boundJoin) probes(outer int, tbl *Table) bool {
	return j.probe && outer*probeJoinRatio <= tbl.RowCount()
}

// bindSelect binds a SELECT. Only an unknown table fails the bind; column
// errors are kept for execution (see boundSelect.invalid).
func bindSelect(p *stmtPlan, s *SelectStmt) (*boundSelect, error) {
	bs := &boundSelect{}
	if s.From == nil {
		// No source: the items evaluate once, against an empty row; the other
		// clauses have nothing to act on.
		var b binder
		bs.out.limit = -1
		for _, item := range s.Items {
			if item.Star {
				bs.out.items = append(bs.out.items, failing(fmt.Errorf("sqldb: SELECT * requires a FROM clause")))
			} else {
				bs.out.items = append(bs.out.items, b.expr(item.Expr))
			}
			bs.out.cols = append(bs.out.cols, itemName(item))
		}
		return bs, nil
	}

	base, err := p.table(s.From.Table)
	if err != nil {
		return nil, err
	}
	cols := bindingsFor(base.schema, s.From.Name())
	if len(s.Joins) == 0 {
		bs.reads = []*tableRead{bindRead(base, s.From.Name(), s.Where)}
	} else {
		// WHERE conjuncts that reference only one table are pushed down to
		// that table's read and go through the access-path planner there, so
		// the join works on pre-filtered inputs. Pushing into the right side
		// of a LEFT JOIN would change which left rows null-extend, so only
		// inner-join sides (and the base table) receive pushed filters.
		var conjuncts []Expr
		if s.Where != nil {
			conjuncts = splitAnd(s.Where)
		}
		consumed := make([]bool, len(conjuncts))
		bs.reads = []*tableRead{bindRead(base, s.From.Name(), pushdownFilter(conjuncts, consumed, cols))}
		for _, j := range s.Joins {
			jt, err := p.table(j.Table.Table)
			if err != nil {
				return nil, err
			}
			right := bindingsFor(jt.schema, j.Table.Name())
			var pushed Expr
			if !j.Left {
				pushed = pushdownFilter(conjuncts, consumed, right)
			}
			bs.reads = append(bs.reads, bindRead(jt, j.Table.Name(), pushed))
			bj := bindJoin(cols, right, j)
			bj.probe = bj.li >= 0 && bj.ri == jt.schema.PKIdx && pushed == nil
			bs.joins = append(bs.joins, bj)
			cols = append(cols[:len(cols):len(cols)], right...)
		}
		var rest []Expr
		for i, c := range conjuncts {
			if !consumed[i] {
				rest = append(rest, c)
			}
		}
		if residual := joinAnd(rest); residual != nil {
			bs.filter = (&binder{cols: cols}).pred(residual)
		}
	}

	// The output stage binds against the whole source row. Binding in clause
	// order makes b.err the first error a validation pass would report.
	b := &binder{cols: cols}
	o := &bs.out
	o.width, o.distinct, o.limit, o.offset = len(cols), s.Distinct, s.Limit, s.Offset
	var aliases []string // per output column
	var starErr error
	flat := true
	for _, item := range s.Items {
		if !item.Star {
			off := -1
			if ce, ok := item.Expr.(*ColumnExpr); ok {
				off = resolveBinding(cols, ce)
			}
			flat = flat && off >= 0
			o.flat = append(o.flat, off)
			o.items = append(o.items, b.expr(item.Expr))
			o.cols = append(o.cols, itemName(item))
			aliases = append(aliases, item.Alias)
			continue
		}
		matched := false
		for off, c := range cols {
			if item.StarTable != "" && !strings.EqualFold(item.StarTable, c.table) {
				continue
			}
			matched = true
			o.flat = append(o.flat, off)
			o.items = append(o.items, columnAt(off))
			o.cols = append(o.cols, c.col)
			aliases = append(aliases, "")
		}
		if !matched && starErr == nil {
			starErr = fmt.Errorf("%w: no columns for %s.*", ErrNoColumn, item.StarTable)
		}
	}
	itemAggs := b.aggs
	if s.Where != nil {
		b.expr(s.Where) // bound for execution by the reads; here only validated
	}
	for _, g := range s.GroupBy {
		o.groupBy = append(o.groupBy, b.expr(g))
	}
	if s.Having != nil {
		o.having = b.pred(s.Having)
	}
	for _, ob := range s.OrderBy {
		k := orderKey{proj: -1, desc: ob.Desc}
		// An unqualified name matching a projected alias orders by the
		// projected value, and so does a column projected as it is.
		if ce, ok := ob.Expr.(*ColumnExpr); ok {
			for j, alias := range aliases {
				if ce.Table == "" && strings.EqualFold(alias, ce.Col) {
					k.proj = j
					break
				}
			}
			if off := resolveBinding(cols, ce); k.proj < 0 && off >= 0 {
				k.proj = slices.Index(o.flat, off)
			}
		}
		if k.col = k.proj; k.proj < 0 {
			k.fn = b.expr(ob.Expr)
			k.col = len(o.cols) + o.hidden
			o.hidden++
		}
		o.order = append(o.order, k)
	}
	o.grouped = len(s.GroupBy) > 0 || itemAggs > 0 || s.Having != nil
	if !flat || o.grouped {
		o.flat = nil
	}
	if bs.invalid = b.err; bs.invalid == nil {
		bs.invalid = starErr
	}
	if len(s.Joins) == 0 && bs.invalid == nil {
		r := bs.reads[0]
		r.first, r.desc = orderedStop(r, o, s, cols)
	}
	return bs, nil
}

// orderedStop returns how many rows the single-table read r needs to give
// the output stage, in primary-key order (desc: descending), for it to give
// its result unchanged — LIMIT + OFFSET — when it can stop there: r is an
// index equality with no residual filter, the output plain columns with no
// grouping or DISTINCT, LIMIT is above 0, and the one ORDER BY key is the
// primary-key column. It returns 0 otherwise: the read takes every row.
func orderedStop(r *tableRead, o *output, s *SelectStmt, cols []colBinding) (first int, desc bool) {
	if r.path.kind != pathIndexEq || r.residual != nil || o.flat == nil || o.distinct || // flat: plain columns, ungrouped
		o.limit <= 0 || o.offset > math.MaxInt-o.limit || len(o.order) != 1 {
		return 0, false
	}
	k, off := o.order[0], -1
	if k.proj >= 0 {
		off = o.flat[k.proj]
	} else if ce, ok := s.OrderBy[0].Expr.(*ColumnExpr); ok {
		off = resolveBinding(cols, ce)
	}
	if off != r.tbl.schema.PKIdx {
		return 0, false
	}
	return o.limit + o.offset, k.desc
}

// pushdownFilter selects the not-yet-consumed conjuncts that resolve
// entirely within one table's columns, marks them consumed, and joins them
// into a filter for that table's read.
func pushdownFilter(conjuncts []Expr, consumed []bool, cols []colBinding) Expr {
	var picked []Expr
	for i, c := range conjuncts {
		if consumed[i] {
			continue
		}
		// A trial bind tells whether every column resolves here (and no
		// aggregate is involved).
		trial := binder{cols: cols}
		trial.expr(c)
		if trial.err != nil || trial.aggs > 0 {
			continue
		}
		consumed[i] = true
		picked = append(picked, c)
	}
	return joinAnd(picked)
}

// bindJoin binds one join clause against the columns accumulated so far
// (left) and the joined table's (right).
func bindJoin(left, right []colBinding, j JoinClause) boundJoin {
	bj := boundJoin{left: j.Left, width: len(right), li: -1}
	if l, r, ok := equiJoinCols(j.On); ok {
		li, ri := resolveBinding(left, l), resolveBinding(right, r)
		if li < 0 || ri < 0 {
			// Maybe written in the other order.
			li, ri = resolveBinding(left, r), resolveBinding(right, l)
		}
		if li >= 0 && ri >= 0 {
			bj.li, bj.ri = li, ri
			return bj
		}
	}
	bj.on = (&binder{cols: append(left[:len(left):len(left)], right...)}).pred(j.On)
	return bj
}

// equiJoinCols matches an ON predicate of the form col = col.
func equiJoinCols(on Expr) (l, r *ColumnExpr, ok bool) {
	eq, isBin := on.(*BinaryExpr)
	if !isBin || eq.Op != OpEq {
		return nil, nil, false
	}
	l, lok := eq.L.(*ColumnExpr)
	r, rok := eq.R.(*ColumnExpr)
	return l, r, lok && rok
}

// exec runs the bound SELECT: source, validation error, output stage.
func (bs *boundSelect) exec(t *Txn, params []Value) (*Result, error) {
	en := t.newEnv(params)
	rows, err := bs.source(t, en)
	if err != nil {
		return nil, err
	}
	if bs.invalid != nil {
		return nil, bs.invalid
	}
	return bs.out.emit(t.vals, en, rows)
}

// source produces the filtered, joined source rows, acquiring read locks
// along the way. They are the transaction's arena rows.
func (bs *boundSelect) source(t *Txn, en *env) ([]Row, error) {
	if len(bs.reads) == 0 {
		return append(t.vals.list(1), nil), nil
	}
	var cur []Row
	for i, r := range bs.reads {
		tbl := r.tbl
		var err error
		if i > 0 && bs.joins[i-1].probes(len(cur), tbl) {
			if cur, err = bs.joins[i-1].probeJoin(t, r, tbl, en, cur); err != nil {
				return nil, err
			}
			continue
		}
		rows, _, err := r.rows(t, tbl, en)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			cur = rows
		} else if cur, err = bs.joins[i-1].join(t.vals, en, cur, rows); err != nil {
			return nil, err
		}
	}
	if bs.filter != nil {
		kept := cur[:0]
		for _, r := range cur {
			en.row = r
			ok, err := bs.filter(en)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, r)
			}
		}
		cur = kept
	}
	return cur, nil
}

// join combines the rows so far with the joined table's rows, into arena
// rows.
func (j *boundJoin) join(a *arena, en *env, left, right []Row) ([]Row, error) {
	var out []Row
	if j.li >= 0 {
		ht := make(map[string][]Row, len(right))
		for _, rr := range right {
			if !rr[j.ri].IsNull() {
				k := keyOf(rr[j.ri])
				ht[k] = append(ht[k], rr)
			}
		}
		for _, lr := range left {
			var matches []Row
			if !lr[j.li].IsNull() {
				matches = ht[keyOf(lr[j.li])]
			}
			for _, rr := range matches {
				out = append(out, a.concat(lr, rr, j.width))
			}
			if len(matches) == 0 && j.left {
				out = append(out, a.concat(lr, nil, j.width))
			}
		}
		return out, nil
	}
	for _, lr := range left {
		matched := false
		for _, rr := range right {
			en.row = a.concat(lr, rr, j.width)
			ok, err := j.on(en)
			if err != nil {
				return nil, err
			}
			if !ok {
				a.unrow(len(en.row))
				continue
			}
			out = append(out, en.row)
			matched = true
		}
		if !matched && j.left {
			out = append(out, a.concat(lr, nil, j.width))
		}
	}
	return out, nil
}

// probeJoin combines the rows so far with the joined table by one primary-key
// point read per row: the locks (IS on the table, S on each key, present or
// absent) and history records of that many point SELECTs, in place of the
// table S lock and full read of the hash join. The output is the hash join's:
// left order, a NULL key matches nothing.
func (j *boundJoin) probeJoin(t *Txn, r *tableRead, tbl *Table, en *env, left []Row) ([]Row, error) {
	if err := t.lockInc(tbl, LockIS, false); err != nil {
		return nil, err
	}
	out := t.vals.list(len(left))
	for _, lr := range left {
		var match []Row
		if k := lr[j.li]; !k.IsNull() {
			var err error
			if match, _, err = r.lockPoint(t, tbl, en, k); err != nil {
				return nil, err
			}
		}
		if len(match) > 0 {
			out = append(out, t.vals.concat(lr, match[0], j.width))
		} else if j.left {
			out = append(out, t.vals.concat(lr, nil, j.width))
		}
	}
	return out, nil
}

// output is the one output stage every SELECT runs: group → having → project
// → distinct → order → offset/limit.
type output struct {
	cols  []string
	width int // source row width, for the representative of an empty group

	grouped bool
	groupBy []exprFn
	having  predFn

	flat  []int    // all items are plain columns of an ungrouped source: their offsets
	items []exprFn // projection

	distinct      bool
	order         []orderKey
	hidden        int // ORDER BY keys that are not output columns
	limit, offset int
}

// orderKey is one ORDER BY key: a projected column (an alias, or a column
// projected as it is), or an expression over the source row, whose value an
// output row carries past its end while it is sorted.
type orderKey struct {
	proj int // ≥0: the projected value at this index
	fn   exprFn
	col  int // where an output row holds the key: proj, or past the output columns
	desc bool
}

// emit turns source rows into the result. Every output row is written into
// one slab, a capacity-capped view of its values followed by its hidden
// ORDER BY keys, and the row list is made once: an ORDER BY sorts the views
// in place. Each output row is projected and its ORDER BY keys evaluated
// before the next source row (or group) is looked at. An ordered, distinct
// or grouped output projects every row before the LIMIT cut, so evaluation
// errors surface in source order; any other projects only the first
// OFFSET + LIMIT rows. a is the arena the source rows came from.
func (o *output) emit(a *arena, en *env, src []Row) (*Result, error) {
	var groups [][]Row
	n := len(src)
	if o.grouped {
		var err error
		if groups, err = o.groups(en, src); err != nil {
			return nil, err
		}
		n = len(groups)
		en.grouped = true
	} else if len(o.order) == 0 && !o.distinct && o.limit >= 0 && o.offset <= math.MaxInt-o.limit {
		n = min(n, o.offset+o.limit)
	}
	w := len(o.cols)
	stride := w + o.hidden
	slab := make([]Value, n*stride)
	var res *Result
	var rows []Row
	if n == 1 { // a point read's: the Result and its row list in one allocation
		one := &struct {
			Result
			rows [1]Row
		}{Result: Result{Cols: o.cols}}
		res, rows = &one.Result, one.rows[:0]
	} else {
		res, rows = &Result{Cols: o.cols}, make([]Row, 0, n)
	}
	for i := range n {
		if !o.grouped {
			en.row = src[i]
		} else if en.group = groups[i]; len(groups[i]) > 0 {
			// Non-aggregate expressions see the group's first row; the
			// single group of an empty ungrouped source has none and sees
			// NULLs.
			en.row = groups[i][0]
		} else {
			en.row = a.nulls(o.width)
		}
		if o.having != nil {
			ok, err := o.having(en)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		at := len(rows) * stride
		pr := slab[at : at+stride : at+stride]
		if err := o.project(en, pr); err != nil {
			return nil, err
		}
		rows = append(rows, pr)
	}
	if o.distinct {
		rows = o.distinctRows(rows)
	}
	if len(o.order) > 0 {
		slices.SortStableFunc(rows, o.compare)
	}
	rows = rows[min(o.offset, len(rows)):]
	if o.limit >= 0 && o.limit < len(rows) {
		rows = rows[:o.limit]
	}
	if len(rows) == 0 {
		return res, nil
	}
	if o.hidden > 0 {
		for i, r := range rows {
			rows[i] = r[:w:w]
		}
	}
	res.Rows = rows
	return res, nil
}

// distinctRows keeps the first of the rows with equal output values.
func (o *output) distinctRows(rows []Row) []Row {
	seen := make(map[string]bool, len(rows))
	var kb, vb []byte
	kept := rows[:0]
	for _, pr := range rows {
		kb = kb[:0]
		for j := range len(o.cols) {
			vb = appendKey(vb[:0], &pr[j])
			kb = append(binary.AppendUvarint(kb, uint64(len(vb))), vb...)
		}
		if seen[string(kb)] {
			continue
		}
		seen[string(kb)] = true
		kept = append(kept, pr)
	}
	return kept
}

// compare orders two output rows, hidden keys included, by the ORDER BY keys.
func (o *output) compare(a, b Row) int {
	for _, k := range o.order {
		if c := Compare(a[k.col], b[k.col]); c != 0 {
			if k.desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// groups partitions the source rows by the GROUP BY keys, in order of first
// appearance. Without GROUP BY the whole source — even an empty one — is the
// one group.
func (o *output) groups(en *env, src []Row) ([][]Row, error) {
	if len(o.groupBy) == 0 {
		return [][]Row{src}, nil
	}
	index := make(map[string]int)
	var groups [][]Row
	var kb, vb []byte // the group's key: each value's key behind its length
	for _, r := range src {
		en.row = r
		kb = kb[:0]
		for _, g := range o.groupBy {
			v, err := g(en)
			if err != nil {
				return nil, err
			}
			vb = appendKey(vb[:0], &v)
			kb = append(binary.AppendUvarint(kb, uint64(len(vb))), vb...)
		}
		i, seen := index[string(kb)]
		if !seen {
			i = len(groups)
			index[string(kb)] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], r)
	}
	return groups, nil
}

// project writes the projection of the row (or group) en holds into pr, and
// its hidden ORDER BY keys after it.
func (o *output) project(en *env, pr Row) error {
	if o.flat != nil {
		for j, off := range o.flat {
			if off < len(en.row) {
				pr[j] = en.row[off]
			} else {
				pr[j] = Null
			}
		}
	} else {
		for j, f := range o.items {
			v, err := f(en)
			if err != nil {
				return err
			}
			pr[j] = v
		}
	}
	for _, k := range o.order {
		if k.proj < 0 {
			v, err := k.fn(en)
			if err != nil {
				return err
			}
			pr[k.col] = v
		}
	}
	return nil
}
