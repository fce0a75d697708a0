package sqldb

import (
	"encoding/binary"
	"fmt"
	"sort"
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
func bindSelect(e *Engine, db string, s *SelectStmt) (*boundSelect, error) {
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

	base, err := e.Table(db, s.From.Table)
	if err != nil {
		return nil, err
	}
	cols := bindingsFor(base.schema, s.From.Name())
	if len(s.Joins) == 0 {
		r := bindRead(base, s.From.Table, s.From.Name(), s.Where)
		r.scratch = true
		bs.reads = []*tableRead{r}
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
		bs.reads = []*tableRead{bindRead(base, s.From.Table, s.From.Name(), pushdownFilter(conjuncts, consumed, cols))}
		for _, j := range s.Joins {
			jt, err := e.Table(db, j.Table.Table)
			if err != nil {
				return nil, err
			}
			right := bindingsFor(jt.schema, j.Table.Name())
			var pushed Expr
			if !j.Left {
				pushed = pushdownFilter(conjuncts, consumed, right)
			}
			bs.reads = append(bs.reads, bindRead(jt, j.Table.Table, j.Table.Name(), pushed))
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
		// projected value.
		if ce, ok := ob.Expr.(*ColumnExpr); ok && ce.Table == "" {
			for j, alias := range aliases {
				if strings.EqualFold(alias, ce.Col) {
					k.proj = j
					break
				}
			}
		}
		if k.proj < 0 {
			k.fn = b.expr(ob.Expr)
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
	return bs, nil
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
	return bs.out.emit(en, rows)
}

// source produces the filtered, joined source rows, acquiring read locks
// along the way.
func (bs *boundSelect) source(t *Txn, en *env) ([]Row, error) {
	if len(bs.reads) == 0 {
		return []Row{nil}, nil
	}
	var cur []Row
	for i, r := range bs.reads {
		tbl, err := t.boundTable(r.name, r.schema)
		if err != nil {
			return nil, err
		}
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
		} else if cur, err = bs.joins[i-1].join(en, cur, rows); err != nil {
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

// join combines the rows so far with the joined table's rows.
func (j *boundJoin) join(en *env, left, right []Row) ([]Row, error) {
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
				out = append(out, concatRows(lr, rr))
			}
			if len(matches) == 0 && j.left {
				out = append(out, concatRows(lr, nullRow(j.width)))
			}
		}
		return out, nil
	}
	for _, lr := range left {
		matched := false
		for _, rr := range right {
			en.row = concatRows(lr, rr)
			ok, err := j.on(en)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, en.row)
				matched = true
			}
		}
		if !matched && j.left {
			out = append(out, concatRows(lr, nullRow(j.width)))
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
	if err := t.lockTable(tbl, LockIS); err != nil {
		return nil, err
	}
	var out []Row
	for _, lr := range left {
		var match []Row
		if k := lr[j.li]; !k.IsNull() {
			var err error
			if match, _, err = r.lockPoint(t, tbl, en, k); err != nil {
				return nil, err
			}
		}
		if len(match) > 0 {
			out = append(out, concatRows(lr, match[0]))
		} else if j.left {
			out = append(out, concatRows(lr, nullRow(j.width)))
		}
	}
	return out, nil
}

func concatRows(a, b Row) Row {
	out := make(Row, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

func nullRow(n int) Row {
	r := make(Row, n)
	for i := range r {
		r[i] = Null
	}
	return r
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
	limit, offset int
}

// orderKey is one ORDER BY key: a projected column (an alias), or an
// expression over the source row.
type orderKey struct {
	proj int // ≥0: the projected value at this index
	fn   exprFn
	desc bool
}

// emit turns source rows into the result. Each output row is projected and its
// ORDER BY keys evaluated before the next source row (or group) is looked at,
// and every one of them before the LIMIT cut, so evaluation errors surface in
// source order.
func (o *output) emit(en *env, src []Row) (*Result, error) {
	var out, keys []Row

	if !o.grouped {
		for _, r := range src {
			en.row = r
			pr, k, err := o.project(en)
			if err != nil {
				return nil, err
			}
			out = append(out, pr)
			if k != nil {
				keys = append(keys, k)
			}
		}
	} else {
		groups, err := o.groups(en, src)
		if err != nil {
			return nil, err
		}
		en.grouped = true
		for _, g := range groups {
			// Non-aggregate expressions see the group's first row; the single
			// group of an empty ungrouped source has none and sees NULLs.
			if en.group = g; len(g) > 0 {
				en.row = g[0]
			} else {
				en.row = nullRow(o.width)
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
			pr, k, err := o.project(en)
			if err != nil {
				return nil, err
			}
			out = append(out, pr)
			if k != nil {
				keys = append(keys, k)
			}
		}
	}

	if o.distinct {
		seen := make(map[string]bool, len(out))
		var kb, vb []byte
		n := 0
		for i, pr := range out {
			kb = kb[:0]
			for _, v := range pr {
				vb = appendKey(vb[:0], v)
				kb = append(binary.AppendUvarint(kb, uint64(len(vb))), vb...)
			}
			if seen[string(kb)] {
				continue
			}
			seen[string(kb)] = true
			out[n] = pr
			if keys != nil {
				keys[n] = keys[i]
			}
			n++
		}
		out = out[:n]
	}
	if len(o.order) > 0 && len(out) > 1 {
		out = o.sorted(out, keys)
	}
	if o.offset > 0 {
		out = out[min(o.offset, len(out)):]
	}
	if o.limit >= 0 && o.limit < len(out) {
		out = out[:o.limit]
	}
	return &Result{Cols: o.cols, Rows: out}, nil
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
			vb = appendKey(vb[:0], v)
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

// project evaluates the projection and the ORDER BY keys of the row (or
// group) en holds.
func (o *output) project(en *env) (pr, keys Row, err error) {
	if o.flat != nil {
		pr = make(Row, 0, len(o.flat))
		for _, off := range o.flat {
			if off < len(en.row) {
				pr = append(pr, en.row[off])
			} else {
				pr = append(pr, Null)
			}
		}
	} else {
		pr = make(Row, 0, len(o.items))
		for _, f := range o.items {
			v, err := f(en)
			if err != nil {
				return nil, nil, err
			}
			pr = append(pr, v)
		}
	}
	if len(o.order) > 0 {
		keys = make(Row, len(o.order))
		for j, k := range o.order {
			if k.proj >= 0 {
				keys[j] = pr[k.proj]
			} else if keys[j], err = k.fn(en); err != nil {
				return nil, nil, err
			}
		}
	}
	return pr, keys, nil
}

// sorted returns rows in ORDER BY order (stable). It sorts a permutation
// rather than the rows: comparisons dominate, and swapping ints is cheap.
func (o *output) sorted(rows, keys []Row) []Row {
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]], keys[idx[b]]
		for j, k := range o.order {
			c := Compare(ka[j], kb[j])
			if c == 0 {
				continue
			}
			if k.desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	out := make([]Row, len(rows))
	for i, ix := range idx {
		out[i] = rows[ix]
	}
	return out
}
