package sqldb

import "fmt"

// This file is the expression half of the executor. Every expression of a
// statement is bound once, at plan time, into a closure over pre-resolved
// column offsets and parameter slots; executing a statement never walks the
// AST or resolves a name. Binding is total: a column that does not resolve,
// or an aggregate outside a grouped stage, binds to a closure that reports
// the error when (and only when) it is evaluated, which is when the
// statement would have met it row by row. Value-level semantics (three-valued
// logic, type errors, division by zero) live in the apply* helpers of eval.go.

// env is what a bound expression evaluates against: the current source row
// and the statement parameters, plus — in the grouped stage of a SELECT — the
// rows of the current group, which aggregates fold over.
type env struct {
	row     Row
	params  []Value
	group   []Row
	grouped bool
}

// exprFn is a bound expression.
type exprFn func(en *env) (Value, error)

// predFn is a bound predicate with SQL WHERE semantics (NULL filters the row
// out).
type predFn func(en *env) (bool, error)

// binder binds expressions against one set of source columns. It remembers
// the first column-resolution error it met, in bind order, so a SELECT can
// report an unknown or ambiguous column even when its source is empty, and
// counts the aggregate calls it lowered.
type binder struct {
	cols []colBinding
	err  error
	aggs int
}

// failing binds to an expression that always reports err.
func failing(err error) exprFn {
	return func(*env) (Value, error) { return Null, err }
}

// columnAt binds to the source column at offset off. Rows shorter than the
// binding (the null-extended representative of an empty group) read as NULL.
func columnAt(off int) exprFn {
	return func(en *env) (Value, error) {
		if off >= len(en.row) {
			return Null, nil
		}
		return en.row[off], nil
	}
}

// expr binds an expression.
func (b *binder) expr(e Expr) exprFn {
	switch ex := e.(type) {
	case *LiteralExpr:
		// Capture the node, not a copy of its value: bulk-load INSERTs bind
		// hundreds of literals per cached plan.
		return func(*env) (Value, error) { return ex.Val, nil }
	case *ParamExpr:
		idx := ex.Index
		return func(en *env) (Value, error) {
			if idx >= len(en.params) {
				return Null, fmt.Errorf("sqldb: missing binding for parameter %d", idx+1)
			}
			return en.params[idx], nil
		}
	case *ColumnExpr:
		off := resolveBinding(b.cols, ex)
		if off >= 0 {
			return columnAt(off)
		}
		err := fmt.Errorf("%w: %s", ErrNoColumn, ex.Col)
		if off == -2 {
			err = errAmbiguous(ex.Col)
		}
		if b.err == nil {
			b.err = err
		}
		return failing(err)
	case *BinaryExpr:
		l, r, op := b.expr(ex.L), b.expr(ex.R), ex.Op
		logical := op == OpAnd || op == OpOr
		return func(en *env) (Value, error) {
			lv, err := l(en)
			if err != nil {
				return Null, err
			}
			rv, err := r(en)
			if err != nil {
				return Null, err
			}
			if logical {
				// AND/OR need three-valued evaluation before the NULL short-circuit.
				return applyBoolPair(op, lv, rv)
			}
			return applyBinary(op, lv, rv)
		}
	case *UnaryExpr:
		f, op := b.expr(ex.E), ex.Op
		return func(en *env) (Value, error) {
			v, err := f(en)
			if err != nil {
				return Null, err
			}
			return applyUnary(op, v)
		}
	case *InExpr:
		f := b.expr(ex.E)
		list := make([]exprFn, len(ex.List))
		for i, le := range ex.List {
			list[i] = b.expr(le)
		}
		negate := ex.Negate
		return func(en *env) (Value, error) {
			v, err := f(en)
			if err != nil {
				return Null, err
			}
			if v.IsNull() {
				return Null, nil
			}
			sawNull := false
			for _, lf := range list {
				lv, err := lf(en)
				if err != nil {
					return Null, err
				}
				if lv.IsNull() {
					sawNull = true
					continue
				}
				if Equal(v, lv) {
					return NewBool(!negate), nil
				}
			}
			if sawNull {
				return Null, nil
			}
			return NewBool(negate), nil
		}
	case *BetweenExpr:
		f, lo, hi := b.expr(ex.E), b.expr(ex.Lo), b.expr(ex.Hi)
		negate := ex.Negate
		return func(en *env) (Value, error) {
			v, err := f(en)
			if err != nil {
				return Null, err
			}
			lv, err := lo(en)
			if err != nil {
				return Null, err
			}
			hv, err := hi(en)
			if err != nil {
				return Null, err
			}
			return applyBetween(v, lv, hv, negate), nil
		}
	case *LikeExpr:
		f, p := b.expr(ex.E), b.expr(ex.Pattern)
		negate := ex.Negate
		return func(en *env) (Value, error) {
			v, err := f(en)
			if err != nil {
				return Null, err
			}
			pv, err := p(en)
			if err != nil {
				return Null, err
			}
			return applyLike(v, pv, negate)
		}
	case *IsNullExpr:
		f, negate := b.expr(ex.E), ex.Negate
		return func(en *env) (Value, error) {
			v, err := f(en)
			if err != nil {
				return Null, err
			}
			return NewBool(v.IsNull() != negate), nil
		}
	case *AggExpr:
		b.aggs++
		return b.aggregate(ex)
	default:
		return failing(fmt.Errorf("sqldb: unsupported expression %T", e))
	}
}

// pred binds a predicate: NULL is not true, a non-boolean is a type error.
func (b *binder) pred(e Expr) predFn {
	f := b.expr(e)
	return func(en *env) (bool, error) {
		v, err := f(en)
		if err != nil {
			return false, err
		}
		st, ok := boolState(v)
		if !ok {
			return false, fmt.Errorf("%w: predicate evaluated to %s", ErrTypeMismatch, v.Typ)
		}
		return st == tvTrue, nil
	}
}

// bindConst binds a row-independent constant (a literal, a parameter, or a
// negation of one): it evaluates against the parameters alone.
func bindConst(e Expr) exprFn {
	if e == nil {
		return nil
	}
	return (&binder{}).expr(e)
}

// aggregate binds an aggregate call: evaluated in the grouped stage, it folds
// its argument over the rows of the current group through a fresh
// accumulator. Anywhere else (WHERE, a join's ON, an ungrouped SELECT's ORDER
// BY, DML) there is no group and evaluating it is an error.
func (b *binder) aggregate(ex *AggExpr) exprFn {
	fn, star, distinct := ex.Fn, ex.Star, ex.Distinct
	var arg exprFn
	if ex.E != nil {
		arg = b.expr(ex.E)
	}
	return func(en *env) (Value, error) {
		if !en.grouped {
			return Null, fmt.Errorf("sqldb: aggregate %s outside grouped context", fn)
		}
		if star {
			if fn != AggCount {
				return Null, fmt.Errorf("sqldb: %s(*) is not valid", fn)
			}
			return NewInt(int64(len(en.group))), nil
		}
		acc := accumulator{fn: fn}
		if distinct {
			acc.seen = make(map[string]bool)
		}
		sub := env{params: en.params}
		for _, r := range en.group {
			sub.row = r
			v, err := arg(&sub)
			if err != nil {
				return Null, err
			}
			if err := acc.add(v); err != nil {
				return Null, err
			}
		}
		return acc.result(), nil
	}
}

// accumulator is the running state of one aggregate over one group. NULL
// inputs are skipped; an aggregate that saw no value is NULL, except COUNT,
// which is 0. SUM stays INT while every input is INT and is FLOAT otherwise;
// AVG is always FLOAT.
type accumulator struct {
	fn       AggFn
	count    int64
	sum      float64
	sumInt   int64
	sawFloat bool
	extreme  Value           // running MIN or MAX
	seen     map[string]bool // DISTINCT: values already counted
}

func (a *accumulator) add(v Value) error {
	if v.IsNull() {
		return nil
	}
	if a.seen != nil {
		k := keyString(v)
		if a.seen[k] {
			return nil
		}
		a.seen[k] = true
	}
	switch a.fn {
	case AggSum, AggAvg:
		if !v.numeric() {
			return fmt.Errorf("%w: %s over %s", ErrTypeMismatch, a.fn, v.Typ)
		}
		if v.Typ == TypeInt {
			a.sumInt += v.Int
		} else {
			a.sawFloat = true
		}
		a.sum += v.AsFloat()
	case AggMin:
		if a.count == 0 || Compare(v, a.extreme) < 0 {
			a.extreme = v
		}
	case AggMax:
		if a.count == 0 || Compare(v, a.extreme) > 0 {
			a.extreme = v
		}
	}
	a.count++
	return nil
}

func (a *accumulator) result() Value {
	switch {
	case a.fn == AggCount:
		return NewInt(a.count)
	case a.count == 0:
		return Null
	case a.fn == AggSum && !a.sawFloat:
		return NewInt(a.sumInt)
	case a.fn == AggSum:
		return NewFloat(a.sum)
	case a.fn == AggAvg:
		return NewFloat(a.sum / float64(a.count))
	default:
		return a.extreme
	}
}
