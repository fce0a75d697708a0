package sqldb

import (
	"fmt"
)

// colBinding associates one position of a joined row with its table alias
// and column name (both lower-cased).
type colBinding struct {
	table string
	col   string
}

// applyBoolPair combines two already-evaluated operands under AND/OR
// three-valued logic.
func applyBoolPair(op BinOp, l, r Value) (Value, error) {
	lt, lk := boolState(l)
	rt, rk := boolState(r)
	if !lk || !rk {
		return Null, fmt.Errorf("%w: %s applied to non-boolean", ErrTypeMismatch, op)
	}
	if op == OpAnd {
		switch {
		case lt == tvFalse || rt == tvFalse:
			return NewBool(false), nil
		case lt == tvNull || rt == tvNull:
			return Null, nil
		default:
			return NewBool(true), nil
		}
	}
	switch {
	case lt == tvTrue || rt == tvTrue:
		return NewBool(true), nil
	case lt == tvNull || rt == tvNull:
		return Null, nil
	default:
		return NewBool(false), nil
	}
}

// applyBinary applies a comparison or arithmetic operator to two
// already-evaluated operands.
func applyBinary(op BinOp, l, r Value) (Value, error) {
	if l.IsNull() || r.IsNull() {
		return Null, nil
	}

	switch op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		if !comparable(l, r) {
			return Null, fmt.Errorf("%w: cannot compare %s with %s", ErrTypeMismatch, l.Typ, r.Typ)
		}
		c := Compare(l, r)
		var out bool
		switch op {
		case OpEq:
			out = c == 0
		case OpNe:
			out = c != 0
		case OpLt:
			out = c < 0
		case OpLe:
			out = c <= 0
		case OpGt:
			out = c > 0
		case OpGe:
			out = c >= 0
		}
		return NewBool(out), nil
	case OpAdd, OpSub, OpMul, OpDiv:
		if !l.numeric() || !r.numeric() {
			return Null, fmt.Errorf("%w: arithmetic on %s and %s", ErrTypeMismatch, l.Typ, r.Typ)
		}
		if l.Typ == TypeInt && r.Typ == TypeInt && op != OpDiv {
			switch op {
			case OpAdd:
				return NewInt(l.Int + r.Int), nil
			case OpSub:
				return NewInt(l.Int - r.Int), nil
			case OpMul:
				return NewInt(l.Int * r.Int), nil
			}
		}
		lf, rf := l.AsFloat(), r.AsFloat()
		switch op {
		case OpAdd:
			return NewFloat(lf + rf), nil
		case OpSub:
			return NewFloat(lf - rf), nil
		case OpMul:
			return NewFloat(lf * rf), nil
		default:
			if rf == 0 {
				return Null, nil // SQL: division by zero yields NULL
			}
			return NewFloat(lf / rf), nil
		}
	}
	return Null, fmt.Errorf("sqldb: unknown binary operator %s", op)
}

// applyUnary applies NOT or unary minus to an already-evaluated operand.
func applyUnary(op UnOp, v Value) (Value, error) {
	switch op {
	case OpNot:
		if v.IsNull() {
			return Null, nil
		}
		if v.Typ != TypeBool {
			return Null, fmt.Errorf("%w: NOT applied to %s", ErrTypeMismatch, v.Typ)
		}
		return NewBool(!v.Bool), nil
	case OpNeg:
		switch v.Typ {
		case TypeNull:
			return Null, nil
		case TypeInt:
			return NewInt(-v.Int), nil
		case TypeFloat:
			return NewFloat(-v.Float), nil
		default:
			return Null, fmt.Errorf("%w: unary minus applied to %s", ErrTypeMismatch, v.Typ)
		}
	}
	return Null, fmt.Errorf("sqldb: unknown unary operator")
}

// applyBetween applies BETWEEN three-valued logic to evaluated operands.
func applyBetween(v, lo, hi Value, negate bool) Value {
	if v.IsNull() || lo.IsNull() || hi.IsNull() {
		return Null
	}
	in := Compare(v, lo) >= 0 && Compare(v, hi) <= 0
	if negate {
		in = !in
	}
	return NewBool(in)
}

// applyLike applies LIKE three-valued logic to evaluated operands.
func applyLike(v, p Value, negate bool) (Value, error) {
	if v.IsNull() || p.IsNull() {
		return Null, nil
	}
	if v.Typ != TypeText || p.Typ != TypeText {
		return Null, fmt.Errorf("%w: LIKE wants TEXT operands", ErrTypeMismatch)
	}
	m := likeMatch(v.Str, p.Str)
	if negate {
		m = !m
	}
	return NewBool(m), nil
}

// comparable reports whether two non-null values can be ordered.
func comparable(a, b Value) bool {
	if a.numeric() && b.numeric() {
		return true
	}
	return a.Typ == b.Typ
}

// three-valued truth states.
type triState int

const (
	tvFalse triState = iota
	tvTrue
	tvNull
)

func boolState(v Value) (triState, bool) {
	switch v.Typ {
	case TypeNull:
		return tvNull, true
	case TypeBool:
		if v.Bool {
			return tvTrue, true
		}
		return tvFalse, true
	default:
		return tvFalse, false
	}
}
