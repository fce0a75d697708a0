// Package sqldb implements an embedded single-node relational DBMS used as
// the building block of the scalable data platform. It is the stand-in for
// the off-the-shelf MySQL instances in the CIDR 2009 paper: it provides a
// SQL subset (DDL, DML, SELECT with joins and aggregates), strict two-phase
// locking with deadlock detection, transactions with a two-phase-commit
// participant API, a write-back LRU buffer pool over paged row storage (a
// row change edits the resident page; the WAL, not the page image, is what a
// crash recovers from), and a mysqldump-style table-locking copy tool.
package sqldb

import (
	"fmt"
	"strconv"
	"strings"
)

// Type identifies the SQL type of a column or value.
type Type int

// Column types supported by the engine.
const (
	TypeNull Type = iota
	TypeInt
	TypeFloat
	TypeText
	TypeBool
)

// String returns the SQL name of the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	case TypeText:
		return "TEXT"
	case TypeBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Value is a single SQL value. The zero Value is SQL NULL.
type Value struct {
	Typ   Type
	Int   int64
	Float float64
	Str   string
	Bool  bool
}

// Null is the SQL NULL value.
var Null = Value{Typ: TypeNull}

// NewInt returns an INT value.
func NewInt(v int64) Value { return Value{Typ: TypeInt, Int: v} }

// NewFloat returns a FLOAT value.
func NewFloat(v float64) Value { return Value{Typ: TypeFloat, Float: v} }

// NewText returns a TEXT value.
func NewText(v string) Value { return Value{Typ: TypeText, Str: v} }

// NewBool returns a BOOL value.
func NewBool(v bool) Value { return Value{Typ: TypeBool, Bool: v} }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.Typ == TypeNull }

// String renders the value in SQL literal form.
func (v Value) String() string {
	switch v.Typ {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return strconv.FormatInt(v.Int, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	case TypeText:
		return "'" + strings.ReplaceAll(v.Str, "'", "''") + "'"
	case TypeBool:
		if v.Bool {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "?"
	}
}

// AsFloat converts numeric values to float64. Text and bool values are not
// numeric; they convert to 0.
func (v Value) AsFloat() float64 {
	switch v.Typ {
	case TypeInt:
		return float64(v.Int)
	case TypeFloat:
		return v.Float
	default:
		return 0
	}
}

// numeric reports whether the value participates in arithmetic.
func (v Value) numeric() bool { return v.Typ == TypeInt || v.Typ == TypeFloat }

// Compare orders two values. NULL sorts before everything and equals only
// NULL (three-valued logic for predicates is handled by the evaluator; this
// is the total order used by indexes and ORDER BY). Cross-type numeric
// comparisons (INT vs FLOAT) compare numerically; otherwise values of
// different types order by type tag.
func Compare(a, b Value) int {
	if a.Typ == TypeNull || b.Typ == TypeNull {
		switch {
		case a.Typ == b.Typ:
			return 0
		case a.Typ == TypeNull:
			return -1
		default:
			return 1
		}
	}
	if a.numeric() && b.numeric() {
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.Typ != b.Typ {
		if a.Typ < b.Typ {
			return -1
		}
		return 1
	}
	switch a.Typ {
	case TypeText:
		return strings.Compare(a.Str, b.Str)
	case TypeBool:
		switch {
		case a.Bool == b.Bool:
			return 0
		case !a.Bool:
			return -1
		default:
			return 1
		}
	default:
		return 0
	}
}

// Equal reports value equality under Compare's total order.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Row is a tuple of values.
type Row []Value

// Clone returns a deep copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// String renders the row as a comma-separated list of SQL literals.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
