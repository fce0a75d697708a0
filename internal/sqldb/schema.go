package sqldb

import (
	"fmt"
	"strings"
)

// Column describes one column of a table schema.
type Column struct {
	Name       string
	Typ        Type
	PrimaryKey bool
	NotNull    bool
	Unique     bool
}

// Schema is the immutable description of a table: its name, columns, and
// primary-key column position. Tables share it freely: a dump image carries
// its table's, and a restore installs that one.
type Schema struct {
	Table  string
	Cols   []Column
	PKIdx  int // index into Cols of the primary key; -1 when the table has none
	colIdx map[string]int
}

// NewSchema builds a schema from column definitions, validating names and
// locating the primary key.
func NewSchema(table string, cols []Column) (*Schema, error) {
	if table == "" {
		return nil, fmt.Errorf("sqldb: empty table name")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("sqldb: table %s has no columns", table)
	}
	s := &Schema{Table: table, Cols: cols, PKIdx: -1, colIdx: make(map[string]int, len(cols))}
	for i, c := range cols {
		lc := strings.ToLower(c.Name)
		if _, dup := s.colIdx[lc]; dup {
			return nil, fmt.Errorf("sqldb: duplicate column %s in table %s", c.Name, table)
		}
		s.colIdx[lc] = i
		if c.PrimaryKey {
			if s.PKIdx >= 0 {
				return nil, fmt.Errorf("sqldb: table %s has multiple primary keys", table)
			}
			s.PKIdx = i
		}
	}
	return s, nil
}

// ColIndex returns the position of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	if i, ok := s.colIdx[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// CheckRow validates a full-width row against the schema: arity, NOT NULL,
// and type compatibility (INT values are accepted into FLOAT columns and are
// widened in place). A column of no type CREATE TABLE can declare takes no
// row.
func (s *Schema) CheckRow(r Row) error {
	if len(r) != len(s.Cols) {
		return fmt.Errorf("%w: table %s expects %d values, got %d", ErrTypeMismatch, s.Table, len(s.Cols), len(r))
	}
	for i, v := range r {
		c := s.Cols[i]
		if v.IsNull() {
			if c.NotNull {
				return fmt.Errorf("%w: column %s.%s is NOT NULL", ErrTypeMismatch, s.Table, c.Name)
			}
			continue
		}
		switch c.Typ {
		case TypeInt:
			if v.Typ != TypeInt {
				return fmt.Errorf("%w: column %s.%s wants INT, got %s", ErrTypeMismatch, s.Table, c.Name, v.Typ)
			}
		case TypeFloat:
			if v.Typ == TypeInt {
				r[i] = NewFloat(float64(v.Int))
			} else if v.Typ != TypeFloat {
				return fmt.Errorf("%w: column %s.%s wants FLOAT, got %s", ErrTypeMismatch, s.Table, c.Name, v.Typ)
			}
		case TypeText:
			if v.Typ != TypeText {
				return fmt.Errorf("%w: column %s.%s wants TEXT, got %s", ErrTypeMismatch, s.Table, c.Name, v.Typ)
			}
		case TypeBool:
			if v.Typ != TypeBool {
				return fmt.Errorf("%w: column %s.%s wants BOOL, got %s", ErrTypeMismatch, s.Table, c.Name, v.Typ)
			}
		default:
			return fmt.Errorf("%w: column %s.%s has no storable type %s", ErrTypeMismatch, s.Table, c.Name, c.Typ)
		}
	}
	return nil
}
