package sqldb

import (
	"fmt"
	"strconv"
	"strings"
)

// RenderStmt renders a parsed write statement back to SQL text with any ?
// placeholders replaced by the bound parameter values as literals. The WAL
// logs statements in this form, so replay needs no parameter transport and
// the log is human-readable. Statements round-trip through Parse: the
// renderer emits only syntax the parser accepts.
func RenderStmt(stmt Statement, params []Value) (string, error) {
	b, err := AppendStmt(nil, stmt, params)
	return string(b), err
}

// AppendStmt appends RenderStmt's text for stmt to dst and returns the
// extended buffer; on error it returns dst unchanged. A literal's text is
// Value.String()'s.
func AppendStmt(dst []byte, stmt Statement, params []Value) ([]byte, error) {
	r := sqlRenderer{b: dst, params: params}
	switch s := stmt.(type) {
	case *InsertStmt:
		r.renderInsert(s)
	case *UpdateStmt:
		r.renderUpdate(s)
	case *DeleteStmt:
		r.renderDelete(s)
	case *CreateTableStmt:
		r.renderCreateTable(s)
	case *CreateIndexStmt:
		r.renderCreateIndex(s)
	case *DropTableStmt:
		r.renderDropTable(s)
	default:
		return dst, fmt.Errorf("sqldb: cannot render %T", stmt)
	}
	if r.err != nil {
		return dst, r.err
	}
	return r.b, nil
}

// sqlRenderer appends rendered SQL to b. The first error wins; AppendStmt
// drops the text once one is set.
type sqlRenderer struct {
	b      []byte
	params []Value
	err    error
}

func (r *sqlRenderer) str(s string) { r.b = append(r.b, s...) }

// value appends v as the literal Value.String() renders.
func (r *sqlRenderer) value(v Value) {
	switch v.Typ {
	case TypeInt:
		r.b = strconv.AppendInt(r.b, v.Int, 10)
	case TypeFloat:
		r.b = strconv.AppendFloat(r.b, v.Float, 'g', -1, 64)
	case TypeText: // ReplaceAll allocates only for a text holding a quote
		r.b = append(r.b, '\'')
		r.b = append(r.b, strings.ReplaceAll(v.Str, "'", "''")...)
		r.b = append(r.b, '\'')
	default:
		r.str(v.String())
	}
}

func (r *sqlRenderer) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *sqlRenderer) renderInsert(s *InsertStmt) {
	r.str("INSERT INTO ")
	r.str(s.Table)
	if len(s.Cols) > 0 {
		r.str(" (")
		for i, c := range s.Cols {
			if i > 0 {
				r.str(", ")
			}
			r.str(c)
		}
		r.str(")")
	}
	r.str(" VALUES ")
	for i, row := range s.Rows {
		if i > 0 {
			r.str(", ")
		}
		r.str("(")
		for j, ex := range row {
			if j > 0 {
				r.str(", ")
			}
			r.expr(ex)
		}
		r.str(")")
	}
}

func (r *sqlRenderer) renderUpdate(s *UpdateStmt) {
	r.str("UPDATE ")
	r.str(s.Table)
	r.str(" SET ")
	for i, a := range s.Set {
		if i > 0 {
			r.str(", ")
		}
		r.str(a.Col)
		r.str(" = ")
		r.expr(a.Expr)
	}
	r.where(s.Where)
}

func (r *sqlRenderer) renderDelete(s *DeleteStmt) {
	r.str("DELETE FROM ")
	r.str(s.Table)
	r.where(s.Where)
}

func (r *sqlRenderer) renderCreateTable(s *CreateTableStmt) {
	r.str("CREATE TABLE ")
	if s.IfNotExists {
		r.str("IF NOT EXISTS ")
	}
	r.str(s.Table)
	r.str(" (")
	for i, c := range s.Cols {
		if i > 0 {
			r.str(", ")
		}
		r.str(c.Name)
		r.str(" ")
		r.str(c.Typ.String())
		if c.PrimaryKey {
			r.str(" PRIMARY KEY")
		}
		if c.NotNull {
			r.str(" NOT NULL")
		}
		if c.Unique {
			r.str(" UNIQUE")
		}
	}
	r.str(")")
}

func (r *sqlRenderer) renderCreateIndex(s *CreateIndexStmt) {
	r.str("CREATE ")
	if s.Unique {
		r.str("UNIQUE ")
	}
	r.str("INDEX ")
	r.str(s.Name)
	r.str(" ON ")
	r.str(s.Table)
	r.str(" (")
	r.str(s.Col)
	r.str(")")
}

func (r *sqlRenderer) renderDropTable(s *DropTableStmt) {
	r.str("DROP TABLE ")
	if s.IfExists {
		r.str("IF EXISTS ")
	}
	r.str(s.Table)
}

func (r *sqlRenderer) where(e Expr) {
	if e == nil {
		return
	}
	r.str(" WHERE ")
	r.expr(e)
}

// expr renders one expression. Binary sub-expressions are parenthesised
// unconditionally, so the output never depends on precedence.
func (r *sqlRenderer) expr(e Expr) {
	switch ex := e.(type) {
	case *LiteralExpr:
		r.value(ex.Val)
	case *ParamExpr:
		if ex.Index < 0 || ex.Index >= len(r.params) {
			r.fail("sqldb: render: parameter %d out of range (%d bound)", ex.Index, len(r.params))
			return
		}
		r.value(r.params[ex.Index])
	case *ColumnExpr:
		if ex.Table != "" {
			r.str(ex.Table)
			r.str(".")
		}
		r.str(ex.Col)
	case *BinaryExpr:
		r.str("(")
		r.expr(ex.L)
		r.str(" ")
		r.str(ex.Op.String())
		r.str(" ")
		r.expr(ex.R)
		r.str(")")
	case *UnaryExpr:
		if ex.Op == OpNot {
			r.str("(NOT ")
		} else {
			r.str("(-")
		}
		r.expr(ex.E)
		r.str(")")
	case *InExpr:
		r.str("(")
		r.expr(ex.E)
		if ex.Negate {
			r.str(" NOT")
		}
		r.str(" IN (")
		for i, item := range ex.List {
			if i > 0 {
				r.str(", ")
			}
			r.expr(item)
		}
		r.str("))")
	case *BetweenExpr:
		r.str("(")
		r.expr(ex.E)
		if ex.Negate {
			r.str(" NOT")
		}
		r.str(" BETWEEN ")
		r.expr(ex.Lo)
		r.str(" AND ")
		r.expr(ex.Hi)
		r.str(")")
	case *LikeExpr:
		r.str("(")
		r.expr(ex.E)
		if ex.Negate {
			r.str(" NOT")
		}
		r.str(" LIKE ")
		r.expr(ex.Pattern)
		r.str(")")
	case *IsNullExpr:
		r.str("(")
		r.expr(ex.E)
		r.str(" IS")
		if ex.Negate {
			r.str(" NOT")
		}
		r.str(" NULL)")
	default:
		r.fail("sqldb: render: unsupported expression %T", e)
	}
}
