package sqldb

// This file defines the abstract syntax tree produced by the parser and
// consumed by the executor.

// Statement is any parsed SQL statement. The four kinds that bind to an
// access plan (SELECT, INSERT, UPDATE, DELETE) carry the plans bound from
// them (see planTable); everything else about a node is immutable once
// parsed, so one node may execute on any number of engines at once. The six
// kinds that write (INSERT, UPDATE, DELETE and the three DDL statements) keep
// the text Parse was given: their redo record is that text plus the
// statement's parameters.
type Statement interface{ stmt() }

// CreateTableStmt is CREATE TABLE name (col type [PRIMARY KEY] [NOT NULL], ...).
type CreateTableStmt struct {
	Table       string
	Cols        []ColumnDef
	IfNotExists bool

	text string
}

// ColumnDef describes one column in a CREATE TABLE statement.
type ColumnDef struct {
	Name       string
	Typ        Type
	PrimaryKey bool
	NotNull    bool
	Unique     bool
}

// CreateIndexStmt is CREATE [UNIQUE] INDEX name ON table (col).
type CreateIndexStmt struct {
	Name   string
	Table  string
	Col    string
	Unique bool

	text string
}

// DropTableStmt is DROP TABLE [IF EXISTS] name.
type DropTableStmt struct {
	Table    string
	IfExists bool

	text string
}

// InsertStmt is INSERT INTO table [(cols)] VALUES (exprs), (exprs)...
type InsertStmt struct {
	Table string
	Cols  []string
	Rows  [][]Expr

	text  string
	plans planTable
}

// UpdateStmt is UPDATE table SET col = expr, ... [WHERE pred].
type UpdateStmt struct {
	Table string
	Set   []Assignment
	Where Expr // nil means all rows

	text  string
	plans planTable
}

// Assignment is one col = expr pair in an UPDATE SET clause.
type Assignment struct {
	Col  string
	Expr Expr
}

// DeleteStmt is DELETE FROM table [WHERE pred].
type DeleteStmt struct {
	Table string
	Where Expr

	text  string
	plans planTable
}

// SelectStmt is SELECT [DISTINCT] items FROM table [JOIN ...] [WHERE]
// [GROUP BY] [HAVING] [ORDER BY] [LIMIT [OFFSET]].
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     *TableRef
	Joins    []JoinClause
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 when absent
	Offset   int

	plans planTable
}

// SelectItem is one projected expression, possibly aliased; Star marks "*"
// or "alias.*".
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
	// StarTable is the table qualifier for "t.*"; empty for a bare "*".
	StarTable string
}

// TableRef names a table with an optional alias.
type TableRef struct {
	Table string
	Alias string
}

// Name returns the alias if present, else the table name.
func (t *TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// JoinClause is one [INNER|LEFT] JOIN table ON pred clause.
type JoinClause struct {
	Left  bool // LEFT OUTER join when true, INNER otherwise
	Table *TableRef
	On    Expr
}

// OrderItem is one ORDER BY expression with direction.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// ExplainStmt is EXPLAIN <statement>: it describes the access paths the
// executor would choose without executing the statement.
type ExplainStmt struct{ Inner Statement }

// BeginStmt is BEGIN.
type BeginStmt struct{}

// CommitStmt is COMMIT.
type CommitStmt struct{}

// RollbackStmt is ROLLBACK.
type RollbackStmt struct{}

func (*CreateTableStmt) stmt() {}
func (*CreateIndexStmt) stmt() {}
func (*DropTableStmt) stmt()   {}
func (*InsertStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*SelectStmt) stmt()      {}
func (*ExplainStmt) stmt()     {}
func (*BeginStmt) stmt()       {}
func (*CommitStmt) stmt()      {}
func (*RollbackStmt) stmt()    {}

// Expr is any expression node.
type Expr interface{ expr() }

// LiteralExpr is a constant value.
type LiteralExpr struct{ Val Value }

// ParamExpr is a ? placeholder, bound positionally at execution time.
type ParamExpr struct{ Index int }

// ColumnExpr references a column, optionally qualified by table alias.
type ColumnExpr struct {
	Table string // "" when unqualified
	Col   string
	// idx is resolved by the executor against the current row layout.
}

// BinaryExpr applies an operator to two operands.
type BinaryExpr struct {
	Op   BinOp
	L, R Expr
}

// UnaryExpr applies NOT or unary minus.
type UnaryExpr struct {
	Op UnOp
	E  Expr
}

// InExpr is "expr [NOT] IN (list...)".
type InExpr struct {
	E      Expr
	List   []Expr
	Negate bool
}

// BetweenExpr is "expr [NOT] BETWEEN lo AND hi".
type BetweenExpr struct {
	E      Expr
	Lo, Hi Expr
	Negate bool
}

// LikeExpr is "expr [NOT] LIKE pattern" with % and _ wildcards.
type LikeExpr struct {
	E       Expr
	Pattern Expr
	Negate  bool
}

// IsNullExpr is "expr IS [NOT] NULL".
type IsNullExpr struct {
	E      Expr
	Negate bool
}

// AggExpr is an aggregate function call: COUNT(*), COUNT([DISTINCT] e),
// SUM([DISTINCT] e), AVG(e), MIN(e), MAX(e).
type AggExpr struct {
	Fn       AggFn
	E        Expr // nil for COUNT(*)
	Star     bool
	Distinct bool
}

func (*LiteralExpr) expr() {}
func (*ParamExpr) expr()   {}
func (*ColumnExpr) expr()  {}
func (*BinaryExpr) expr()  {}
func (*UnaryExpr) expr()   {}
func (*InExpr) expr()      {}
func (*BetweenExpr) expr() {}
func (*LikeExpr) expr()    {}
func (*IsNullExpr) expr()  {}
func (*AggExpr) expr()     {}

// BinOp enumerates binary operators.
type BinOp int

// Binary operators.
const (
	OpEq BinOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
)

// String returns the SQL spelling of the operator.
func (op BinOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	default:
		return "?"
	}
}

// UnOp enumerates unary operators.
type UnOp int

// Unary operators.
const (
	OpNot UnOp = iota
	OpNeg
)

// AggFn enumerates aggregate functions.
type AggFn int

// Aggregate functions.
const (
	AggCount AggFn = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String returns the SQL name of the aggregate.
func (f AggFn) String() string {
	switch f {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return "?"
	}
}
