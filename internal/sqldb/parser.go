package sqldb

import (
	"fmt"
	"strconv"
)

// Parse parses a single SQL statement.
func Parse(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	// Allow a trailing semicolon.
	if p.peek().kind == tokSymbol && p.peek().text == ";" {
		p.advance()
	}
	if p.peek().kind != tokEOF {
		return nil, p.errorf("unexpected trailing input %q", p.peek())
	}
	return stmt, nil
}

type parser struct {
	toks   []token
	pos    int
	src    string
	params int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) advance() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errorf(format string, args ...interface{}) error {
	return &ParseError{Pos: p.peek().pos, Msg: fmt.Sprintf(format, args...)}
}

// acceptKeyword consumes the keyword if present.
func (p *parser) acceptKeyword(kw string) bool {
	if p.peek().kind == tokKeyword && p.peek().text == kw {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, found %q", kw, p.peek())
	}
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	if p.peek().kind == tokSymbol && p.peek().text == sym {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errorf("expected %q, found %q", sym, p.peek())
	}
	return nil
}

// expectIdent consumes an identifier (also accepting non-reserved use of
// keywords like KEY as names is intentionally not supported).
func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errorf("expected identifier, found %q", t)
	}
	p.advance()
	return t.text, nil
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, p.errorf("expected statement keyword, found %q", t)
	}
	switch t.text {
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "SELECT":
		return p.parseSelect()
	case "EXPLAIN":
		p.advance()
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Inner: inner}, nil
	case "BEGIN":
		p.advance()
		return &BeginStmt{}, nil
	case "COMMIT":
		p.advance()
		return &CommitStmt{}, nil
	case "ROLLBACK":
		p.advance()
		return &RollbackStmt{}, nil
	default:
		return nil, p.errorf("unsupported statement %q", t)
	}
}

func (p *parser) parseCreate() (Statement, error) {
	p.advance() // CREATE
	unique := p.acceptKeyword("UNIQUE")
	if p.acceptKeyword("INDEX") {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		table, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &CreateIndexStmt{Name: name, Table: table, Col: col, Unique: unique}, nil
	}
	if unique {
		return nil, p.errorf("expected INDEX after UNIQUE")
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	ifNot := false
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		ifNot = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	stmt := &CreateTableStmt{Table: name, IfNotExists: ifNot}
	for {
		col, err := p.parseColumnDef()
		if err != nil {
			return nil, err
		}
		stmt.Cols = append(stmt.Cols, col)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *parser) parseColumnDef() (ColumnDef, error) {
	var def ColumnDef
	name, err := p.expectIdent()
	if err != nil {
		return def, err
	}
	def.Name = name
	t := p.peek()
	if t.kind != tokKeyword {
		return def, p.errorf("expected column type, found %q", t)
	}
	switch t.text {
	case "INT", "INTEGER":
		def.Typ = TypeInt
	case "FLOAT", "DOUBLE":
		def.Typ = TypeFloat
	case "TEXT":
		def.Typ = TypeText
	case "VARCHAR", "CHAR":
		def.Typ = TypeText
		p.advance()
		// Optional length: VARCHAR(40).
		if p.acceptSymbol("(") {
			if p.peek().kind != tokInt {
				return def, p.errorf("expected length in type, found %q", p.peek())
			}
			p.advance()
			if err := p.expectSymbol(")"); err != nil {
				return def, err
			}
		}
		return p.parseColumnFlags(def)
	case "BOOL", "BOOLEAN":
		def.Typ = TypeBool
	default:
		return def, p.errorf("unsupported column type %q", t)
	}
	p.advance()
	return p.parseColumnFlags(def)
}

func (p *parser) parseColumnFlags(def ColumnDef) (ColumnDef, error) {
	for {
		switch {
		case p.acceptKeyword("PRIMARY"):
			if err := p.expectKeyword("KEY"); err != nil {
				return def, err
			}
			def.PrimaryKey = true
			def.NotNull = true
		case p.acceptKeyword("NOT"):
			if err := p.expectKeyword("NULL"); err != nil {
				return def, err
			}
			def.NotNull = true
		case p.acceptKeyword("UNIQUE"):
			def.Unique = true
		default:
			return def, nil
		}
	}
}

func (p *parser) parseDrop() (Statement, error) {
	p.advance() // DROP
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	ifExists := false
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		ifExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &DropTableStmt{Table: name, IfExists: ifExists}, nil
}

func (p *parser) parseInsert() (Statement, error) {
	p.advance() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &InsertStmt{Table: table}
	if p.acceptSymbol("(") {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			stmt.Cols = append(stmt.Cols, col)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	return stmt, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	p.advance() // UPDATE
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	stmt := &UpdateStmt{Table: table}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Set = append(stmt.Set, Assignment{Col: col, Expr: e})
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.advance() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &DeleteStmt{Table: table}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

func (p *parser) parseSelect() (Statement, error) {
	p.advance() // SELECT
	stmt := &SelectStmt{Limit: -1}
	stmt.Distinct = p.acceptKeyword("DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if !p.acceptKeyword("FROM") {
		// SELECT without FROM (e.g. SELECT 1) — allowed for probes.
		return stmt, nil
	}
	from, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	stmt.From = from
	for {
		left := false
		switch {
		case p.acceptKeyword("JOIN"):
		case p.acceptKeyword("INNER"):
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		case p.acceptKeyword("LEFT"):
			left = true
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		default:
			goto afterJoins
		}
		{
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.Joins = append(stmt.Joins, JoinClause{Left: left, Table: ref, On: on})
		}
	}
afterJoins:
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = h
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.expectInt()
		if err != nil {
			return nil, err
		}
		stmt.Limit = n
		if p.acceptKeyword("OFFSET") {
			off, err := p.expectInt()
			if err != nil {
				return nil, err
			}
			stmt.Offset = off
		}
	}
	return stmt, nil
}

func (p *parser) expectInt() (int, error) {
	t := p.peek()
	if t.kind != tokInt {
		return 0, p.errorf("expected integer, found %q", t)
	}
	p.advance()
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, p.errorf("bad integer %q", t.text)
	}
	return n, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	// "*" or "alias.*"
	if p.peek().kind == tokSymbol && p.peek().text == "*" {
		p.advance()
		return SelectItem{Star: true}, nil
	}
	if p.peek().kind == tokIdent && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "." &&
		p.toks[p.pos+2].kind == tokSymbol && p.toks[p.pos+2].text == "*" {
		tbl := p.advance().text
		p.advance() // .
		p.advance() // *
		return SelectItem{Star: true, StarTable: tbl}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.peek().kind == tokIdent {
		item.Alias = p.advance().text
	}
	return item, nil
}

func (p *parser) parseTableRef() (*TableRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ref := &TableRef{Table: name}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ref.Alias = alias
	} else if p.peek().kind == tokIdent {
		ref.Alias = p.advance().text
	}
	return ref, nil
}

// Expression grammar (precedence climbing):
//   expr      := orExpr
//   orExpr    := andExpr (OR andExpr)*
//   andExpr   := notExpr (AND notExpr)*
//   notExpr   := NOT notExpr | predicate
//   predicate := addExpr ((=|<>|!=|<|<=|>|>=) addExpr
//              | [NOT] IN (list) | [NOT] BETWEEN a AND b
//              | [NOT] LIKE pat | IS [NOT] NULL)?
//   addExpr   := mulExpr ((+|-) mulExpr)*
//   mulExpr   := unary ((*|/) unary)*
//   unary     := - unary | primary
//   primary   := literal | ? | agg(...) | ident[.ident] | ( expr )

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: OpNot, E: e}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	negate := false
	if p.peek().kind == tokKeyword && p.peek().text == "NOT" &&
		p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tokKeyword &&
		(p.toks[p.pos+1].text == "IN" || p.toks[p.pos+1].text == "BETWEEN" || p.toks[p.pos+1].text == "LIKE") {
		p.advance()
		negate = true
	}
	switch {
	case p.acceptKeyword("IN"):
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &InExpr{E: l, List: list, Negate: negate}, nil
	case p.acceptKeyword("BETWEEN"):
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: l, Lo: lo, Hi: hi, Negate: negate}, nil
	case p.acceptKeyword("LIKE"):
		pat, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &LikeExpr{E: l, Pattern: pat, Negate: negate}, nil
	case p.acceptKeyword("IS"):
		neg := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{E: l, Negate: neg}, nil
	}
	if negate {
		return nil, p.errorf("dangling NOT")
	}
	var op BinOp
	switch {
	case p.acceptSymbol("="):
		op = OpEq
	case p.acceptSymbol("<>"), p.acceptSymbol("!="):
		op = OpNe
	case p.acceptSymbol("<="):
		op = OpLe
	case p.acceptSymbol("<"):
		op = OpLt
	case p.acceptSymbol(">="):
		op = OpGe
	case p.acceptSymbol(">"):
		op = OpGt
	default:
		return l, nil
	}
	r, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	return &BinaryExpr{Op: op, L: l, R: r}, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch {
		case p.acceptSymbol("+"):
			op = OpAdd
		case p.acceptSymbol("-"):
			op = OpSub
		default:
			return l, nil
		}
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch {
		case p.acceptSymbol("*"):
			op = OpMul
		case p.acceptSymbol("/"):
			op = OpDiv
		default:
			return l, nil
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptSymbol("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: OpNeg, E: e}, nil
	}
	return p.parsePrimary()
}

var aggFns = map[string]AggFn{
	"COUNT": AggCount, "SUM": AggSum, "AVG": AggAvg, "MIN": AggMin, "MAX": AggMax,
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokInt:
		p.advance()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer literal %q", t.text)
		}
		return &LiteralExpr{Val: NewInt(n)}, nil
	case tokFloat:
		p.advance()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errorf("bad float literal %q", t.text)
		}
		return &LiteralExpr{Val: NewFloat(f)}, nil
	case tokString:
		p.advance()
		return &LiteralExpr{Val: NewText(t.text)}, nil
	case tokParam:
		p.advance()
		idx := p.params
		p.params++
		return &ParamExpr{Index: idx}, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.advance()
			return &LiteralExpr{Val: Null}, nil
		case "TRUE":
			p.advance()
			return &LiteralExpr{Val: NewBool(true)}, nil
		case "FALSE":
			p.advance()
			return &LiteralExpr{Val: NewBool(false)}, nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			p.advance()
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			agg := &AggExpr{Fn: aggFns[t.text]}
			if t.text == "COUNT" && p.acceptSymbol("*") {
				agg.Star = true
			} else {
				agg.Distinct = p.acceptKeyword("DISTINCT")
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				agg.E = e
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return agg, nil
		}
		return nil, p.errorf("unexpected keyword %q in expression", t)
	case tokIdent:
		p.advance()
		if p.acceptSymbol(".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnExpr{Table: t.text, Col: col}, nil
		}
		return &ColumnExpr{Col: t.text}, nil
	case tokSymbol:
		if t.text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("unexpected token %q in expression", t)
}

// likeMatch implements SQL LIKE: % matches any run of bytes, _ exactly one
// byte, and any other pattern byte one equal byte, with case folded (ASCII
// letters, and high bytes as the Latin-1 characters of the same code). It
// scans once and, on a mismatch, backtracks only to the last % seen: the
// run that % absorbs grows by one byte and the rest of the pattern is tried
// again from there. An earlier % never needs a retry, since anything the
// later one could match from an earlier position it can also match from a
// later one. The worst case is O(len(s)·len(pattern)).
func likeMatch(s, p string) bool {
	si, pi := 0, 0
	star, mark := -1, 0 // pattern index after the last %, and where its run ends in s
	for si < len(s) {
		switch {
		case pi < len(p) && p[pi] == '%':
			star, mark = pi+1, si
			pi++
		case pi < len(p) && (p[pi] == '_' || equalFoldByte(s[si], p[pi])):
			si, pi = si+1, pi+1
		case star >= 0:
			mark++
			si, pi = mark, star
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// equalFoldByte reports whether two bytes are equal under case folding: an
// ASCII letter folds with its other case, and a high byte as the Latin-1
// character of the same code, whose simple folds within Latin-1 are the same
// 0x20 apart (0xC3 Ã and 0xE3 ã match, 0xD7 × and 0xF7 ÷ do not). It is what
// strings.EqualFold says of the two characters, without the call.
func equalFoldByte(a, b byte) bool {
	if a == b {
		return true
	}
	if a|0x20 != b|0x20 {
		return false
	}
	a |= 0x20
	return 'a' <= a && a <= 'z' || 0xe0 <= a && a <= 0xfe && a != 0xf7
}
