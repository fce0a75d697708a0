package sqldb

import (
	"errors"
	"strings"
	"testing"
)

func mustParse(t *testing.T, sql string) Statement {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return stmt
}

func TestLexBasics(t *testing.T) {
	toks, err := lex("SELECT a, b FROM t WHERE x = 'it''s' -- comment\nAND y >= 2.5")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.kind)
		texts = append(texts, tok.text)
	}
	wantTexts := []string{"SELECT", "a", ",", "b", "FROM", "t", "WHERE", "x", "=", "it's", "AND", "y", ">=", "2.5", ""}
	if len(texts) != len(wantTexts) {
		t.Fatalf("token count = %d, want %d (%v)", len(texts), len(wantTexts), texts)
	}
	for i := range wantTexts {
		if texts[i] != wantTexts[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], wantTexts[i])
		}
	}
	if kinds[9] != tokString {
		t.Errorf("token 9 kind = %v, want string", kinds[9])
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"SELECT 'unterminated", "SELECT a ! b", "SELECT #"} {
		if _, err := lex(src); err == nil {
			t.Errorf("lex(%q) succeeded, want error", src)
		}
	}
}

func TestParseCreateTable(t *testing.T) {
	stmt := mustParse(t, `CREATE TABLE item (
		i_id INT PRIMARY KEY,
		i_title VARCHAR(60) NOT NULL,
		i_cost FLOAT,
		i_flag BOOL,
		i_sku TEXT UNIQUE
	)`)
	ct, ok := stmt.(*CreateTableStmt)
	if !ok {
		t.Fatalf("got %T", stmt)
	}
	if ct.Table != "item" || len(ct.Cols) != 5 {
		t.Fatalf("table=%q cols=%d", ct.Table, len(ct.Cols))
	}
	if !ct.Cols[0].PrimaryKey || ct.Cols[0].Typ != TypeInt {
		t.Errorf("col0 = %+v", ct.Cols[0])
	}
	if !ct.Cols[1].NotNull || ct.Cols[1].Typ != TypeText {
		t.Errorf("col1 = %+v", ct.Cols[1])
	}
	if !ct.Cols[4].Unique {
		t.Errorf("col4 = %+v", ct.Cols[4])
	}
}

func TestParseCreateTableIfNotExists(t *testing.T) {
	ct := mustParse(t, "CREATE TABLE IF NOT EXISTS t (a INT)").(*CreateTableStmt)
	if !ct.IfNotExists {
		t.Error("IfNotExists not set")
	}
}

func TestParseCreateIndex(t *testing.T) {
	ci := mustParse(t, "CREATE UNIQUE INDEX idx_a ON t (a)").(*CreateIndexStmt)
	if ci.Name != "idx_a" || ci.Table != "t" || ci.Col != "a" || !ci.Unique {
		t.Errorf("%+v", ci)
	}
}

func TestParseDrop(t *testing.T) {
	d := mustParse(t, "DROP TABLE IF EXISTS t;").(*DropTableStmt)
	if d.Table != "t" || !d.IfExists {
		t.Errorf("%+v", d)
	}
}

func TestParseInsert(t *testing.T) {
	in := mustParse(t, "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)").(*InsertStmt)
	if in.Table != "t" || len(in.Cols) != 2 || len(in.Rows) != 2 {
		t.Fatalf("%+v", in)
	}
	lit := in.Rows[1][1].(*LiteralExpr)
	if !lit.Val.IsNull() {
		t.Errorf("want NULL literal, got %v", lit.Val)
	}
}

func TestParseInsertParams(t *testing.T) {
	in := mustParse(t, "INSERT INTO t VALUES (?, ?)").(*InsertStmt)
	p0 := in.Rows[0][0].(*ParamExpr)
	p1 := in.Rows[0][1].(*ParamExpr)
	if p0.Index != 0 || p1.Index != 1 {
		t.Errorf("param indexes %d, %d", p0.Index, p1.Index)
	}
}

func TestParseUpdate(t *testing.T) {
	up := mustParse(t, "UPDATE t SET a = a + 1, b = 'y' WHERE id = 3").(*UpdateStmt)
	if up.Table != "t" || len(up.Set) != 2 || up.Where == nil {
		t.Fatalf("%+v", up)
	}
}

func TestParseDelete(t *testing.T) {
	del := mustParse(t, "DELETE FROM t WHERE a BETWEEN 1 AND 10").(*DeleteStmt)
	if del.Table != "t" {
		t.Fatalf("%+v", del)
	}
	if _, ok := del.Where.(*BetweenExpr); !ok {
		t.Errorf("where = %T", del.Where)
	}
}

func TestParseSelectFull(t *testing.T) {
	sel := mustParse(t, `SELECT DISTINCT c.name, COUNT(*) AS n
		FROM orders o
		JOIN customer c ON o.cust_id = c.id
		LEFT JOIN address a ON c.addr_id = a.id
		WHERE o.total > 10.5 AND c.name LIKE 'A%'
		GROUP BY c.name
		HAVING COUNT(*) > 1
		ORDER BY n DESC, c.name
		LIMIT 10 OFFSET 5`).(*SelectStmt)
	if !sel.Distinct || len(sel.Items) != 2 || len(sel.Joins) != 2 {
		t.Fatalf("%+v", sel)
	}
	if !sel.Joins[1].Left {
		t.Error("second join should be LEFT")
	}
	if sel.Limit != 10 || sel.Offset != 5 {
		t.Errorf("limit=%d offset=%d", sel.Limit, sel.Offset)
	}
	if len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Error("missing GROUP BY / HAVING")
	}
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Errorf("order by = %+v", sel.OrderBy)
	}
}

func TestParseSelectStar(t *testing.T) {
	sel := mustParse(t, "SELECT *, t.* FROM t").(*SelectStmt)
	if !sel.Items[0].Star || sel.Items[0].StarTable != "" {
		t.Errorf("item0 = %+v", sel.Items[0])
	}
	if !sel.Items[1].Star || sel.Items[1].StarTable != "t" {
		t.Errorf("item1 = %+v", sel.Items[1])
	}
}

func TestParsePrecedence(t *testing.T) {
	sel := mustParse(t, "SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3").(*SelectStmt)
	or, ok := sel.Where.(*BinaryExpr)
	if !ok || or.Op != OpOr {
		t.Fatalf("top op = %v", sel.Where)
	}
	and, ok := or.R.(*BinaryExpr)
	if !ok || and.Op != OpAnd {
		t.Fatalf("right op = %v", or.R)
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	sel := mustParse(t, "SELECT 1 + 2 * 3 FROM t").(*SelectStmt)
	add := sel.Items[0].Expr.(*BinaryExpr)
	if add.Op != OpAdd {
		t.Fatalf("top = %v", add.Op)
	}
	mul := add.R.(*BinaryExpr)
	if mul.Op != OpMul {
		t.Fatalf("right = %v", mul.Op)
	}
}

func TestParseInAndIsNull(t *testing.T) {
	sel := mustParse(t, "SELECT a FROM t WHERE a IN (1,2,3) AND b IS NOT NULL AND c NOT IN (4)").(*SelectStmt)
	conj := splitAnd(sel.Where)
	if len(conj) != 3 {
		t.Fatalf("conjuncts = %d", len(conj))
	}
	in := conj[0].(*InExpr)
	if in.Negate || len(in.List) != 3 {
		t.Errorf("%+v", in)
	}
	isn := conj[1].(*IsNullExpr)
	if !isn.Negate {
		t.Errorf("%+v", isn)
	}
	nin := conj[2].(*InExpr)
	if !nin.Negate {
		t.Errorf("%+v", nin)
	}
}

func TestParseTxnControl(t *testing.T) {
	if _, ok := mustParse(t, "BEGIN").(*BeginStmt); !ok {
		t.Error("BEGIN")
	}
	if _, ok := mustParse(t, "COMMIT").(*CommitStmt); !ok {
		t.Error("COMMIT")
	}
	if _, ok := mustParse(t, "ROLLBACK").(*RollbackStmt); !ok {
		t.Error("ROLLBACK")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC a FROM t",
		"SELECT FROM t",
		"INSERT t VALUES (1)",
		"CREATE TABLE t ()",
		"CREATE TABLE t (a BLOB)",
		"UPDATE t SET",
		"SELECT a FROM t WHERE a NOT 5",
		"SELECT a FROM t extra garbage tokens ,",
		"DELETE FROM",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		} else {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Errorf("Parse(%q) error type %T, want *ParseError", src, err)
			}
		}
	}
}

func TestParseErrorMessageHasOffset(t *testing.T) {
	_, err := Parse("SELECT a FROM t WHERE ^")
	if err == nil || !strings.Contains(err.Error(), "offset") {
		t.Errorf("err = %v", err)
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "%b%", true},
		{"abc", "%%c", true},
		{"ABC", "abc", true}, // case-insensitive, like MySQL's default collation
		{"", "", true},
		{"a", "", false},
		{"", "%%", true},
		{"abc", "a%%%c", true},
		{"abc", "_%_", true},
		{"ab", "___", false},
		{"mississippi", "%iss%ppi", true},
		{"mississippi", "%iss%ipi", false},
		{"@", "`", false}, // 0x40 and 0x60 differ in the case bit but are no letters
		{"[", "{", false},
		{"\xc3", "\xe3", true},  // Latin-1 Ã, ã
		{"\xd7", "\xf7", false}, // Latin-1 ×, ÷
		{"k", "\xe2", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
		if ref := likeRef(c.s, c.p); ref != c.want {
			t.Errorf("likeRef(%q, %q) = %v, want %v", c.s, c.p, ref, c.want)
		}
	}
}
