package sqldb

import (
	"errors"
	"testing"
)

// evalOne evaluates a standalone SQL expression by wrapping it in a
// FROM-less SELECT.
func evalOne(t *testing.T, expr string) (Value, error) {
	t.Helper()
	stmt, err := Parse("SELECT " + expr)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	sel := stmt.(*SelectStmt)
	return (&binder{}).expr(sel.Items[0].Expr)(&env{})
}

func mustEval(t *testing.T, expr string) Value {
	t.Helper()
	v, err := evalOne(t, expr)
	if err != nil {
		t.Fatalf("eval %q: %v", expr, err)
	}
	return v
}

func TestThreeValuedLogicTables(t *testing.T) {
	cases := []struct {
		expr string
		want Value
	}{
		// AND truth table with NULL.
		{"TRUE AND TRUE", NewBool(true)},
		{"TRUE AND FALSE", NewBool(false)},
		{"TRUE AND NULL", Null},
		{"FALSE AND NULL", NewBool(false)},
		{"NULL AND NULL", Null},
		// OR truth table with NULL.
		{"TRUE OR NULL", NewBool(true)},
		{"FALSE OR NULL", Null},
		{"FALSE OR FALSE", NewBool(false)},
		{"NULL OR NULL", Null},
		// NOT.
		{"NOT TRUE", NewBool(false)},
		{"NOT NULL", Null},
		// Comparisons with NULL are unknown.
		{"1 = NULL", Null},
		{"NULL <> NULL", Null},
		{"NULL < 5", Null},
		// IS NULL is never unknown.
		{"NULL IS NULL", NewBool(true)},
		{"1 IS NULL", NewBool(false)},
		{"1 IS NOT NULL", NewBool(true)},
	}
	for _, c := range cases {
		got := mustEval(t, c.expr)
		if Compare(got, c.want) != 0 || got.Typ != c.want.Typ {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestArithmeticSemantics(t *testing.T) {
	cases := []struct {
		expr string
		want Value
	}{
		{"1 + 2", NewInt(3)},
		{"7 - 9", NewInt(-2)},
		{"3 * 4", NewInt(12)},
		{"7 / 2", NewFloat(3.5)}, // division always floats
		{"1 + 2.5", NewFloat(3.5)},
		{"-5", NewInt(-5)},
		{"-(2.5)", NewFloat(-2.5)},
		{"1 + NULL", Null},
		{"NULL * 2", Null},
		{"1 / 0", Null},
		{"2 + 3 * 4", NewInt(14)},
		{"(2 + 3) * 4", NewInt(20)},
	}
	for _, c := range cases {
		got := mustEval(t, c.expr)
		if Compare(got, c.want) != 0 || got.Typ != c.want.Typ {
			t.Errorf("%s = %v (%v), want %v (%v)", c.expr, got, got.Typ, c.want, c.want.Typ)
		}
	}
}

func TestEvalTypeErrors(t *testing.T) {
	for _, expr := range []string{
		"'a' + 1",
		"TRUE + 1",
		"NOT 5",
		"-'x'",
		"1 AND TRUE",
		"'a' < 1",
		"1 LIKE 'x'",
	} {
		if _, err := evalOne(t, expr); !errors.Is(err, ErrTypeMismatch) {
			t.Errorf("%s: err = %v, want ErrTypeMismatch", expr, err)
		}
	}
}

func TestInBetweenLikeNullSemantics(t *testing.T) {
	cases := []struct {
		expr string
		want Value
	}{
		{"2 IN (1, 2, 3)", NewBool(true)},
		{"4 IN (1, 2, 3)", NewBool(false)},
		{"4 NOT IN (1, 2, 3)", NewBool(true)},
		// SQL's subtle rule: x IN (..NULL..) is unknown when not found.
		{"4 IN (1, NULL)", Null},
		{"1 IN (1, NULL)", NewBool(true)},
		{"NULL IN (1, 2)", Null},
		{"5 BETWEEN 1 AND 10", NewBool(true)},
		{"0 BETWEEN 1 AND 10", NewBool(false)},
		{"0 NOT BETWEEN 1 AND 10", NewBool(true)},
		{"NULL BETWEEN 1 AND 2", Null},
		{"5 BETWEEN NULL AND 10", Null},
		{"'hello' LIKE 'h%'", NewBool(true)},
		{"'hello' NOT LIKE 'h%'", NewBool(false)},
		{"NULL LIKE 'h%'", Null},
		{"'x' LIKE NULL", Null},
	}
	for _, c := range cases {
		got := mustEval(t, c.expr)
		if Compare(got, c.want) != 0 || got.Typ != c.want.Typ {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestPredTrueWhereSemantics(t *testing.T) {
	// WHERE filters out rows whose predicate is NULL (unknown).
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 5), (2, NULL)")
	res := mustExec(t, e, "SELECT id FROM t WHERE n > 3")
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 1 {
		t.Errorf("rows = %v", res.Rows)
	}
	// NOT(NULL) is still NULL: the row stays filtered.
	res = mustExec(t, e, "SELECT id FROM t WHERE NOT (n > 3)")
	if len(res.Rows) != 0 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestAmbiguousColumn(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE x (id INT PRIMARY KEY, v INT)")
	mustExec(t, e, "CREATE TABLE y (id INT PRIMARY KEY, v INT)")
	mustExec(t, e, "INSERT INTO x VALUES (1, 1)")
	mustExec(t, e, "INSERT INTO y VALUES (1, 2)")
	if _, err := e.Exec("app", "SELECT v FROM x JOIN y ON x.id = y.id"); !errors.Is(err, ErrNoColumn) {
		t.Errorf("ambiguous column err = %v", err)
	}
	res := mustExec(t, e, "SELECT x.v, y.v FROM x JOIN y ON x.id = y.id")
	if res.Rows[0][0].Int != 1 || res.Rows[0][1].Int != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestGroupByMultipleColumns(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, a TEXT, b INT, n INT)")
	mustExec(t, e, `INSERT INTO t VALUES
		(1, 'x', 1, 10), (2, 'x', 1, 20), (3, 'x', 2, 30), (4, 'y', 1, 40)`)
	res := mustExec(t, e, "SELECT a, b, SUM(n) FROM t GROUP BY a, b ORDER BY a, b")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][2].Int != 30 || res.Rows[1][2].Int != 30 || res.Rows[2][2].Int != 40 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestOrderByAggregate(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, g TEXT)")
	mustExec(t, e, "INSERT INTO t VALUES (1,'a'),(2,'b'),(3,'b'),(4,'b'),(5,'a')")
	res := mustExec(t, e, "SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY COUNT(*) DESC")
	if res.Rows[0][0].Str != "b" || res.Rows[0][1].Int != 3 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestCountDistinct(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, g TEXT, n INT)")
	mustExec(t, e, "INSERT INTO t VALUES (1,'a',1),(2,'a',2),(3,'b',2),(4,'b',NULL)")
	res := mustExec(t, e, "SELECT COUNT(DISTINCT g), COUNT(DISTINCT n), COUNT(g) FROM t")
	row := res.Rows[0]
	if row[0].Int != 2 || row[1].Int != 2 || row[2].Int != 4 {
		t.Errorf("row = %v", row)
	}
	// SUM(DISTINCT ...) follows the same rule.
	res = mustExec(t, e, "SELECT SUM(DISTINCT n) FROM t")
	if res.Rows[0][0].Int != 3 {
		t.Errorf("sum distinct = %v", res.Rows[0][0])
	}
	// Per group.
	res = mustExec(t, e, "SELECT g, COUNT(DISTINCT n) FROM t GROUP BY g ORDER BY g")
	if res.Rows[0][1].Int != 2 || res.Rows[1][1].Int != 1 {
		t.Errorf("rows = %v", res.Rows)
	}
}
