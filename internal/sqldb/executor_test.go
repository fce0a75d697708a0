package sqldb

import (
	"errors"
	"fmt"
	"testing"
)

// newTestDB returns an engine with one database "app" created.
func newTestDB(t testing.TB) *Engine {
	t.Helper()
	e := NewEngine(DefaultConfig())
	if err := e.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	return e
}

func mustExec(t testing.TB, e *Engine, sql string, params ...Value) *Result {
	t.Helper()
	res, err := e.Exec("app", sql, params...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func TestCreateInsertSelect(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE item (id INT PRIMARY KEY, title TEXT NOT NULL, cost FLOAT)")
	mustExec(t, e, "INSERT INTO item VALUES (1, 'book', 9.99), (2, 'pen', 1.5)")
	res := mustExec(t, e, "SELECT id, title, cost FROM item ORDER BY id")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][1].Str != "book" || res.Rows[1][2].Float != 1.5 {
		t.Errorf("rows = %v", res.Rows)
	}
	if fmt.Sprint(res.Cols) != "[id title cost]" {
		t.Errorf("cols = %v", res.Cols)
	}
}

func TestInsertColumnSubset(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, a TEXT, b FLOAT)")
	mustExec(t, e, "INSERT INTO t (id, b) VALUES (1, 2.5)")
	res := mustExec(t, e, "SELECT a, b FROM t WHERE id = 1")
	if !res.Rows[0][0].IsNull() || res.Rows[0][1].Float != 2.5 {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestInsertDuplicatePK(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, a TEXT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 'x')")
	_, err := e.Exec("app", "INSERT INTO t VALUES (1, 'y')")
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("err = %v, want ErrDuplicateKey", err)
	}
}

func TestInsertNotNullViolation(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, a TEXT NOT NULL)")
	_, err := e.Exec("app", "INSERT INTO t (id) VALUES (1)")
	if !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("err = %v, want ErrTypeMismatch", err)
	}
}

func TestInsertTypeMismatch(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, a INT)")
	_, err := e.Exec("app", "INSERT INTO t VALUES (1, 'text')")
	if !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("err = %v", err)
	}
}

func TestIntWidensToFloat(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, f FLOAT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 3)")
	res := mustExec(t, e, "SELECT f FROM t WHERE id = 1")
	if res.Rows[0][0].Typ != TypeFloat || res.Rows[0][0].Float != 3 {
		t.Errorf("got %v", res.Rows[0][0])
	}
}

func TestUpdatePoint(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 10), (2, 20)")
	res := mustExec(t, e, "UPDATE t SET n = n + 5 WHERE id = 2")
	if res.Affected != 1 {
		t.Fatalf("affected = %d", res.Affected)
	}
	got := mustExec(t, e, "SELECT n FROM t WHERE id = 2")
	if got.Rows[0][0].Int != 25 {
		t.Errorf("n = %v", got.Rows[0][0])
	}
}

func TestUpdateScan(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	for i := 1; i <= 10; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i))
	}
	res := mustExec(t, e, "UPDATE t SET n = 0 WHERE n > 5")
	if res.Affected != 5 {
		t.Fatalf("affected = %d", res.Affected)
	}
	got := mustExec(t, e, "SELECT COUNT(*) FROM t WHERE n = 0")
	if got.Rows[0][0].Int != 5 {
		t.Errorf("count = %v", got.Rows[0][0])
	}
}

func TestUpdateChangePK(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 10), (2, 20)")
	if _, err := e.Exec("app", "UPDATE t SET id = 2 WHERE id = 1"); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("err = %v, want duplicate key", err)
	}
	mustExec(t, e, "UPDATE t SET id = 3 WHERE id = 1")
	res := mustExec(t, e, "SELECT n FROM t WHERE id = 3")
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 10 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestDelete(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 1), (2, 2), (3, 3)")
	res := mustExec(t, e, "DELETE FROM t WHERE n >= 2")
	if res.Affected != 2 {
		t.Fatalf("affected = %d", res.Affected)
	}
	got := mustExec(t, e, "SELECT COUNT(*) FROM t")
	if got.Rows[0][0].Int != 1 {
		t.Errorf("count = %v", got.Rows[0][0])
	}
}

func TestSelectWherePredicates(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, s TEXT, n INT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 'apple', 5), (2, 'banana', 10), (3, 'cherry', 15), (4, NULL, 20)")
	cases := []struct {
		where string
		want  int
	}{
		{"n BETWEEN 5 AND 10", 2},
		{"n NOT BETWEEN 5 AND 10", 2},
		{"s LIKE '%an%'", 1},
		{"s NOT LIKE 'a%'", 2}, // NULL row filtered out by 3VL
		{"s IS NULL", 1},
		{"s IS NOT NULL", 3},
		{"id IN (1, 3)", 2},
		{"id NOT IN (1, 3)", 2},
		{"n > 5 AND n < 20", 2},
		{"n < 6 OR n > 14", 3},
		{"NOT (n > 5)", 1},
	}
	for _, c := range cases {
		res := mustExec(t, e, "SELECT id FROM t WHERE "+c.where)
		if len(res.Rows) != c.want {
			t.Errorf("WHERE %s: got %d rows, want %d", c.where, len(res.Rows), c.want)
		}
	}
}

func TestSelectParams(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 10), (2, 20)")
	res := mustExec(t, e, "SELECT n FROM t WHERE id = ?", NewInt(2))
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 20 {
		t.Errorf("rows = %v", res.Rows)
	}
	if _, err := e.Exec("app", "SELECT n FROM t WHERE n = ?"); err == nil {
		t.Error("missing param should error")
	}
}

func TestSelectOrderLimitOffset(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	for i := 1; i <= 5; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, 6-i))
	}
	res := mustExec(t, e, "SELECT id FROM t ORDER BY n DESC LIMIT 2 OFFSET 1")
	if len(res.Rows) != 2 || res.Rows[0][0].Int != 2 || res.Rows[1][0].Int != 3 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestSelectDistinct(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 7), (2, 7), (3, 8)")
	res := mustExec(t, e, "SELECT DISTINCT n FROM t ORDER BY n")
	if len(res.Rows) != 2 || res.Rows[0][0].Int != 7 || res.Rows[1][0].Int != 8 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestAggregates(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, g TEXT, n INT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 'a', 10), (2, 'a', 20), (3, 'b', 30), (4, 'b', NULL)")
	res := mustExec(t, e, "SELECT COUNT(*), COUNT(n), SUM(n), AVG(n), MIN(n), MAX(n) FROM t")
	row := res.Rows[0]
	if row[0].Int != 4 || row[1].Int != 3 || row[2].Int != 60 {
		t.Errorf("counts/sum = %v", row)
	}
	if row[3].Float != 20 || row[4].Int != 10 || row[5].Int != 30 {
		t.Errorf("avg/min/max = %v", row)
	}
}

func TestGroupByHaving(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, g TEXT, n INT)")
	mustExec(t, e, "INSERT INTO t VALUES (1,'a',1),(2,'a',1),(3,'b',3),(4,'c',4),(5,'c',6)")
	res := mustExec(t, e, "SELECT g, SUM(n) AS total FROM t GROUP BY g HAVING SUM(n) > 2 ORDER BY total DESC")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].Str != "c" || res.Rows[0][1].Int != 10 {
		t.Errorf("row0 = %v", res.Rows[0])
	}
	if res.Rows[1][0].Str != "b" || res.Rows[1][1].Int != 3 {
		t.Errorf("row1 = %v", res.Rows[1])
	}
}

func TestAggregateOverEmptyTable(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	res := mustExec(t, e, "SELECT COUNT(*), SUM(n), MIN(n) FROM t")
	row := res.Rows[0]
	if row[0].Int != 0 || !row[1].IsNull() || !row[2].IsNull() {
		t.Errorf("row = %v", row)
	}
}

func TestJoinInner(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE c (id INT PRIMARY KEY, name TEXT)")
	mustExec(t, e, "CREATE TABLE o (id INT PRIMARY KEY, cid INT, total FLOAT)")
	mustExec(t, e, "INSERT INTO c VALUES (1, 'ann'), (2, 'bob')")
	mustExec(t, e, "INSERT INTO o VALUES (10, 1, 5.0), (11, 1, 7.0), (12, 3, 9.0)")
	res := mustExec(t, e, "SELECT c.name, o.total FROM o JOIN c ON o.cid = c.id ORDER BY o.total")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].Str != "ann" || res.Rows[1][1].Float != 7 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestJoinLeft(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE c (id INT PRIMARY KEY, name TEXT)")
	mustExec(t, e, "CREATE TABLE o (id INT PRIMARY KEY, cid INT)")
	mustExec(t, e, "INSERT INTO c VALUES (1, 'ann'), (2, 'bob')")
	mustExec(t, e, "INSERT INTO o VALUES (10, 1)")
	res := mustExec(t, e, "SELECT c.name, o.id FROM c LEFT JOIN o ON o.cid = c.id ORDER BY c.name")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[1][0].Str != "bob" || !res.Rows[1][1].IsNull() {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestJoinThreeWayWithAliases(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE a (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, e, "CREATE TABLE b (id INT PRIMARY KEY, aid INT)")
	mustExec(t, e, "CREATE TABLE c (id INT PRIMARY KEY, bid INT)")
	mustExec(t, e, "INSERT INTO a VALUES (1, 'x')")
	mustExec(t, e, "INSERT INTO b VALUES (2, 1)")
	mustExec(t, e, "INSERT INTO c VALUES (3, 2)")
	res := mustExec(t, e, "SELECT t1.v FROM a t1 JOIN b t2 ON t2.aid = t1.id JOIN c t3 ON t3.bid = t2.id")
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "x" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestJoinNonEquality(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE a (id INT PRIMARY KEY)")
	mustExec(t, e, "CREATE TABLE b (id INT PRIMARY KEY)")
	mustExec(t, e, "INSERT INTO a VALUES (1), (2)")
	mustExec(t, e, "INSERT INTO b VALUES (1), (2)")
	res := mustExec(t, e, "SELECT a.id, b.id FROM a JOIN b ON a.id < b.id")
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 1 || res.Rows[0][1].Int != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestSecondaryIndexLookup(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, cat TEXT, n INT)")
	for i := 0; i < 100; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO t VALUES (%d, 'cat%d', %d)", i, i%5, i))
	}
	mustExec(t, e, "CREATE INDEX idx_cat ON t (cat)")
	res := mustExec(t, e, "SELECT COUNT(*) FROM t WHERE cat = 'cat3'")
	if res.Rows[0][0].Int != 20 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	// Index stays coherent across updates and deletes.
	mustExec(t, e, "UPDATE t SET cat = 'cat0' WHERE id = 3")
	mustExec(t, e, "DELETE FROM t WHERE id = 8")
	res = mustExec(t, e, "SELECT COUNT(*) FROM t WHERE cat = 'cat3'")
	if res.Rows[0][0].Int != 18 {
		t.Errorf("count after update/delete = %v", res.Rows[0][0])
	}
}

func TestSelectStarAndTableStar(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, a TEXT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 'x')")
	res := mustExec(t, e, "SELECT * FROM t")
	if len(res.Cols) != 2 || res.Cols[0] != "id" {
		t.Errorf("cols = %v", res.Cols)
	}
	res = mustExec(t, e, "SELECT t.* FROM t")
	if len(res.Cols) != 2 {
		t.Errorf("cols = %v", res.Cols)
	}
}

func TestSelectNoFrom(t *testing.T) {
	e := newTestDB(t)
	res := mustExec(t, e, "SELECT 1 + 2, 'x'")
	if res.Rows[0][0].Int != 3 || res.Rows[0][1].Str != "x" {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestUnknownTableAndColumn(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY)")
	if _, err := e.Exec("app", "SELECT * FROM missing"); !errors.Is(err, ErrNoTable) {
		t.Errorf("err = %v", err)
	}
	if _, err := e.Exec("app", "SELECT nope FROM t"); !errors.Is(err, ErrNoColumn) {
		t.Errorf("err = %v", err)
	}
}

func TestDropTable(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY)")
	mustExec(t, e, "DROP TABLE t")
	if _, err := e.Exec("app", "SELECT * FROM t"); !errors.Is(err, ErrNoTable) {
		t.Errorf("err = %v", err)
	}
	mustExec(t, e, "DROP TABLE IF EXISTS t")
	if _, err := e.Exec("app", "DROP TABLE t"); !errors.Is(err, ErrNoTable) {
		t.Errorf("err = %v", err)
	}
}

func TestDivisionByZeroYieldsNull(t *testing.T) {
	e := newTestDB(t)
	res := mustExec(t, e, "SELECT 1 / 0")
	if !res.Rows[0][0].IsNull() {
		t.Errorf("1/0 = %v, want NULL", res.Rows[0][0])
	}
}

func TestManyRowsSpanningPages(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	const n = 5 * pageCapacity
	tx, err := e.Begin("app")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := tx.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i*2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, e, "SELECT COUNT(*), SUM(n) FROM t")
	if res.Rows[0][0].Int != n {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	want := int64(n * (n - 1)) // sum of 2i for i in [0,n)
	if res.Rows[0][1].Int != want {
		t.Errorf("sum = %v, want %d", res.Rows[0][1], want)
	}
	// Point reads on sealed pages.
	res = mustExec(t, e, "SELECT n FROM t WHERE id = 100")
	if res.Rows[0][0].Int != 200 {
		t.Errorf("n = %v", res.Rows[0][0])
	}
}
