package sqldb

import (
	"fmt"
	"strings"
	"testing"
)

func TestExplainAccessPaths(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, cat TEXT, n INT)")
	mustExec(t, e, "CREATE INDEX idx_cat ON t (cat)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 'a', 1), (2, 'b', 2)")

	cases := []struct {
		sql    string
		access string
	}{
		{"EXPLAIN SELECT * FROM t WHERE id = 1", "point"},
		{"EXPLAIN SELECT * FROM t WHERE cat = 'a'", "index"},
		{"EXPLAIN SELECT * FROM t WHERE n > 1", "scan"},
		{"EXPLAIN SELECT * FROM t", "scan"},
		{"EXPLAIN SELECT * FROM t WHERE id > 1", "range"},
		{"EXPLAIN SELECT * FROM t WHERE id BETWEEN 1 AND 2", "range"},
		{"EXPLAIN SELECT * FROM t WHERE cat > 'a' AND cat <= 'm'", "range"},
		{"EXPLAIN UPDATE t SET n = 0 WHERE id = 2", "point"},
		{"EXPLAIN UPDATE t SET n = 0 WHERE id >= 2", "range"},
		{"EXPLAIN DELETE FROM t WHERE n < 0", "scan"},
		{"EXPLAIN DELETE FROM t WHERE id < 2", "range"},
		{"EXPLAIN INSERT INTO t VALUES (3, 'c', 3)", "insert"},
	}
	for _, c := range cases {
		res := mustExec(t, e, c.sql)
		if len(res.Rows) == 0 {
			t.Fatalf("%s: no plan rows", c.sql)
		}
		if got := res.Rows[0][1].Str; got != c.access {
			t.Errorf("%s: access = %q, want %q", c.sql, got, c.access)
		}
	}
}

func TestExplainRangeDetail(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")

	res := mustExec(t, e, "EXPLAIN SELECT * FROM t WHERE id BETWEEN 3 AND 7")
	detail := res.Rows[0][2].Str
	if !strings.Contains(detail, "id >= 3") || !strings.Contains(detail, "id <= 7") {
		t.Errorf("BETWEEN detail = %q, want inclusive bounds on both sides", detail)
	}
	res = mustExec(t, e, "EXPLAIN SELECT * FROM t WHERE id > 3")
	if detail := res.Rows[0][2].Str; !strings.Contains(detail, "id > 3") {
		t.Errorf("one-sided detail = %q", detail)
	}
	// Parameterised bounds render as placeholders at EXPLAIN time when no
	// binding is supplied.
	res = mustExec(t, e, "EXPLAIN SELECT * FROM t WHERE id < ?", NewInt(9))
	if detail := res.Rows[0][2].Str; !strings.Contains(detail, "id < 9") {
		t.Errorf("bound param detail = %q", detail)
	}
}

// TestExplainOrderedStop names the ordered stop in an index read's detail —
// the primary key, the direction and how many rows the read takes — and
// leaves it out where the read takes every row.
func TestExplainOrderedStop(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE orders (o_id INT PRIMARY KEY, o_c_id INT, o_total FLOAT)")
	mustExec(t, e, "CREATE INDEX idx_cid ON orders (o_c_id)")
	for _, c := range []struct{ sql, detail string }{
		{"SELECT o_id, o_total FROM orders WHERE o_c_id = 7 ORDER BY o_id DESC LIMIT 1", "o_c_id = 7, by o_id desc, first 1"},
		{"SELECT o_id FROM orders WHERE o_c_id = ? ORDER BY o_id LIMIT 2 OFFSET 3", "o_c_id = 7, by o_id asc, first 5"},
		{"SELECT o_id FROM orders WHERE o_c_id = 7 ORDER BY o_total DESC LIMIT 1", "o_c_id = 7"},
		{"SELECT o_id FROM orders WHERE o_c_id = 7 ORDER BY o_id DESC", "o_c_id = 7"},
		{"SELECT COUNT(*) FROM orders WHERE o_c_id = 7 ORDER BY o_id LIMIT 1", "o_c_id = 7"},
	} {
		res := mustExec(t, e, "EXPLAIN "+c.sql, NewInt(7))
		if access, detail := res.Rows[0][1].Str, res.Rows[0][2].Str; access != "index" || detail != c.detail {
			t.Errorf("%s: %s %q, want index %q", c.sql, access, detail, c.detail)
		}
	}
}

func TestExplainJoinStrategies(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE a (id INT PRIMARY KEY, v INT)")
	mustExec(t, e, "CREATE TABLE b (id INT PRIMARY KEY, aid INT)")

	res := mustExec(t, e, "EXPLAIN SELECT * FROM a JOIN b ON b.aid = a.id")
	if len(res.Rows) != 2 {
		t.Fatalf("plan rows = %d", len(res.Rows))
	}
	if res.Rows[1][1].Str != "hash-join" {
		t.Errorf("equality join strategy = %q", res.Rows[1][1].Str)
	}
	res = mustExec(t, e, "EXPLAIN SELECT * FROM a JOIN b ON b.aid < a.id")
	if res.Rows[1][1].Str != "nested-loop" {
		t.Errorf("inequality join strategy = %q", res.Rows[1][1].Str)
	}
	if out := ExplainString(res); !strings.Contains(out, "nested-loop") {
		t.Errorf("ExplainString output: %q", out)
	}
}

func TestExplainDoesNotExecute(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY)")
	mustExec(t, e, "EXPLAIN INSERT INTO t VALUES (1)")
	res := mustExec(t, e, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].Int != 0 {
		t.Errorf("EXPLAIN INSERT inserted rows: %v", res.Rows[0][0])
	}
	mustExec(t, e, "INSERT INTO t VALUES (1)")
	mustExec(t, e, "EXPLAIN DELETE FROM t WHERE id = 1")
	res = mustExec(t, e, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].Int != 1 {
		t.Errorf("EXPLAIN DELETE deleted rows: %v", res.Rows[0][0])
	}
}

func TestExplainErrors(t *testing.T) {
	e := newTestDB(t)
	if _, err := e.Exec("app", "EXPLAIN SELECT * FROM missing"); err == nil {
		t.Error("EXPLAIN over missing table succeeded")
	}
	if _, err := e.Exec("app", "EXPLAIN BEGIN"); err == nil {
		t.Error("EXPLAIN BEGIN succeeded")
	}
}

// ExplainString renders an EXPLAIN result as aligned text.
func ExplainString(res *Result) string {
	var sb strings.Builder
	for _, r := range res.Rows {
		fmt.Fprintf(&sb, "%-14s %-12s %s\n", r[0].Str, r[1].Str, r[2].Str)
	}
	return sb.String()
}
