package sqldb

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// sourceBy runs a bound SELECT's source stage with every probe-able join done
// by the given strategy, whatever the row counts say. It returns nil when the
// statement has no probe-able join.
func sourceBy(t *testing.T, tx *Txn, bs *boundSelect, params []Value, probe bool) ([]Row, error) {
	t.Helper()
	en := tx.newEnv(params)
	if tx.vals == nil {
		tx.vals = new(arena) // what a statement's start gives it
	}
	var cur []Row
	probeable := false
	for i, r := range bs.reads {
		tbl := r.tbl
		var err error
		if i > 0 && bs.joins[i-1].probe {
			probeable = true
			if probe {
				if cur, err = bs.joins[i-1].probeJoin(tx, r, tbl, en, cur); err != nil {
					return nil, err
				}
				continue
			}
		}
		rows, _, err := r.rows(tx, tbl, en)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			cur = rows
		} else if cur, err = bs.joins[i-1].join(tx.vals, en, cur, rows); err != nil {
			return nil, err
		}
	}
	if !probeable {
		return nil, nil
	}
	out := []Row{} // copies: the rows in the arena die with the transaction
	for _, r := range cur {
		out = append(out, r.Clone())
	}
	return out, nil
}

// TestJoinStrategiesAgree runs the join stage of every golden-corpus join —
// and of LEFT and INNER joins over missing, NULL, duplicate and
// differently-typed keys — once by hash join and once by primary-key probe:
// both must produce the same rows in the same order. (The corpus' tables are
// too small for the run-time rule to pick the probe, so TestExecGolden alone
// only covers the hash join; TestProbeJoinEndToEnd covers the rule.)
func TestJoinStrategiesAgree(t *testing.T) {
	e := diffEngine(t)
	defer e.Close()
	type query struct {
		sql    string
		params []Value
	}
	var queries []query
	for _, c := range loadGolden(t) {
		if c.Verify != "" || !strings.Contains(strings.ToUpper(c.SQL), " JOIN ") {
			continue
		}
		q := query{sql: c.SQL}
		for _, p := range c.Params {
			q.params = append(q.params, decodeGoldenValue(t, p))
		}
		queries = append(queries, q)
	}
	// review.item_id has a dangling (105 → item 42) and a NULL (106) key;
	// review.aid has NULL keys; nopk.a repeats keys; item.cost is a FLOAT
	// probing an INT key, review.note a TEXT doing the same.
	for _, sql := range []string{
		"SELECT r.rid, i.title FROM review r LEFT JOIN item i ON i.id = r.item_id",
		"SELECT r.rid, i.title FROM review r JOIN item i ON r.item_id = i.id",
		"SELECT r.rid, a.name FROM review r LEFT JOIN author a ON a.aid = r.aid",
		"SELECT r.rid, a.name, i.title FROM review r LEFT JOIN author a ON a.aid = r.aid LEFT JOIN item i ON i.id = r.item_id",
		"SELECT n.b, i.title FROM nopk n LEFT JOIN item i ON i.id = n.a",
		"SELECT x.id, y.id FROM item x JOIN item y ON y.id = x.cost",
		"SELECT x.id, y.id FROM item x LEFT JOIN item y ON y.id = x.qty",
		"SELECT r.rid, i.id FROM review r LEFT JOIN item i ON i.id = r.note",
		"SELECT r.rid, i.title FROM review r JOIN item i ON i.id = r.item_id WHERE r.rid > 200",
	} {
		queries = append(queries, query{sql: sql})
	}

	compared := 0
	for _, q := range queries {
		stmt, err := Parse(q.sql)
		if err != nil {
			t.Fatalf("%s: %v", q.sql, err)
		}
		d, err := e.database("app")
		if err != nil {
			t.Fatal(err)
		}
		bs, err := bindSelect(&stmtPlan{db: d}, stmt.(*SelectStmt))
		if err != nil {
			continue // an unknown table: nothing to join
		}
		var got [2][]Row
		var errs [2]error
		for i, probe := range []bool{false, true} {
			tx, err := e.Begin("app")
			if err != nil {
				t.Fatal(err)
			}
			got[i], errs[i] = sourceBy(t, tx, bs, q.params, probe)
			_ = tx.Rollback()
		}
		if got[0] == nil && errs[0] == nil {
			continue // no probe-able join in this statement
		}
		compared++
		if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
			t.Errorf("%s: hash join err = %v, probe err = %v", q.sql, errs[0], errs[1])
		} else if !reflect.DeepEqual(got[0], got[1]) {
			t.Errorf("%s:\nhash join %v\n    probe %v", q.sql, got[0], got[1])
		}
	}
	if compared < 15 {
		t.Errorf("only %d statements had a probe-able join; the corpus or the eligibility rule changed", compared)
	}
}

// probeFixture builds orders-and-items: an inner table large enough against a
// three-row outer side that the run-time rule probes.
func probeFixture(t *testing.T) *Engine {
	t.Helper()
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE item (i_id INT PRIMARY KEY, i_title TEXT, i_stock INT)")
	mustExec(t, e, "CREATE TABLE order_line (ol_id INT PRIMARY KEY, ol_o_id INT, ol_i_id INT, ol_qty INT)")
	mustExec(t, e, "CREATE INDEX ol_order ON order_line (ol_o_id)")
	for i := 0; i < 100; i++ {
		mustExec(t, e, "INSERT INTO item VALUES (?, ?, 10)", NewInt(int64(i)), NewText(fmt.Sprintf("title %d", i)))
	}
	mustExec(t, e, "INSERT INTO order_line VALUES (1, 7, 42, 2), (2, 7, 999, 1), (3, 7, NULL, 5), (4, 8, 3, 1)")
	return e
}

func TestProbeJoinEndToEnd(t *testing.T) {
	e := probeFixture(t)
	const inner = "SELECT ol.ol_qty, i.i_title FROM order_line ol JOIN item i ON ol.ol_i_id = i.i_id WHERE ol.ol_o_id = ? ORDER BY ol.ol_id"
	const left = "SELECT ol.ol_qty, i.i_title FROM order_line ol LEFT JOIN item i ON ol.ol_i_id = i.i_id WHERE ol.ol_o_id = ? ORDER BY ol.ol_id"

	res := mustExec(t, e, "EXPLAIN "+inner, NewInt(7))
	if got := res.Rows[1][1].Str; got != "pk-probe" {
		t.Errorf("EXPLAIN names the join %q, want pk-probe:\n%s", got, ExplainString(res))
	}
	// A filter on the joined table gives its read a path of its own.
	res = mustExec(t, e, "EXPLAIN SELECT ol.ol_qty FROM order_line ol JOIN item i ON ol.ol_i_id = i.i_id WHERE i.i_stock > 5")
	if got := res.Rows[1][1].Str; got != "hash-join" {
		t.Errorf("EXPLAIN names the filtered join %q, want hash-join", got)
	}

	want := func(sql string, rows ...string) {
		t.Helper()
		res := mustExec(t, e, sql, NewInt(7))
		var got []string
		for _, r := range res.Rows {
			got = append(got, r.String())
		}
		if !reflect.DeepEqual(got, rows) {
			t.Errorf("%s:\n got %v\nwant %v", sql, got, rows)
		}
	}
	// Order line 2 names a missing item, order line 3 no item at all.
	want(inner, "(2, 'title 42')")
	want(left, "(2, 'title 42')", "(1, NULL)", "(5, NULL)")

	// The probe holds no table lock on item: while the reader's transaction is
	// open, a writer updates a row the reader did not touch, and commits.
	reader, err := e.Begin("app")
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Rollback()
	if res, err := reader.Exec(inner, NewInt(7)); err != nil || len(res.Rows) != 1 {
		t.Fatalf("reader: %v, %v", res, err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.Exec("app", "UPDATE item SET i_stock = i_stock - 1 WHERE i_id = 3")
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("concurrent update of item: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("an UPDATE of one item row blocked behind a probe join's reader: the join locked the table")
	}
	// The row it did read is locked, as by a point SELECT.
	blocked := make(chan error, 1)
	go func() {
		_, err := e.Exec("app", "UPDATE item SET i_stock = 0 WHERE i_id = 42")
		blocked <- err
	}()
	select {
	case err := <-blocked:
		t.Fatalf("update of the joined row did not wait for the reader (err = %v)", err)
	case <-timeAfter50ms():
	}
	_ = reader.Rollback()
	if err := <-blocked; err != nil {
		t.Fatalf("update after the reader finished: %v", err)
	}

	// Joining most of the table's worth of rows falls back to the hash join,
	// with the same rows.
	for i := 10; i < 60; i++ {
		mustExec(t, e, "INSERT INTO order_line VALUES (?, 9, ?, 1)", NewInt(int64(i)), NewInt(int64(i)))
	}
	res = mustExec(t, e, "SELECT COUNT(*), MIN(i.i_title) FROM order_line ol JOIN item i ON ol.ol_i_id = i.i_id WHERE ol.ol_o_id = 9")
	if res.Rows[0][0].Int != 50 || res.Rows[0][1].Str != "title 10" {
		t.Errorf("50-row join = %v", res.Rows)
	}
}
