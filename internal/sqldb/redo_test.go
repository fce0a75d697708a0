package sqldb

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdp/internal/wal"
)

// A redo record is a write statement rendered back to SQL with its parameters
// as literals; recovery parses it again. The texts below were captured from
// the renderer that built statements in a strings.Builder out of
// Value.String(), before AppendStmt rendered into a caller's buffer: a log
// written by either one replays under the other.

// negZero is IEEE −0, which FormatFloat renders with its sign.
var negZero = math.Copysign(0, -1)

// redoCases are DML statements with a parameter of every type: INT
// (negative, 2^53+1), FLOAT (0.1, 1e21, −0), TEXT (a quote, empty, a
// non-UTF-8 byte), NULL and BOOL.
var redoCases = []struct {
	sql    string
	params []Value
	want   string
}{
	{
		sql: "INSERT INTO item (id, title, price, stock, live) VALUES (?, ?, ?, ?, ?), (?, ?, ?, ?, ?)",
		params: []Value{
			NewInt(-42), NewText("it's"), NewFloat(0.1), NewInt(1<<53 + 1), NewBool(true),
			NewInt(7), NewText(""), NewFloat(1e21), Null, NewBool(false),
		},
		want: "INSERT INTO item (id, title, price, stock, live) VALUES (-42, 'it''s', 0.1, 9007199254740993, TRUE), (7, '', 1e+21, NULL, FALSE)",
	},
	{
		sql:    "UPDATE item SET title = ?, price = ?, live = ?, stock = stock - 1 WHERE id = ? AND (stock IS NOT NULL OR title LIKE ?)",
		params: []Value{NewText("\xff"), NewFloat(negZero), Null, NewInt(1<<53 + 1), NewText("a%'_")},
		want:   "UPDATE item SET title = '\xff', price = -0, live = NULL, stock = (stock - 1) WHERE ((id = 9007199254740993) AND ((stock IS NOT NULL) OR (title LIKE 'a%''_')))",
	},
	{
		sql:    "DELETE FROM item WHERE id IN (?, ?, 3) OR price NOT BETWEEN ? AND ? OR NOT (stock > 0) OR title = 'x''y'",
		params: []Value{NewInt(-1), NewInt(1<<53 + 1), NewFloat(negZero), NewFloat(1e21)},
		want:   "DELETE FROM item WHERE ((((id IN (-1, 9007199254740993, 3)) OR (price NOT BETWEEN -0 AND 1e+21)) OR (NOT (stock > 0))) OR (title = 'x''y'))",
	},
}

func TestRedoRecordText(t *testing.T) {
	for _, c := range redoCases {
		stmt, err := Parse(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		got, err := RenderStmt(stmt, c.params)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if got != c.want {
			t.Errorf("%s:\n got %q\nwant %q", c.sql, got, c.want)
		}
		// AppendStmt appends after whatever the buffer holds.
		buf, err := AppendStmt([]byte("prefix:"), stmt, c.params)
		if err != nil || string(buf) != "prefix:"+c.want {
			t.Errorf("AppendStmt(%s) = %q, %v", c.sql, buf, err)
		}
	}
}

// redoLogPath holds the log redoWorkload wrote before records were rendered
// and framed into reused buffers.
var redoLogPath = filepath.Join("testdata", "redo_parent.log")

// redoLogContents is what recovering redoLogPath must rebuild, one row per
// line in primary-key order.
const redoLogContents = `(-42, 'it''s', 0.1, 9007199254740993, TRUE)
(1, 'o''ne', 1.5, 15, TRUE)
(2, 'two', 2.5, 20, FALSE)
(4, 'four', 4.5, NULL, FALSE)
(5, 'five', 5.5, 50, TRUE)
(7, '', 1e+21, NULL, FALSE)
`

// redoWorkload writes a small deterministic history through e's log: DDL, a
// secondary index, committed, rolled-back and unfinished transactions with
// parameters of every type, and a checkpoint with statements on both sides
// of it.
func redoWorkload(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.CreateDatabase("shop"); err != nil {
		t.Fatal(err)
	}
	crashExec(t, e, "shop", "CREATE TABLE item (id INT PRIMARY KEY, title TEXT, price FLOAT, stock INT, live BOOL)")
	crashExec(t, e, "shop", "CREATE INDEX item_title ON item (title)")
	exec := func(tx *Txn, sql string, params ...Value) {
		t.Helper()
		if _, err := tx.Exec(sql, params...); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	begin := func() *Txn {
		t.Helper()
		tx, err := e.Begin("shop")
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}
	commit := func(tx *Txn) {
		t.Helper()
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	tx := begin()
	exec(tx, redoCases[0].sql, redoCases[0].params...)
	exec(tx, "INSERT INTO item VALUES (1, 'one', 1.5, 10, TRUE), (2, 'two', 2.5, 20, FALSE), (3, 'three', 3.5, 30, TRUE)")
	commit(tx)
	tx = begin()
	exec(tx, "UPDATE item SET stock = stock + 5, title = 'o''ne' WHERE id = 1")
	commit(tx)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx = begin()
	exec(tx, "DELETE FROM item WHERE id = 1")
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	tx = begin()
	exec(tx, "INSERT INTO item VALUES (9007199254740993, 'big', -2.25, 1, TRUE)")
	exec(tx, redoCases[1].sql, redoCases[1].params...)
	commit(tx)
	tx = begin()
	exec(tx, "INSERT INTO item VALUES (4, 'four', 4.5, NULL, FALSE), (5, 'five', 5.5, 50, TRUE)")
	exec(tx, redoCases[2].sql, redoCases[2].params...)
	commit(tx)
	exec(begin(), "UPDATE item SET title = 'unfinished' WHERE id = 2")
}

// tableText renders every row of shop.item, one per line in key order.
func tableText(t *testing.T, e *Engine) string {
	t.Helper()
	res, err := e.Exec("shop", "SELECT id, title, price, stock, live FROM item ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range res.Rows {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestRedoLogFromBeforeReusedBuffers replays a log written before records
// were framed into reused buffers and checks the table it rebuilds; then it
// writes the same history again and checks the log is byte for byte the
// committed one.
func TestRedoLogFromBeforeReusedBuffers(t *testing.T) {
	old, err := os.ReadFile(redoLogPath)
	if err != nil {
		t.Fatal(err)
	}
	s := wal.NewMemStore()
	if _, err := s.Append(old); err != nil {
		t.Fatal(err)
	}
	e, stats := recoverEngine(t, s)
	if stats.TornTail || stats.CheckpointLSN < 0 {
		t.Fatalf("recovery stats %+v: want a complete checkpoint and no torn tail", stats)
	}
	if got := tableText(t, e); got != redoLogContents {
		t.Fatalf("recovered shop.item:\n%s\nwant:\n%s", got, redoLogContents)
	}

	e2, s2 := newWALEngine(t)
	redoWorkload(t, e2)
	now, _ := s2.Contents()
	if !bytes.Equal(now, old) {
		recs, _, _ := wal.Scan(now)
		was, _, _ := wal.Scan(old)
		for i := range min(len(recs), len(was)) {
			if recs[i].LSN != was[i].LSN || recs[i].Type != was[i].Type || !bytes.Equal(recs[i].Data, was[i].Data) {
				t.Fatalf("frame %d differs:\n got %+v\nwant %+v", i, recs[i], was[i])
			}
		}
		t.Fatalf("log is %d bytes in %d frames, want %d in %d", len(now), len(recs), len(old), len(was))
	}
}
