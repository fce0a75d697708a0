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

// A redo record is a write statement as it ran: the text Parse was given
// plus its parameters in the row encoding. Recovery executes that text with
// those parameters, so a value reaches the replayed row with the bits it was
// bound with, including values no SQL literal spells.

// negZero is IEEE −0.
var negZero = math.Copysign(0, -1)

// redoCases are DML statements with a parameter of every type: INT
// (negative, 2^53+1), FLOAT (0.1, 1e21, −0), TEXT (a quote, empty, a
// non-UTF-8 byte), NULL and BOOL.
var redoCases = []struct {
	sql    string
	params []Value
}{
	{
		sql: "INSERT INTO item (id, title, price, stock, live) VALUES (?, ?, ?, ?, ?), (?, ?, ?, ?, ?)",
		params: []Value{
			NewInt(-42), NewText("it's"), NewFloat(0.1), NewInt(1<<53 + 1), NewBool(true),
			NewInt(7), NewText(""), NewFloat(1e21), Null, NewBool(false),
		},
	},
	{
		sql:    "UPDATE item SET title = ?, price = ?, live = ?, stock = stock - 1 WHERE id = ? AND (stock IS NOT NULL OR title LIKE ?)",
		params: []Value{NewText("\xff"), NewFloat(negZero), Null, NewInt(1<<53 + 1), NewText("a%'_")},
	},
	{
		sql:    "DELETE FROM item WHERE id IN (?, ?, 3) OR price NOT BETWEEN ? AND ? OR NOT (stock > 0) OR title = 'x''y'",
		params: []Value{NewInt(-1), NewInt(1<<53 + 1), NewFloat(negZero), NewFloat(1e21)},
	},
}

// edgeValues are values SQL text cannot spell, or spells as another value:
// the literals NaN, Inf and -9223372036854775808 do not parse, and a
// formatted −0 reads back as +0.
var edgeValues = []Value{
	NewFloat(math.NaN()), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewFloat(negZero),
	NewInt(math.MinInt64), NewInt(math.MaxInt64), NewInt(1<<53 + 1),
}

// redoRoundTrip runs redoCases, and every edge value as a parameter of an
// INSERT, of an UPDATE's SET and WHERE and of a DELETE's WHERE, in tx.
func redoRoundTrip(t *testing.T, tx *Txn) {
	t.Helper()
	exec := func(sql string, params ...Value) {
		t.Helper()
		res, err := tx.Exec(sql, params...)
		if err != nil {
			t.Fatalf("%s %v: %v", sql, params, err)
		}
		if res.Affected == 0 {
			t.Fatalf("%s %v: no row written, so nothing logged", sql, params)
		}
	}
	exec("INSERT INTO item VALUES (9007199254740993, 'big', -2.25, 1, TRUE)")
	for _, c := range redoCases {
		exec(c.sql, c.params...)
	}
	for i, v := range edgeValues {
		col := "n"
		if v.Typ == TypeFloat {
			col = "f"
		}
		id := int64(10 * i)
		// Rows id and id+1 end holding v, set by INSERT and by UPDATE; v
		// picks rows id+2 and id+3 in a WHERE that can only match NULL.
		exec("INSERT INTO edge (id, "+col+") VALUES (?, ?), (?, NULL), (?, NULL), (?, NULL)",
			NewInt(id), v, NewInt(id+1), NewInt(id+2), NewInt(id+3))
		exec("UPDATE edge SET "+col+" = ? WHERE id = ?", v, NewInt(id+1))
		exec("UPDATE edge SET g = TRUE WHERE id = ? AND ("+col+" IS NULL OR "+col+" <> ?)", NewInt(id+2), v)
		exec("DELETE FROM edge WHERE id = ? AND ("+col+" IS NULL OR "+col+" <> ?)", NewInt(id+3), v)
	}
}

// sameCells reports whether two rows hold the same values, floats compared
// by their bits.
func sameCells(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Typ != y.Typ || x.Int != y.Int || x.Str != y.Str || x.Bool != y.Bool ||
			math.Float64bits(x.Float) != math.Float64bits(y.Float) {
			return false
		}
	}
	return true
}

// TestRedoValuesRoundTrip writes redoRoundTrip's statements through the log
// twice: in a committed transaction, and in a 2PC branch that prepares
// before the log is cut, comes back in doubt and is committed by
// ResolvePrepared. A fresh engine recovered from that log must hold every
// cell of the source, bit for bit.
func TestRedoValuesRoundTrip(t *testing.T) {
	src, s := newWALEngine(t)
	for _, db := range []string{"done", "doubt"} {
		if err := src.CreateDatabase(db); err != nil {
			t.Fatal(err)
		}
		crashExec(t, src, db, "CREATE TABLE item (id INT PRIMARY KEY, title TEXT, price FLOAT, stock INT, live BOOL)")
		crashExec(t, src, db, "CREATE TABLE edge (id INT PRIMARY KEY, f FLOAT, n INT, g BOOL)")
	}
	tx, err := src.Begin("done")
	if err != nil {
		t.Fatal(err)
	}
	redoRoundTrip(t, tx)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	const gid = 77
	branch, err := src.BeginWithID("doubt", gid)
	if err != nil {
		t.Fatal(err)
	}
	redoRoundTrip(t, branch)
	if err := branch.Prepare(); err != nil {
		t.Fatal(err)
	}
	// The cut: the log as a crash right after PREPARE left it. The source
	// then commits its branch, as the resolver will decide.
	logged, _ := s.Contents()
	cut := wal.NewMemStore()
	if _, err := cut.Append(logged); err != nil {
		t.Fatal(err)
	}
	if err := branch.CommitPrepared(); err != nil {
		t.Fatal(err)
	}

	mid, stats := recoverEngine(t, cut)
	if stats.InDoubt != 1 {
		t.Fatalf("recovery re-instated %d branches, want 1", stats.InDoubt)
	}
	if err := mid.ResolvePrepared(gid, true); err != nil {
		t.Fatal(err)
	}
	got, _ := recoverEngine(t, cut)
	for _, db := range []string{"done", "doubt"} {
		for _, table := range []string{"item", "edge"} {
			q := "SELECT * FROM " + table + " ORDER BY id"
			want, have := mustQuery(t, src, db, q), mustQuery(t, got, db, q)
			if len(want) != len(have) {
				t.Fatalf("%s.%s: %d rows recovered, want %d", db, table, len(have), len(want))
			}
			for i := range want {
				if !sameCells(want[i], have[i]) {
					t.Errorf("%s.%s row %d: recovered %v, want %v", db, table, i, have[i], want[i])
				}
			}
		}
	}
}

// mustQuery returns the rows of a query on e.
func mustQuery(t *testing.T, e *Engine, db, sql string) []Row {
	t.Helper()
	res, err := e.Exec(db, sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res.Rows
}

// redoLogPath holds the log redoWorkload writes: the committed form of a
// redo record and of a checkpoint.
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

// TestRedoLogFromBeforeReusedBuffers replays the committed log and checks the
// table it rebuilds; then it writes the same history again and checks the log
// is byte for byte the committed one, so a change to what the engine writes
// shows here.
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
