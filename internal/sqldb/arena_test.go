package sqldb

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// arenaFixture builds the tables the arena tests read: item, indexed on
// subject, and order_line, which joins item by its primary key.
func arenaFixture(t testing.TB) *Engine {
	t.Helper()
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE item (i_id INT PRIMARY KEY, i_title TEXT, i_subject TEXT, i_cost FLOAT)")
	mustExec(t, e, "CREATE INDEX item_subject ON item (i_subject)")
	mustExec(t, e, "CREATE TABLE order_line (ol_id INT PRIMARY KEY, ol_o_id INT, ol_i_id INT, ol_qty INT)")
	mustExec(t, e, "CREATE INDEX ol_order ON order_line (ol_o_id)")
	for i := 1; i <= 40; i++ {
		mustExec(t, e, "INSERT INTO item VALUES (?, ?, ?, ?)",
			NewInt(int64(i)), NewText(fmt.Sprintf("title %02d", i)), NewText([]string{"ART", "HISTORY", "SCIENCE"}[i%3]), NewFloat(float64(i)/4))
		mustExec(t, e, "INSERT INTO order_line VALUES (?, ?, ?, ?)", NewInt(int64(i)), NewInt(int64(i%5)), NewInt(int64(41-i)), NewInt(int64(i)))
	}
	return e
}

// arenaReads are one statement of each way a SELECT reads its source: a point
// read, an index read, an ordered read (the ordered stop), a scan, a join,
// and an ORDER BY on a column the output does not hold.
// Each has a second parameter that reads other rows.
var arenaReads = []struct {
	sql          string
	param, other Value
}{
	{"SELECT i_title, i_cost FROM item WHERE i_id = ?", NewInt(7), NewInt(8)},
	{"SELECT i_id, i_title FROM item WHERE i_subject = ? ORDER BY i_title LIMIT 20", NewText("ART"), NewText("HISTORY")},
	{"SELECT ol_id, ol_qty FROM order_line WHERE ol_o_id = ? ORDER BY ol_id DESC LIMIT 3", NewInt(2), NewInt(4)},
	{"SELECT i_id, i_title FROM item WHERE i_title LIKE ? LIMIT 10", NewText("%1%"), NewText("%2%")},
	{"SELECT ol.ol_qty, i.i_title FROM order_line ol JOIN item i ON ol.ol_i_id = i.i_id WHERE ol.ol_o_id = ?", NewInt(3), NewInt(1)},
	{"SELECT i_title FROM item WHERE i_subject = ? ORDER BY i_cost DESC", NewText("SCIENCE"), NewText("ART")},
}

// TestResultOutlivesArena checks the arena's one rule: a Result never
// aliases it. The result of each kind of read stays as it was after the same
// transaction ran every other kind, after the transaction ended, and after
// later transactions took its recycled arena and read into it. A statement
// on the finished transaction fails with ErrTxnDone and leaves the arena, now
// another transaction's, as it was.
func TestResultOutlivesArena(t *testing.T) {
	e := arenaFixture(t)
	tx, err := e.Begin("app")
	if err != nil {
		t.Fatal(err)
	}
	var results []*Result
	var want []string
	check := func(when string) {
		t.Helper()
		for i, res := range results {
			if got := fmt.Sprint(res.Rows); got != want[i] {
				t.Fatalf("%s: %q returned %s, reads %s now", when, arenaReads[i].sql, want[i], got)
			}
		}
	}
	for _, q := range arenaReads {
		res, err := tx.Exec(q.sql, q.param)
		if err != nil {
			t.Fatalf("%s: %v", q.sql, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%s: no rows; the check needs some", q.sql)
		}
		results, want = append(results, res), append(want, fmt.Sprint(res.Rows))
		for _, other := range arenaReads { // each kind of read, into the same arena
			if _, err := tx.Exec(other.sql, other.other); err != nil {
				t.Fatal(err)
			}
			check("after " + other.sql)
		}
	}
	recycled := tx.vals
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	check("after the commit")

	// A later transaction takes the arena back from the engine (the pool may
	// hand it any arena: this one is given to it) and reads into it.
	later, err := e.Begin("app")
	if err != nil {
		t.Fatal(err)
	}
	defer later.Rollback()
	later.vals = recycled
	for _, q := range arenaReads {
		if _, err := later.Exec(q.sql, q.other); err != nil {
			t.Fatal(err)
		}
	}
	if later.vals != recycled || len(recycled.vals) == 0 {
		t.Fatal("the later transaction did not read into the recycled arena")
	}
	check("after a later transaction")

	inUse := fmt.Sprint(recycled.vals)
	if _, err := tx.Exec(arenaReads[1].sql, arenaReads[1].param); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("a statement on a committed transaction: %v, want ErrTxnDone", err)
	}
	if tx.vals != nil || fmt.Sprint(recycled.vals) != inUse {
		t.Fatal("a statement on a committed transaction touched the arena it gave back")
	}
	check("after all")
}

// TestResultRowsAreCapped checks that each row of a Result ends where the
// next begins: appending to one moves it, leaving the next row, and the
// hidden ORDER BY key a row carried while it was sorted, untouched.
func TestResultRowsAreCapped(t *testing.T) {
	e := arenaFixture(t)
	for _, q := range arenaReads {
		res := mustExec(t, e, q.sql, q.param)
		want := fmt.Sprint(res.Rows)
		for i, r := range res.Rows {
			if cap(r) != len(res.Cols) || len(r) != len(res.Cols) {
				t.Fatalf("%s: row %d has length %d, capacity %d, for %d columns", q.sql, i, len(r), cap(r), len(res.Cols))
			}
			_ = append(r, NewInt(-1), NewText("appended"))
		}
		if got := fmt.Sprint(res.Rows); got != want {
			t.Fatalf("%s: %s after appending to each row, %s before", q.sql, got, want)
		}
	}
}

// TestArenaResultsConcurrent runs transactions on several goroutines at
// once, each keeping the results of its earlier transactions and checking
// them after every later one: the arenas the engine recycles pass from
// transaction to transaction and goroutine to goroutine while the results
// stay put (run under -race, a shared arena is also a data race).
func TestArenaResultsConcurrent(t *testing.T) {
	e := arenaFixture(t)
	want := make([]string, len(arenaReads))
	for i, q := range arenaReads {
		want[i] = fmt.Sprint(mustExec(t, e, q.sql, q.param).Rows)
	}
	const workers, rounds = 4, 60
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var kept []*Result
			var keptWant []string
			for round := range rounds {
				tx, err := e.Begin("app")
				if err != nil {
					errs <- err
					return
				}
				for i := range arenaReads {
					q := arenaReads[(i+w+round)%len(arenaReads)]
					res, err := tx.Exec(q.sql, q.param)
					if err != nil {
						_ = tx.Rollback()
						errs <- err
						return
					}
					if round%7 == i {
						kept, keptWant = append(kept, res), append(keptWant, want[(i+w+round)%len(arenaReads)])
					}
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
				for i, res := range kept {
					if got := fmt.Sprint(res.Rows); got != keptWant[i] {
						errs <- fmt.Errorf("round %d: a kept result reads %s, was %s", round, got, keptWant[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestIndexReadAllocsFlat is the read and result path's allocation budget
// for an index read ordered by another column: the same number of objects
// over 8 candidates as over 64 — the index's postings, the output slab, its
// row list and the Result — for the rows are decoded into the transaction's
// arena and sorted as views of the slab. The statement runs in one
// transaction, whose locks the first run takes: a transaction's list of the
// locks it holds grows with their number.
func TestIndexReadAllocsFlat(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE c (id INT PRIMARY KEY, k INT, other TEXT)")
	mustExec(t, e, "CREATE INDEX c_k ON c (k)")
	for i := range 8 + 64 { // 8 rows hold k = 8, 64 k = 64
		k := 8 + 56*min(i/8, 1)
		mustExec(t, e, "INSERT INTO c VALUES (?, ?, ?)", NewInt(int64(1000+i)), NewInt(int64(k)), NewText(fmt.Sprintf("o%03d", (i*37)%72)))
	}
	stmt, err := Parse("SELECT id, other FROM c WHERE k = ? ORDER BY other LIMIT 20")
	if err != nil {
		t.Fatal(err)
	}
	allocs := map[int64]float64{}
	for _, k := range []int64{8, 64} {
		tx, err := e.Begin("app")
		if err != nil {
			t.Fatal(err)
		}
		var res *Result
		params := []Value{NewInt(k)}
		run := func() {
			if res, err = tx.ExecStmt(stmt, params...); err != nil {
				t.Fatal(err)
			}
		}
		for range 10 {
			run()
		}
		allocs[k] = testing.AllocsPerRun(200, run)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if want := min(int(k), 20); len(res.Rows) != want {
			t.Fatalf("k = %d: %d rows, want %d", k, len(res.Rows), want)
		}
		for i := 1; i < len(res.Rows); i++ {
			if res.Rows[i-1][1].Str > res.Rows[i][1].Str {
				t.Fatalf("k = %d: rows out of order: %v", k, res.Rows)
			}
		}
	}
	if allocs[8] != allocs[64] || allocs[8] > 4 {
		t.Fatalf("an index read allocates %.1f objects over 8 candidates, %.1f over 64; want the same, at most 4", allocs[8], allocs[64])
	}
}
