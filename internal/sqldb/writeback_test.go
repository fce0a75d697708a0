package sqldb

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// These tests cover the write-back buffer pool from the table's side: a row
// change on a sealed page lives only in the resident page until the page
// leaves the pool, so everything that reads a table some other way —
// dump, checkpoint, a reload after eviction, rollback — must still see it.

// fillPages creates table name (id INT PRIMARY KEY, v INT, s TEXT) holding
// rows 0..n-1 with v = id, in a transaction per page-full.
func fillPages(t testing.TB, e *Engine, db, name string, n int) {
	t.Helper()
	if _, err := e.Exec(db, "CREATE TABLE "+name+" (id INT PRIMARY KEY, v INT, s TEXT)"); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < n; lo += pageCapacity {
		tx, err := e.Begin(db)
		if err != nil {
			t.Fatal(err)
		}
		for id := lo; id < min(lo+pageCapacity, n); id++ {
			if _, err := tx.Exec("INSERT INTO "+name+" VALUES (?, ?, ?)", NewInt(int64(id)), NewInt(int64(id)), NewText(fmt.Sprintf("row %d", id))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// tableOf returns the named table of db, as the catalog holds it now.
func tableOf(e *Engine, db, name string) (*Table, error) {
	d, err := e.database(db)
	if err != nil {
		return nil, err
	}
	return d.table(name)
}

// scan invokes fn for every live row of the table, each a row of its own,
// until fn returns false.
func (t *Table) scan(fn func(rowID uint64, r Row) bool) {
	_ = t.scanWhere(new(arena), nil, fn) // only a predicate can fail
}

// tableSum returns SUM(v), COUNT(*) of db.name.
func tableSum(t testing.TB, e *Engine, db, name string) (sum, count int64) {
	t.Helper()
	res, err := e.Exec(db, "SELECT SUM(v), COUNT(*) FROM "+name)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows[0][0].Int, res.Rows[0][1].Int
}

// checkByteSize recomputes the table's encoded size from its rows.
func checkByteSize(t testing.TB, e *Engine, db, name string) {
	t.Helper()
	tbl, err := tableOf(e, db, name)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	tbl.scan(func(_ uint64, r Row) bool {
		want += int64(len(EncodeRow(nil, r)))
		return true
	})
	if got := tbl.ByteSize(); got != want {
		t.Errorf("%s.%s: ByteSize = %d, rows encode to %d", db, name, got, want)
	}
}

// TestDirtyPagesReachDumpAndCheckpoint changes rows of sealed pages in a pool
// large enough that nothing is ever evicted — so no change has been encoded —
// and checks that a dump and a checkpoint + crash + recovery both carry the
// new values.
func TestDirtyPagesReachDumpAndCheckpoint(t *testing.T) {
	e, store := newWALEngine(t)
	if err := e.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	const n = 4*pageCapacity + 10
	fillPages(t, e, "app", "a", n)
	mustExec(t, e, "UPDATE a SET v = v + 1000, s = 'changed' WHERE id = 70")
	mustExec(t, e, "UPDATE a SET v = 0 WHERE id = 200")
	mustExec(t, e, "DELETE FROM a WHERE id = 5")
	mustExec(t, e, "DELETE FROM a WHERE id = 130")
	if ev := e.Stats().Pool.Evictions; ev != 0 {
		t.Fatalf("pool evicted %d pages; the test needs every change to stay resident", ev)
	}
	wantSum := int64(n*(n-1)/2 + 1000 - 200 - 5 - 130)
	verify := func(what string, e *Engine) {
		t.Helper()
		if sum, count := tableSum(t, e, "app", "a"); sum != wantSum || count != n-2 {
			t.Errorf("%s: SUM(v), COUNT(*) = %d, %d; want %d, %d", what, sum, count, wantSum, n-2)
		}
		res := mustExec(t, e, "SELECT v, s FROM a WHERE id = 70")
		if len(res.Rows) != 1 || res.Rows[0][0].Int != 1070 || res.Rows[0][1].Str != "changed" {
			t.Errorf("%s: row 70 = %v", what, res.Rows)
		}
		if res := mustExec(t, e, "SELECT id FROM a WHERE id = 130"); len(res.Rows) != 0 {
			t.Errorf("%s: deleted row 130 is back", what)
		}
		checkByteSize(t, e, "app", "a")
	}
	verify("source", e)

	before := e.Stats().Pool.Writebacks
	target := newTestDB(t)
	for _, d := range dumpAll(t, e) {
		if err := target.RestoreTable("app", d); err != nil {
			t.Fatal(err)
		}
	}
	verify("dump", target)
	if got := e.Stats().Pool.Writebacks - before; got != 4 {
		t.Errorf("the dump wrote back %d pages, want the table's 4 sealed pages (sealed dirty, then changed)", got)
	}

	// The checkpoint images the table through the same cold scan; the crash
	// then loses the pool, and recovery has only the log.
	mustExec(t, e, "UPDATE a SET s = 'again' WHERE id = 71")
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	store.Crash(0)
	rec, stats := recoverEngine(t, store)
	if stats.CheckpointLSN < 0 {
		t.Fatal("recovery did not use the checkpoint")
	}
	verify("checkpoint + recovery", rec)
	if res := mustExec(t, rec, "SELECT s FROM a WHERE id = 71"); res.Rows[0][0].Str != "again" {
		t.Errorf("row 71 after recovery = %v", res.Rows)
	}
}

// TestCrossTableEvictionStress writes two tables alternately from two
// goroutines through a one-page pool: every page access of one table evicts —
// and, the pages being dirty, encodes — a page of the other, under the stripe
// mutex and while the other goroutine may hold that table's latch. A third
// goroutine point-reads and scans table a the whole time, decoding the slots
// of a's resident pages under a's latch while b's writer evicts and encodes
// those same pages under the stripe mutex alone. It must not deadlock (nor, under
// -race, race), and afterwards every row reads back and the byte-size
// accounting is exact.
func TestCrossTableEvictionStress(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PoolPages = 1
	e := NewEngine(cfg)
	if err := e.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	const rows = 3*pageCapacity + 7
	const stmts = 5000 // per goroutine
	tables := []string{"a", "b"}
	for _, name := range tables {
		fillPages(t, e, "app", name, rows)
	}
	var wg, reader sync.WaitGroup
	writersDone := make(chan struct{})
	reader.Add(1)
	go func() {
		defer reader.Done()
		for i := 0; ; i++ {
			select {
			case <-writersDone:
				return
			default:
			}
			var err error
			if i%8 == 0 {
				_, err = e.Exec("app", "SELECT COUNT(*) FROM a WHERE v >= 0")
			} else {
				_, err = e.Exec("app", "SELECT v, s FROM a WHERE id = ?", NewInt(int64(i*13%rows)))
			}
			if err != nil {
				t.Errorf("reader statement %d: %v", i, err)
				return
			}
		}
	}()
	for g, name := range tables {
		wg.Add(1)
		go func(g int, name string) {
			defer wg.Done()
			for i := 0; i < stmts; i++ {
				id := NewInt(int64((i*37 + g) % rows))
				var err error
				switch i % 5 {
				case 0: // delete and re-insert: the row moves to the tail
					if _, err = e.Exec("app", "DELETE FROM "+name+" WHERE id = ?", id); err == nil {
						_, err = e.Exec("app", "INSERT INTO "+name+" VALUES (?, ?, 'back')", id, id)
					}
				case 1:
					_, err = e.Exec("app", "SELECT v FROM "+tables[1-g]+" WHERE id = ?", id)
				default:
					_, err = e.Exec("app", "UPDATE "+name+" SET v = v + 1, s = 'x' WHERE id = ?", id)
				}
				if err != nil {
					t.Errorf("%s statement %d: %v", name, i, err)
					return
				}
			}
		}(g, name)
	}
	wg.Wait()
	close(writersDone)
	reader.Wait()
	for _, name := range tables {
		if _, count := tableSum(t, e, "app", name); count != rows {
			t.Errorf("%s: %d rows, want %d", name, count, rows)
		}
		for id := 0; id < rows; id++ {
			res := mustExec(t, e, "SELECT id FROM "+name+" WHERE id = ?", NewInt(int64(id)))
			if len(res.Rows) != 1 || res.Rows[0][0].Int != int64(id) {
				t.Fatalf("%s: row %d reads back as %v", name, id, res.Rows)
			}
		}
		checkByteSize(t, e, "app", name)
	}
	st := e.Stats().Pool
	if st.Writebacks == 0 || st.Writebacks > st.Evictions {
		t.Errorf("pool stats %+v: want some writebacks, none without an eviction", st)
	}
	if held := e.Stats().LocksHeld; held != 0 {
		t.Errorf("locks held = %d", held)
	}
}

// TestReaderOutlivesEntryReuse holds a page that Get returned under its
// table's latch while misses on another table evict it and reuse its pool
// entry for their own pages: what the reader holds must read the same before
// and after, whether the page was read from its image or has slots of its own
// since an edit made under the same latch between reads. Run under -race.
func TestReaderOutlivesEntryReuse(t *testing.T) {
	p := NewBufferPool(2, 0)
	rows := make([]rowSlot, pageCapacity)
	for i := range rows {
		rows[i] = rowSlot{uint64(i + 1), Row{NewInt(int64(i + 1)), NewInt(0)}}
	}
	held, heldKey := sealedWith(rows...), PageKey{Table: 1, Page: 0}
	others := make([]*sealedPage, 4)
	for i := range others {
		others[i] = sealedWith(rowSlot{1, Row{NewInt(int64(i))}})
	}
	var latch sync.Mutex // table 1's latch
	stop := make(chan struct{})
	var evictor sync.WaitGroup
	evictor.Add(1)
	go func() { // table 2's misses: every Get evicts, and reuses an entry
		defer evictor.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := p.Get(PageKey{Table: 2, Page: uint32(i % len(others))}, others[i%len(others)]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	read := func(pg residentPage) string {
		var b []byte
		vals := make(Row, 2)
		for i := range pg.len() {
			s := pg.slot(i)
			if err := decodeLeading(s.enc, vals); err != nil || s.rowID != uint64(i+1) || vals[0].Int != int64(i+1) {
				t.Fatalf("slot %d: row %d %v, %v", i, s.rowID, vals, err)
			}
			b = fmt.Appendf(b, "%d ", vals[1].Int)
		}
		return string(b)
	}
	for round := 0; round < 200; round++ {
		latch.Lock()
		if round%3 == 2 { // an edit gives the page slots of its own
			enc := encodeRowString(Row{NewInt(int64(round%pageCapacity + 1)), NewInt(int64(round))})
			if err := p.Update(heldKey, held, func(pg *residentPage) { pg.slots[round%pageCapacity].enc = enc }); err != nil {
				t.Fatal(err)
			}
		}
		pg, err := p.Get(heldKey, held)
		if err != nil {
			t.Fatal(err)
		}
		before, evicted := read(pg), p.Stats().Evictions
		for p.Stats().Evictions < evicted+2*uint64(p.Len()) { // the held page's entry has been reused
			runtime.Gosched()
		}
		if after := read(pg); after != before {
			t.Fatalf("round %d: the held page changed under its latch:\n%s\n%s", round, before, after)
		}
		latch.Unlock()
	}
	close(stop)
	evictor.Wait()
}

// TestLockCandidatesPageOrder reads, under row locks, index candidates that
// alternate between two pages, in key order, through a one-page pool. The
// candidates' keys come from the index, and the rows are fetched once their
// locks are held, in key order: each candidate costs the one miss it costs
// read row by row, not the two it would cost if each key were read from its
// page before any row.
func TestLockCandidatesPageOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PoolPages = 1
	e := NewEngine(cfg)
	if err := e.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "CREATE TABLE a (id INT PRIMARY KEY, v INT, s TEXT)")
	var order []int // page 0 holds the even keys below 128, page 1 the odd ones, page 2 the rest
	for id := 0; id < 2*pageCapacity; id += 2 {
		order = append(order, id)
	}
	for id := 1; id < 2*pageCapacity; id += 2 {
		order = append(order, id)
	}
	for id := 2 * pageCapacity; id < 3*pageCapacity; id++ {
		order = append(order, id)
	}
	for _, id := range order {
		mustExec(t, e, "INSERT INTO a VALUES (?, ?, 'x')", NewInt(int64(id)), NewInt(int64(id)))
	}
	mustExec(t, e, "CREATE INDEX idx_v ON a (v)")
	ids := []int{0, 1, 2, 3, 4, 5} // pages 0, 1, 0, 1, 0, 1
	for _, id := range ids {
		mustExec(t, e, "UPDATE a SET v = -7 WHERE id = ?", NewInt(int64(id)))
	}
	for sql, wantMisses := range map[string]uint64{
		"SELECT id FROM a WHERE v = -7":        uint64(len(ids)),
		"UPDATE a SET s = 'seen' WHERE v = -7": 2 * uint64(len(ids)), // and one per row then changed
	} {
		mustExec(t, e, "SELECT id FROM a WHERE id = 150") // page 2 takes the pool's one slot
		before := e.Stats().Pool
		tx, err := e.Begin("app")
		if err != nil {
			t.Fatal(err)
		}
		res, err := tx.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(res.Rows) + res.Affected; got != len(ids) {
			t.Fatalf("%s: %d rows, want %d", sql, got, len(ids))
		}
		after := e.Stats().Pool
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if misses := after.Misses - before.Misses; misses != wantMisses {
			t.Errorf("%s: %d misses for %d candidates on alternating pages, want %d", sql, misses, len(ids), wantMisses)
		}
	}
}

// TestRollbackAcrossEviction rolls back an update and a delete whose pages
// were evicted (written back dirty) and reloaded in between: undo must
// restore the committed image whether it finds the page resident or not.
func TestRollbackAcrossEviction(t *testing.T) {
	for _, poolPages := range []int{1, 0, 256} {
		t.Run(fmt.Sprintf("pool=%d", poolPages), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.PoolPages = poolPages
			e := NewEngine(cfg)
			if err := e.CreateDatabase("app"); err != nil {
				t.Fatal(err)
			}
			const n = 3 * pageCapacity
			fillPages(t, e, "app", "a", n)
			wantSum, _ := tableSum(t, e, "app", "a")

			tx, err := e.Begin("app")
			if err != nil {
				t.Fatal(err)
			}
			for _, sql := range []string{
				"UPDATE a SET v = -1, s = 'dirty' WHERE id = 3",
				"DELETE FROM a WHERE id = 4",
				"UPDATE a SET v = -1 WHERE id = 100", // another page: evicts the first from a one-page pool
				"DELETE FROM a WHERE id = 170",
				"UPDATE a SET v = -2 WHERE id = 3", // reloads page 0
			} {
				if _, err := tx.Exec(sql); err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
			}
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
			if sum, count := tableSum(t, e, "app", "a"); sum != wantSum || count != n {
				t.Errorf("after rollback: SUM(v), COUNT(*) = %d, %d; want %d, %d", sum, count, wantSum, n)
			}
			res := mustExec(t, e, "SELECT v, s FROM a WHERE id = 3")
			if len(res.Rows) != 1 || res.Rows[0][0].Int != 3 || res.Rows[0][1].Str != "row 3" {
				t.Errorf("row 3 after rollback = %v", res.Rows)
			}
			checkByteSize(t, e, "app", "a")
			// The restored image also survives leaving the pool once more.
			var dumped int64
			for _, d := range dumpAll(t, e) {
				for _, r := range dumpRows(t, d) {
					dumped += r[1].Int
				}
			}
			if dumped != wantSum {
				t.Errorf("dump after rollback sums to %d, want %d", dumped, wantSum)
			}
		})
	}
}

// TestDropAndReplaceWithDirtyPages drops, and replaces by restore, tables
// whose changed pages are still resident: the pool must let go of them, and a
// table re-created under the same name must not see them.
func TestDropAndReplaceWithDirtyPages(t *testing.T) {
	e, store := newWALEngine(t)
	if err := e.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	fillPages(t, e, "app", "a", 2*pageCapacity)
	fillPages(t, e, "app", "b", 2*pageCapacity)
	mustExec(t, e, "UPDATE a SET v = 0 WHERE id < 100")
	mustExec(t, e, "UPDATE b SET v = 0 WHERE id < 100")
	image := dumpAll(t, e)[1] // b, as changed

	mustExec(t, e, "DROP TABLE a")
	fillPages(t, e, "app", "a", pageCapacity+1) // same name, same pool keys
	if sum, count := tableSum(t, e, "app", "a"); count != pageCapacity+1 || sum != pageCapacity*(pageCapacity+1)/2 {
		t.Errorf("re-created a: SUM(v), COUNT(*) = %d, %d", sum, count)
	}

	mustExec(t, e, "UPDATE b SET v = 5 WHERE id >= 100") // dirty again, then replaced
	if err := e.RestoreTable("app", image); err != nil {
		t.Fatal(err)
	}
	wantB := int64(0)
	for id := 100; id < 2*pageCapacity; id++ {
		wantB += int64(id)
	}
	if sum, count := tableSum(t, e, "app", "b"); count != 2*pageCapacity || sum != wantB {
		t.Errorf("restored b: SUM(v), COUNT(*) = %d, %d; want %d, %d", sum, count, wantB, 2*pageCapacity)
	}
	if n := e.Pool().Len(); n != 3 { // a's one sealed page, b's two
		t.Errorf("pool holds %d pages, want 3: dropped and replaced tables' pages must be gone", n)
	}

	store.Crash(0)
	rec, _ := recoverEngine(t, store)
	if sum, count := tableSum(t, rec, "app", "b"); count != 2*pageCapacity || sum != wantB {
		t.Errorf("recovered b: SUM(v), COUNT(*) = %d, %d; want %d, %d", sum, count, wantB, 2*pageCapacity)
	}
	if _, count := tableSum(t, rec, "app", "a"); count != pageCapacity+1 {
		t.Errorf("recovered a: %d rows", count)
	}
}

// checkRowViews checks that every way of reaching the rows of db.name, a
// fillPages table with an index on s, agrees: the rows scan visits (by row
// ID) and, in the same order, the decoded encodings the dump reads, a batch
// read and a point read of each by its primary key, and a lookup of each
// through the index on s. A key no row holds reads as absent.
func checkRowViews(t *testing.T, e *Engine, db, name string, wantRows int) {
	t.Helper()
	tbl, err := tableOf(e, db, name)
	if err != nil {
		t.Fatal(err)
	}
	hot, rows := map[uint64]string{}, map[uint64]Row{}
	var scanned []string
	tbl.scan(func(id uint64, r Row) bool {
		hot[id], rows[id] = fmt.Sprint(r), r
		scanned = append(scanned, hot[id])
		return true
	})
	var cold []string
	for _, r := range dumpRows(t, copyTable(tbl)) {
		cold = append(cold, fmt.Sprint(r))
	}
	if len(hot) != wantRows || fmt.Sprint(scanned) != fmt.Sprint(cold) {
		t.Fatalf("scan found %d rows, the dump %d, want %d (equal: %v)", len(hot), len(cold), wantRows, fmt.Sprint(scanned) == fmt.Sprint(cold))
	}
	for id, want := range hot {
		pk, s := rows[id][0], rows[id][2]
		var ids []uint64
		got := tbl.getRowsBatch([]string{keyOf(pk)}, new(arena), &ids)
		if len(got) != 1 || fmt.Sprint(got[0]) != want || ids[0] != id {
			t.Fatalf("row %d: batch read of %v found rows %v %v, scan %s", id, pk, ids, got, want)
		}
		r, pid, ok := tbl.readPKRow(keyOf(pk), new(arena))
		if !ok || pid != id || fmt.Sprint(r) != want {
			t.Fatalf("row %d: point read of %v found row %d %v (%v), scan %s", id, pk, pid, r, ok, want)
		}
		if keys := tbl.lookupIndex("s", s, "", false, -1); len(keys) != 1 || keys[0] != keyOf(pk) {
			t.Fatalf("row %d: index lookup of %v found %q", id, s, keys)
		}
	}
	for _, pk := range []Value{NewInt(-1), NewInt(1 << 40)} {
		if got := tbl.getRowsBatch([]string{keyOf(pk)}, new(arena), nil); len(got) != 0 {
			t.Fatalf("no row has key %v, read %v", pk, got)
		}
	}
}

// TestRowDirectoryCases moves rows between page slots every way the engine
// does — a delete shifting the slots behind it, an undo re-inserting into the
// tail, an insert sealing the tail, a restore loading a fresh table — and
// checks after each that every reader finds the rows where they are.
func TestRowDirectoryCases(t *testing.T) {
	const n = 2*pageCapacity + 5 // two sealed pages and a five-row tail
	cases := []struct {
		name  string
		stmts []string // run in one transaction, then rolled back
		mid   int      // rows before the rollback
	}{
		{"rolled-back tail delete", []string{fmt.Sprintf("DELETE FROM a WHERE id = %d", 2*pageCapacity+1)}, n - 1},
		{"rolled-back sealed delete", []string{"DELETE FROM a WHERE id = 3", "DELETE FROM a WHERE id = 70"}, n - 2},
		{"rolled-back inserts across a seal", []string{
			"INSERT INTO a VALUES (1000, 0, 'x1000')", "INSERT INTO a VALUES (1001, 0, 'x1001')",
			"INSERT INTO a VALUES (1002, 0, 'x1002')", "INSERT INTO a VALUES (1003, 0, 'x1003')",
		}, n + 4},
	}
	for _, poolPages := range []int{1, 256} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/pool=%d", c.name, poolPages), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.PoolPages = poolPages
				e := NewEngine(cfg)
				if err := e.CreateDatabase("app"); err != nil {
					t.Fatal(err)
				}
				fillPages(t, e, "app", "a", n)
				mustExec(t, e, "CREATE INDEX a_s ON a (s)")
				checkRowViews(t, e, "app", "a", n)
				tx, err := e.Begin("app")
				if err != nil {
					t.Fatal(err)
				}
				for _, sql := range c.stmts {
					if _, err := tx.Exec(sql); err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
				}
				checkRowViews(t, e, "app", "a", c.mid)
				if err := tx.Rollback(); err != nil {
					t.Fatal(err)
				}
				checkRowViews(t, e, "app", "a", n)
			})
		}
	}
	t.Run("insert across a seal and restore", func(t *testing.T) {
		e := newTestDB(t)
		fillPages(t, e, "app", "a", pageCapacity-2)
		mustExec(t, e, "CREATE INDEX a_s ON a (s)")
		for id := 1000; id < 1004; id++ {
			mustExec(t, e, "INSERT INTO a VALUES (?, 0, ?)", NewInt(int64(id)), NewText(fmt.Sprint("x", id)))
		}
		checkRowViews(t, e, "app", "a", pageCapacity+2)
		mustExec(t, e, "DELETE FROM a WHERE id = 5")
		for _, d := range dumpAll(t, e) {
			if err := restoreAndBuild(e, d); err != nil {
				t.Fatal(err)
			}
		}
		checkRowViews(t, e, "app", "a", pageCapacity+1)
	})
}
