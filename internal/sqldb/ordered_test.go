package sqldb

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestOrderedStopMatchesScan is the ordered stop's differential check. A
// table with a primary key and one without, each with an index on k and an
// unindexed twin kt, take random inserts, deletes, primary-key updates and
// updates of k, over few enough k values that they repeat, NULL among them
// (and among the values the queries ask for: = NULL holds for no row).
// After each step every index must list each key's rows, and only those, in
// ascending identity order; and, on the table with a primary key,
// "WHERE k = ? ORDER BY id [DESC] LIMIT n [OFFSET m]" — which stops at
// LIMIT + OFFSET rows — must return what the same query on kt, a scan,
// returns, as must the statements the stop does not apply to: a residual
// filter, a computed projection, DISTINCT.
func TestOrderedStopMatchesScan(t *testing.T) {
	for _, pk := range []bool{true, false} {
		t.Run(fmt.Sprintf("pk=%v", pk), func(t *testing.T) {
			runOrderedStop(t, pk)
		})
	}
}

func runOrderedStop(t *testing.T, pk bool) {
	rng := rand.New(rand.NewSource(53))
	e := newTestDB(t)
	key := ""
	if pk {
		key = " PRIMARY KEY"
	}
	mustExec(t, e, "CREATE TABLE o (id INT"+key+", k INT, kt INT, v INT)")
	mustExec(t, e, "CREATE INDEX o_k ON o (k)")
	tbl, err := tableOf(e, "app", "o")
	if err != nil {
		t.Fatal(err)
	}
	kv := func() Value {
		if rng.Intn(6) == 0 {
			return Null
		}
		return NewInt(int64(rng.Intn(4)))
	}
	live := map[int64]bool{}
	pick := func() (int64, bool) {
		ids := make([]int64, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		if len(ids) == 0 {
			return 0, false
		}
		slices.Sort(ids)
		return ids[rng.Intn(len(ids))], true
	}
	fresh := func() (int64, bool) {
		id := int64(rng.Intn(200))
		return id, !live[id]
	}
	rendered := func(sql string, params ...Value) string {
		return fmt.Sprint(mustExec(t, e, sql, params...).Rows)
	}
	query := func(step int) {
		k := NewInt(int64(rng.Intn(5)))
		if rng.Intn(6) == 0 {
			k = Null
		}
		dir := ""
		if rng.Intn(2) == 0 {
			dir = " DESC"
		}
		limit := fmt.Sprintf(" LIMIT %d", 1+rng.Intn(4))
		if rng.Intn(2) == 0 {
			limit += fmt.Sprintf(" OFFSET %d", rng.Intn(4))
		}
		for _, q := range []struct {
			sql  string
			stop bool
		}{
			{"SELECT id, v FROM o WHERE %s = ? ORDER BY id" + dir + limit, true},
			{"SELECT id AS x, v FROM o WHERE %s = ? ORDER BY x" + dir + limit, true},
			{"SELECT id, v FROM o WHERE %s = ? AND v >= 0 ORDER BY id" + dir + limit, false},
			{"SELECT id + 0, v FROM o WHERE %s = ? ORDER BY id" + dir + limit, false},
			{"SELECT DISTINCT v, id FROM o WHERE %s = ? ORDER BY id" + dir + limit, false},
		} {
			sql := fmt.Sprintf(q.sql, "k")
			if pk {
				detail := mustExec(t, e, "EXPLAIN "+sql, NewInt(1)).Rows[0][2].Str
				if stops := strings.Contains(detail, "first"); stops != q.stop {
					t.Fatalf("%s: EXPLAIN detail %q, want the stop: %v", sql, detail, q.stop)
				}
			}
			if got, want := rendered(sql, k), rendered(fmt.Sprintf(q.sql, "kt"), k); got != want {
				t.Fatalf("step %d: %s [k = %s]: %s, scan plan %s", step, sql, k, got, want)
			}
		}
	}

	for step := 0; step < 600; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			if id, ok := fresh(); ok {
				k := kv()
				mustExec(t, e, "INSERT INTO o VALUES (?, ?, ?, ?)", NewInt(id), k, k, NewInt(int64(rng.Intn(10)-3)))
				live[id] = true
			}
		case op < 5:
			if id, ok := pick(); ok {
				mustExec(t, e, "DELETE FROM o WHERE id = ?", NewInt(id))
				delete(live, id)
			}
		case op < 7:
			id, ok := pick()
			to, free := fresh()
			if ok && free {
				mustExec(t, e, "UPDATE o SET id = ? WHERE id = ?", NewInt(to), NewInt(id))
				delete(live, id)
				live[to] = true
			}
		case op < 8:
			if id, ok := pick(); ok {
				k := kv()
				mustExec(t, e, "UPDATE o SET k = ?, kt = ? WHERE id = ?", k, k, NewInt(id))
			}
		default:
			query(step)
		}
		checkPostings(t, tbl)
	}
}

// checkPostings checks that every index of tbl lists under each key exactly
// the identities of the live rows holding it, in ascending order.
func checkPostings(t *testing.T, tbl *Table) {
	t.Helper()
	for col, idx := range tbl.indexes {
		want := map[string][]string{}
		tbl.scan(func(id uint64, r Row) bool {
			k := keyOf(r[idx.col])
			want[k] = append(want[k], tbl.identity(r, id))
			return true
		})
		for _, ids := range want {
			slices.Sort(ids)
		}
		tbl.mu.Lock()
		got := fmt.Sprint(idx.m)
		tbl.mu.Unlock()
		if got != fmt.Sprint(want) {
			t.Fatalf("index on %s lists %s, its rows %s", col, got, fmt.Sprint(want))
		}
	}
}

// rowLocksHeld returns the keys of the row locks tx holds on tbl.
func rowLocksHeld(tx *Txn, tbl *Table) []string {
	lm := tx.engine.locks
	lm.mu.Lock()
	defer lm.mu.Unlock()
	var keys []string
	for _, e := range tx.locks {
		if e.id.Table == tbl.inc && e.id.Key != "" {
			keys = append(keys, e.id.Key)
		}
	}
	return keys
}

// TestOrderedStopTakesOneRow reads the last of a key's 100 rows, spread over
// four pages behind a one-page pool: the read locks one row and opens at most
// one page. LIMIT 2 OFFSET 1 locks three.
func TestOrderedStopTakesOneRow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PoolPages = 1
	e := NewEngine(cfg)
	if err := e.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "CREATE TABLE o (id INT PRIMARY KEY, k INT, v INT)")
	mustExec(t, e, "CREATE INDEX o_k ON o (k)")
	for id := 0; id < 4*pageCapacity; id++ {
		k := 7 // the even keys below 200
		if id%2 == 1 || id >= 200 {
			k = id
		}
		mustExec(t, e, "INSERT INTO o VALUES (?, ?, ?)", NewInt(int64(id)), NewInt(int64(k)), NewInt(int64(id)))
	}
	tbl, err := tableOf(e, "app", "o")
	if err != nil {
		t.Fatal(err)
	}
	for sql, want := range map[string][]int64{
		"SELECT id, v FROM o WHERE k = 7 ORDER BY id DESC LIMIT 1":   {198},
		"SELECT id FROM o WHERE k = 7 ORDER BY id LIMIT 2 OFFSET 1":  {2, 4},
		"SELECT id FROM o WHERE k = 7 ORDER BY o.id DESC LIMIT 1":    {198},
		"SELECT id AS n FROM o WHERE k = 7 ORDER BY n ASC LIMIT 1":   {0},
		"SELECT id, v FROM o WHERE k = 7 ORDER BY id DESC LIMIT 100": nil, // every one
	} {
		mustExec(t, e, "SELECT id FROM o WHERE id = 100") // page 1 takes the pool's one slot
		before := e.Stats().Pool.Misses
		tx, err := e.Begin("app")
		if err != nil {
			t.Fatal(err)
		}
		res, err := tx.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		misses, locks := e.Stats().Pool.Misses-before, rowLocksHeld(tx, tbl)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			if len(res.Rows) != 100 || len(locks) != 100 {
				t.Errorf("%s: %d rows under %d row locks, want 100", sql, len(res.Rows), len(locks))
			}
			continue
		}
		var got []int64
		for _, r := range res.Rows {
			got = append(got, r[0].Int)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: ids %v, want %v", sql, got, want)
		}
		offset := 0
		if strings.Contains(sql, "OFFSET 1") {
			offset = 1
		}
		if len(locks) != len(want)+offset || misses > 1 {
			t.Errorf("%s: %d row locks and %d pool misses, want %d and at most 1", sql, len(locks), misses, len(want)+offset)
		}
	}
}

// TestIndexEqualityWithNullFindsNoRow runs "k = ?" with a NULL parameter
// through k's index — an index equality, and the ordered stop — and against
// its unindexed twin kt, which the scan step reads: = NULL holds for no row,
// whichever plan reads, though two rows hold NULL. So does UPDATE's.
func TestIndexEqualityWithNullFindsNoRow(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE o (id INT PRIMARY KEY, k INT, kt INT, v INT)")
	mustExec(t, e, "CREATE INDEX o_k ON o (k)")
	mustExec(t, e, "INSERT INTO o VALUES (1, NULL, NULL, 0), (2, 5, 5, 0), (3, NULL, NULL, 0), (4, 5, 5, 0)")
	for _, q := range []struct{ sql, access string }{
		{"SELECT id FROM o WHERE %s = ?", "index"},
		{"SELECT id FROM o WHERE %s = ? ORDER BY id LIMIT 2", "index"},
		{"SELECT id FROM o WHERE %s = ? ORDER BY id DESC LIMIT 1", "index"},
		{"UPDATE o SET v = v + 1 WHERE %s = ?", "index"},
	} {
		indexed, twin := fmt.Sprintf(q.sql, "k"), fmt.Sprintf(q.sql, "kt")
		if plan := mustExec(t, e, "EXPLAIN "+indexed, Null).Rows[0][1].Str; plan != q.access {
			t.Fatalf("%s: access %q, want %q", indexed, plan, q.access)
		}
		for _, v := range []Value{Null, NewInt(5)} {
			got, want := mustExec(t, e, indexed, v), mustExec(t, e, twin, v)
			if fmt.Sprint(got.Rows, got.Affected) != fmt.Sprint(want.Rows, want.Affected) {
				t.Errorf("%s [%v]: %v (affected %d), the scan plan %v (affected %d)", indexed, v, got.Rows, got.Affected, want.Rows, want.Affected)
			}
			if v.IsNull() && (len(got.Rows) > 0 || got.Affected > 0) {
				t.Errorf("%s [NULL]: %v (affected %d), want no row", indexed, got.Rows, got.Affected)
			}
		}
	}
}

// TestLockCandidatesReadUnderLockedKey passes lockCandidates candidates taken
// from the index before a committed UPDATE moved one of their rows to another
// primary key: every row it returns is one whose key the reader holds locked,
// and the moved row, whose new key it never locked, is not among them.
func TestLockCandidatesReadUnderLockedKey(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE o (id INT PRIMARY KEY, k INT)")
	mustExec(t, e, "CREATE INDEX o_k ON o (k)")
	mustExec(t, e, "INSERT INTO o VALUES (1, 7), (2, 7), (3, 7)")
	tbl, err := tableOf(e, "app", "o")
	if err != nil {
		t.Fatal(err)
	}
	stale := tbl.lookupIndex("k", NewInt(7), "", false, -1)
	mustExec(t, e, "UPDATE o SET id = 10 WHERE id = 2")

	stmt, err := Parse("SELECT id FROM o WHERE k = 7")
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.database("app")
	if err != nil {
		t.Fatal(err)
	}
	bs, err := bindSelect(&stmtPlan{db: d}, stmt.(*SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	tx, err := e.Begin("app")
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	tx.vals = new(arena) // what a statement's start gives it
	if err := tx.lockInc(tbl, LockIS, false); err != nil {
		t.Fatal(err)
	}
	rows, _, err := bs.reads[0].lockCandidates(tx, tbl, tx.newEnv(nil), stale, &access{kind: pathIndexEq, eq: NewInt(7)})
	if err != nil {
		t.Fatal(err)
	}
	locked := rowLocksHeld(tx, tbl)
	var ids []int64
	for _, r := range rows {
		ids = append(ids, r[0].Int)
		if !slices.Contains(locked, keyOf(r[0])) {
			t.Errorf("row %v returned without a lock on its key (locked: %q)", r, locked)
		}
	}
	if !slices.Equal(ids, []int64{1, 3}) {
		t.Errorf("read rows %v, want 1 and 3: row 2 moved to key 10 before the read locked key 2", ids)
	}
}

// TestOrderedReadsBesideWriters runs ordered, stopping reads of one key
// beside writers that insert, update and delete its rows. A writer stores a
// row with v = -1 and sets v = 1 before it commits, and sets v = -1 before it
// deletes one, sometimes rolling back: a reader must only ever see v = 1, the
// key it asked for, and ids in the order it asked for. Deadlock victims and
// lock time-outs are retried.
func TestOrderedReadsBesideWriters(t *testing.T) {
	e := newTestDB(t)
	defer e.Close()
	mustExec(t, e, "CREATE TABLE o (id INT PRIMARY KEY, k INT, v INT)")
	mustExec(t, e, "CREATE INDEX o_k ON o (k)")
	for id := 0; id < 40; id++ {
		mustExec(t, e, "INSERT INTO o VALUES (?, ?, 1)", NewInt(int64(id)), NewInt(int64(id%2)))
	}
	const iters = 300
	var writers sync.WaitGroup
	var reads atomic.Uint64
	stop := make(chan struct{})
	write := func(rng *rand.Rand) error {
		tx, err := e.Begin("app")
		if err != nil {
			return err
		}
		id := NewInt(int64(rng.Intn(60)))
		stmts := []string{"INSERT INTO o VALUES (?, 1, -1)", "UPDATE o SET v = 1 WHERE id = ?"}
		if rng.Intn(2) == 0 {
			stmts = []string{"UPDATE o SET v = -1 WHERE id = ?", "DELETE FROM o WHERE id = ?"}
		}
		for _, sql := range stmts {
			if _, err := tx.Exec(sql, id); err != nil {
				_ = tx.Rollback()
				if strings.Contains(err.Error(), "duplicate") {
					return nil
				}
				return err
			}
		}
		if rng.Intn(4) == 0 {
			return tx.Rollback()
		}
		return tx.Commit()
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				if err := write(rng); err != nil && !isAbortError(err) {
					t.Errorf("writer: %v", err)
					return
				}
			}
		}(w)
	}
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(desc bool) {
			defer readers.Done()
			sql := "SELECT id, k, v FROM o WHERE k = 1 ORDER BY id LIMIT 3 OFFSET 1"
			if desc {
				sql = "SELECT id, k, v FROM o WHERE k = 1 ORDER BY id DESC LIMIT 2"
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := e.Begin("app")
				if err != nil {
					t.Errorf("reader begin: %v", err)
					return
				}
				res, err := tx.Exec(sql)
				_ = tx.Rollback()
				if err != nil {
					if isAbortError(err) {
						continue
					}
					t.Errorf("reader: %v", err)
					return
				}
				reads.Add(1)
				for i, row := range res.Rows {
					if row[1].Int != 1 || row[2].Int != 1 {
						t.Errorf("%s read %v: an uncommitted or unmatched row", sql, res.Rows)
						return
					}
					if i > 0 && (row[0].Int < res.Rows[i-1][0].Int) != desc {
						t.Errorf("%s read %v out of order", sql, res.Rows)
						return
					}
				}
			}
		}(r == 1)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	t.Logf("%d ordered reads beside %d writes", reads.Load(), 2*iters)
	if reads.Load() == 0 {
		t.Fatal("no read completed")
	}
}

// TestOrderedStopRereadsPastRejected has an ordered read wait for the lock
// on its first candidate, a row an open writer moved into the key and then
// rolls back out of it: the re-check rejects the row once the lock is
// granted, and the read goes on to the next posting, returning the rows it
// still needs.
func TestOrderedStopRereadsPastRejected(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE o (id INT PRIMARY KEY, k INT)")
	mustExec(t, e, "CREATE INDEX o_k ON o (k)")
	mustExec(t, e, "INSERT INTO o VALUES (1, 1), (2, 1), (3, 1), (9, 2)")
	tbl, err := tableOf(e, "app", "o")
	if err != nil {
		t.Fatal(err)
	}
	w, err := e.Begin("app")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Exec("UPDATE o SET k = 1 WHERE id = 9"); err != nil {
		t.Fatal(err)
	}
	type result struct {
		res *Result
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := e.Exec("app", "SELECT id FROM o WHERE k = 1 ORDER BY id DESC LIMIT 2")
		done <- result{res, err}
	}()
	for waiting := false; !waiting; { // the reader queues for row 9's lock
		e.locks.mu.Lock()
		l := e.locks.locks[lockID{Table: tbl.inc, Key: keyOf(NewInt(9))}]
		waiting = l != nil && len(l.queue) > 0
		e.locks.mu.Unlock()
		runtime.Gosched()
	}
	if err := w.Rollback(); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if got := fmt.Sprint(r.res.Rows); got != "[(3) (2)]" {
		t.Fatalf("read %s, want rows 3 and 2: row 9 left the key before the read held its lock", got)
	}
}
