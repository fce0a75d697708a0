package sqldb

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"sdp/internal/twopc"
)

func setupAccounts(t *testing.T, e *Engine) {
	t.Helper()
	mustExec(t, e, "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
	mustExec(t, e, "INSERT INTO acct VALUES (1, 100), (2, 100)")
}

func TestTxnCommitVisible(t *testing.T) {
	e := newTestDB(t)
	setupAccounts(t, e)
	tx, err := e.Begin("app")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("UPDATE acct SET bal = bal - 10 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("UPDATE acct SET bal = bal + 10 WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, e, "SELECT bal FROM acct WHERE id = 1")
	if res.Rows[0][0].Int != 90 {
		t.Errorf("bal = %v", res.Rows[0][0])
	}
}

func TestTxnRollbackUndoesEverything(t *testing.T) {
	e := newTestDB(t)
	setupAccounts(t, e)
	tx, _ := e.Begin("app")
	if _, err := tx.Exec("UPDATE acct SET bal = 0 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO acct VALUES (3, 50)"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("DELETE FROM acct WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, e, "SELECT id, bal FROM acct ORDER BY id")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][1].Int != 100 || res.Rows[1][1].Int != 100 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestTxnStateErrors(t *testing.T) {
	e := newTestDB(t)
	setupAccounts(t, e)
	tx, _ := e.Begin("app")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("SELECT 1"); !errors.Is(err, ErrTxnDone) {
		t.Errorf("exec after commit: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Errorf("double commit: %v", err)
	}
	if err := tx.Rollback(); !errors.Is(err, ErrTxnDone) {
		t.Errorf("rollback after commit: %v", err)
	}

	tx2, _ := e.Begin("app")
	if err := tx2.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Rollback(); err != nil {
		t.Errorf("idempotent rollback: %v", err)
	}
	if _, err := tx2.Exec("SELECT 1"); !errors.Is(err, ErrTxnAborted) {
		t.Errorf("exec after rollback: %v", err)
	}
}

func TestTxnWriteBlocksWrite(t *testing.T) {
	e := newTestDB(t)
	setupAccounts(t, e)
	tx1, _ := e.Begin("app")
	if _, err := tx1.Exec("UPDATE acct SET bal = 1 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		tx2, _ := e.Begin("app")
		_, err := tx2.Exec("UPDATE acct SET bal = 2 WHERE id = 1")
		if err == nil {
			err = tx2.Commit()
		}
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("second writer did not block (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("second writer failed after unblock: %v", err)
	}
	res := mustExec(t, e, "SELECT bal FROM acct WHERE id = 1")
	if res.Rows[0][0].Int != 2 {
		t.Errorf("bal = %v", res.Rows[0][0])
	}
}

func TestTxnReadDoesNotBlockRead(t *testing.T) {
	e := newTestDB(t)
	setupAccounts(t, e)
	tx1, _ := e.Begin("app")
	if _, err := tx1.Exec("SELECT bal FROM acct WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	tx2, _ := e.Begin("app")
	done := make(chan error, 1)
	go func() {
		_, err := tx2.Exec("SELECT bal FROM acct WHERE id = 1")
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("concurrent read failed: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("read blocked on read lock")
	}
	_ = tx1.Rollback()
	_ = tx2.Rollback()
}

func TestDeadlockDetected(t *testing.T) {
	e := newTestDB(t)
	setupAccounts(t, e)

	tx1, _ := e.Begin("app")
	tx2, _ := e.Begin("app")
	if _, err := tx1.Exec("UPDATE acct SET bal = 1 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Exec("UPDATE acct SET bal = 2 WHERE id = 2"); err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, err := tx1.Exec("UPDATE acct SET bal = 1 WHERE id = 2")
		errs <- err
	}()
	go func() {
		defer wg.Done()
		_, err := tx2.Exec("UPDATE acct SET bal = 2 WHERE id = 1")
		errs <- err
	}()
	wg.Wait()
	close(errs)

	var deadlocks, ok int
	for err := range errs {
		switch {
		case errors.Is(err, ErrDeadlock):
			deadlocks++
		case err == nil:
			ok++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if deadlocks < 1 {
		t.Fatalf("no deadlock detected (deadlocks=%d ok=%d)", deadlocks, ok)
	}
	if got := e.Stats().Deadlocks; got < 1 {
		t.Errorf("stats deadlocks = %d", got)
	}
	// The victim is rolled back: its earlier update must be undone.
	_ = tx1.Rollback()
	_ = tx2.Rollback()
	res := mustExec(t, e, "SELECT bal FROM acct ORDER BY id")
	for _, r := range res.Rows {
		if r[0].Int != 100 {
			t.Errorf("bal = %v after both rolled back", r[0])
		}
	}
}

func TestLockTimeout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LockTimeout = 30 * time.Millisecond
	e := NewEngine(cfg)
	if err := e.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY)")
	mustExec(t, e, "INSERT INTO t VALUES (1)")

	tx1, _ := e.Begin("app")
	if _, err := tx1.Exec("UPDATE t SET id = 1 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	tx2, _ := e.Begin("app")
	_, err := tx2.Exec("UPDATE t SET id = 1 WHERE id = 1")
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("err = %v, want ErrLockTimeout", err)
	}
	_ = tx1.Rollback()
}

func TestPrepareBlocksFurtherOps(t *testing.T) {
	e := newTestDB(t)
	setupAccounts(t, e)
	tx, _ := e.Begin("app")
	if _, err := tx.Exec("UPDATE acct SET bal = 7 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Prepare(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("SELECT 1"); !errors.Is(err, ErrTxnPrepared) {
		t.Errorf("exec after prepare: %v", err)
	}
	if err := tx.Prepare(); err != nil {
		t.Errorf("idempotent prepare: %v", err)
	}
	if err := tx.CommitPrepared(); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, e, "SELECT bal FROM acct WHERE id = 1")
	if res.Rows[0][0].Int != 7 {
		t.Errorf("bal = %v", res.Rows[0][0])
	}
}

func TestCommitPreparedRequiresPrepare(t *testing.T) {
	e := newTestDB(t)
	setupAccounts(t, e)
	tx, _ := e.Begin("app")
	if err := tx.CommitPrepared(); !errors.Is(err, ErrNotPrepared) {
		t.Errorf("err = %v", err)
	}
	_ = tx.Rollback()
}

func TestPreparedRollback(t *testing.T) {
	e := newTestDB(t)
	setupAccounts(t, e)
	tx, _ := e.Begin("app")
	if _, err := tx.Exec("UPDATE acct SET bal = 7 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Prepare(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, e, "SELECT bal FROM acct WHERE id = 1")
	if res.Rows[0][0].Int != 100 {
		t.Errorf("bal = %v", res.Rows[0][0])
	}
}

// TestPrepareReleasesReadLocks verifies the 2PC optimisation at the core of
// the paper's Table 1: with ReleaseReadLocksAtPrepare on, a writer can
// acquire an X lock on an object that a prepared transaction merely read;
// with the optimisation off, the writer stays blocked until commit.
func TestPrepareReleasesReadLocks(t *testing.T) {
	run := func(release bool) bool {
		cfg := DefaultConfig()
		cfg.ReleaseReadLocksAtPrepare = release
		cfg.LockTimeout = 50 * time.Millisecond
		e := NewEngine(cfg)
		if err := e.CreateDatabase("app"); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Exec("app", "CREATE TABLE t (id INT PRIMARY KEY, n INT)"); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Exec("app", "INSERT INTO t VALUES (1, 0)"); err != nil {
			t.Fatal(err)
		}

		reader, _ := e.Begin("app")
		if _, err := reader.Exec("SELECT n FROM t WHERE id = 1"); err != nil {
			t.Fatal(err)
		}
		// Reader also writes something else so it is not read-only.
		if _, err := reader.Exec("INSERT INTO t VALUES (2, 0)"); err != nil {
			t.Fatal(err)
		}
		if err := reader.Prepare(); err != nil {
			t.Fatal(err)
		}

		writer, _ := e.Begin("app")
		_, err := writer.Exec("UPDATE t SET n = 1 WHERE id = 1")
		acquired := err == nil
		_ = writer.Rollback()
		_ = reader.Rollback()
		return acquired
	}
	if !run(true) {
		t.Error("with release-at-prepare, writer should acquire the lock")
	}
	if run(false) {
		t.Error("without release-at-prepare, writer should stay blocked")
	}
}

func TestConcurrentTransfersConserveMoney(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
	const nAcct = 8
	for i := 0; i < nAcct; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO acct VALUES (%d, 100)", i))
	}
	const workers = 8
	const transfers = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < transfers; i++ {
				from := (seed + i) % nAcct
				to := (seed + i*3 + 1) % nAcct
				if from == to {
					continue
				}
				tx, err := e.Begin("app")
				if err != nil {
					continue
				}
				_, err1 := tx.Exec("UPDATE acct SET bal = bal - 1 WHERE id = ?", NewInt(int64(from)))
				var err2 error
				if err1 == nil {
					_, err2 = tx.Exec("UPDATE acct SET bal = bal + 1 WHERE id = ?", NewInt(int64(to)))
				}
				if err1 != nil || err2 != nil {
					_ = tx.Rollback()
					continue
				}
				_ = tx.Commit()
			}
		}(w)
	}
	wg.Wait()
	res := mustExec(t, e, "SELECT SUM(bal) FROM acct")
	if res.Rows[0][0].Int != nAcct*100 {
		t.Errorf("total = %v, want %d (money not conserved)", res.Rows[0][0], nAcct*100)
	}
}

func TestEngineClose(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY)")
	e.Close()
	if _, err := e.Begin("app"); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("Begin after close: %v", err)
	}
	if err := e.CreateDatabase("other"); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("CreateDatabase after close: %v", err)
	}
}

func TestBeginUnknownDatabase(t *testing.T) {
	e := NewEngine(DefaultConfig())
	if _, err := e.Begin("nope"); !errors.Is(err, ErrNoTable) {
		t.Errorf("err = %v", err)
	}
}

func TestStatsCounters(t *testing.T) {
	e := newTestDB(t)
	setupAccounts(t, e)
	tx, _ := e.Begin("app")
	_, _ = tx.Exec("UPDATE acct SET bal = 1 WHERE id = 1")
	_ = tx.Commit()
	tx2, _ := e.Begin("app")
	_, _ = tx2.Exec("UPDATE acct SET bal = 1 WHERE id = 1")
	_ = tx2.Rollback()
	s := e.Stats()
	if s.Commits < 1 || s.Aborts < 1 {
		t.Errorf("stats = %+v", s)
	}
}

// TestDroppedDatabaseAbortsOpenTxn pins the one rule for a database that
// vanishes under an open transaction (a replica shrunk away, an aborted copy
// discarding its destination): whichever statement meets it — bound from a
// cached plan, bound fresh, DML or DDL — fails as a retryable abort and the
// branch is rolled back, while an unknown table in a live database stays
// ErrNoTable and leaves the transaction usable.
func TestDroppedDatabaseAbortsOpenTxn(t *testing.T) {
	for _, c := range []struct {
		name   string
		warm   string // run (and so cached) before the drop, in the same txn
		second string // runs after the drop
	}{
		{"before first statement", "", "SELECT v FROM t WHERE id = 1"},
		{"between two statements", "SELECT v FROM t WHERE id = 1", "SELECT v FROM t WHERE id = 1"},
		{"write after read", "SELECT v FROM t WHERE id = 1", "UPDATE t SET v = 'z' WHERE id = 1"},
		{"insert", "", "INSERT INTO t VALUES (9, 'n')"},
		{"join", "", "SELECT a.v FROM t a JOIN t b ON a.id = b.id"},
		{"ddl", "", "CREATE TABLE u (id INT PRIMARY KEY)"},
		{"explain", "", "EXPLAIN SELECT v FROM t WHERE id = 1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := newTestDB(t)
			defer e.Close()
			mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
			mustExec(t, e, "INSERT INTO t VALUES (1, 'a')")
			mustExec(t, e, "SELECT v FROM t WHERE id = 1") // plan is cached

			tx, err := e.Begin("app")
			if err != nil {
				t.Fatal(err)
			}
			if c.warm != "" {
				if _, err := tx.Exec(c.warm); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := tx.Exec("SELECT v FROM nosuch"); !errors.Is(err, ErrNoTable) {
				t.Fatalf("unknown table in a live database: err = %v, want ErrNoTable", err)
			}
			if tx.state != twopc.Active {
				t.Fatalf("unknown table aborted the transaction: state %v", tx.state)
			}
			if err := e.DropDatabase("app"); err != nil {
				t.Fatal(err)
			}
			_, err = tx.Exec(c.second)
			if !errors.Is(err, ErrTxnAborted) || errors.Is(err, ErrNoTable) {
				t.Fatalf("statement on a dropped database: err = %v, want ErrTxnAborted", err)
			}
			if tx.state != twopc.Aborted {
				t.Errorf("state after the abort = %v, want aborted", tx.state)
			}
			if held := e.Stats().LocksHeld; held != 0 {
				t.Errorf("%d locks still held after the abort", held)
			}
		})
	}
}

// TestDroppedDatabaseRace drops the database while a transaction is between
// the start and the table resolution of a statement: however the drop
// interleaves, the statement never reports a missing table.
func TestDroppedDatabaseRace(t *testing.T) {
	e := NewEngine(DefaultConfig())
	defer e.Close()
	for i := 0; i < 300; i++ {
		if err := e.CreateDatabase("app"); err != nil {
			t.Fatal(err)
		}
		mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
		mustExec(t, e, "INSERT INTO t VALUES (1, 'a')")
		tx, err := e.Begin("app")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		running := make(chan struct{})
		go func() {
			for n := 0; ; n++ {
				if _, err := tx.Exec("UPDATE t SET v = 'b' WHERE id = 1"); err != nil {
					done <- err
					return
				}
				if n == 0 {
					close(running)
				}
			}
		}()
		<-running
		if err := e.DropDatabase("app"); err != nil {
			t.Fatal(err)
		}
		if err := <-done; !errors.Is(err, ErrTxnAborted) {
			t.Fatalf("iteration %d: err = %v, want ErrTxnAborted", i, err)
		}
	}
}

// TestRestoreKeepsReadsRepeatable reads a row, replaces its table by
// RestoreTable with an image holding another value, lets a second
// transaction update the row and commit, and reads the row again in the
// first transaction: the second read repeats the first, or the first
// transaction was rolled back by the restore and reads ErrTxnAborted.
func TestRestoreKeepsReadsRepeatable(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 'a')")
	img := dumpAll(t, e)[0]
	img.Rows = encodeRows(Row{NewInt(1), NewText("restored")})
	const q = "SELECT v FROM t WHERE id = 1"

	tx, err := e.Begin("app")
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	res, err := tx.Exec(q)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("first read: %v, %v", res, err)
	}
	first := res.Rows[0][0].Str
	if err := e.RestoreTable("app", img); err != nil {
		t.Fatal(err)
	}
	updated := make(chan error, 1)
	go func() {
		_, err := e.Exec("app", "UPDATE t SET v = 'b' WHERE id = 1")
		updated <- err
	}()
	select {
	case err := <-updated:
		if updated <- err; err != nil {
			t.Fatalf("update after the restore: %v", err)
		}
	case <-time.After(time.Second): // waits for the reader: no harm done
	}
	res, err = tx.Exec(q)
	switch {
	case err == ErrTxnAborted:
	case err != nil:
		t.Fatalf("second read: %v", err)
	case len(res.Rows) != 1 || res.Rows[0][0].Str != first:
		t.Errorf("second read = %v, first read %q", res.Rows, first)
	}
	_ = tx.Rollback()
	<-updated
}

// TestRestoreNeverShowsPartialTable counts a table's rows from several
// readers while RestoreTable replaces it, again and again, with an image of
// as many rows and sixteen indexes to build: a reader sees every row of one
// incarnation or the other, or was rolled back by the restore, never a table
// the restore is still building.
func TestRestoreNeverShowsPartialTable(t *testing.T) {
	e := newTestDB(t)
	const rows, cols = 2 * pageCapacity, 16
	var ddl, vals strings.Builder
	ddl.WriteString("CREATE TABLE t (id INT PRIMARY KEY")
	for c := 0; c < cols; c++ {
		fmt.Fprintf(&ddl, ", c%d INT", c)
		fmt.Fprintf(&vals, ", %d", c)
	}
	mustExec(t, e, ddl.String()+")")
	for c := 0; c < cols; c++ {
		mustExec(t, e, fmt.Sprintf("CREATE INDEX t_c%d ON t (c%d)", c, c))
	}
	for id := 0; id < rows; id++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO t VALUES (%d%s)", id, vals.String()))
	}
	img := dumpAll(t, e)[0]
	stop := make(chan struct{})
	errc := make(chan error, 4)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := e.Exec("app", "SELECT COUNT(*) FROM t")
				if err == ErrTxnAborted {
					continue
				}
				if err != nil || res.Rows[0][0].Int != rows {
					errc <- fmt.Errorf("COUNT(*) = %v, %v; want %d", res, err, rows)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if err := e.RestoreTable("app", img); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
