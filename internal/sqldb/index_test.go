package sqldb

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestCreateIndexBesideOpenWriter runs CREATE INDEX on a 10 000-row table
// while another transaction holds an uncommitted UPDATE of it. The build
// takes the writers' IX lock, so it does not wait for the writer: the index
// installs with the writer's row under its new key, the writer's rollback
// moves it back, and every list then equals a fresh build's.
func TestCreateIndexBesideOpenWriter(t *testing.T) {
	const rows = 10000
	e := newTestDB(t)
	fillPages(t, e, "app", "t", rows)
	w, err := e.Begin("app")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Exec("UPDATE t SET v = ? WHERE id = ?", NewInt(-1), NewInt(17)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	mustExec(t, e, "CREATE INDEX t_v ON t (v)")
	t.Logf("CREATE INDEX over %d rows beside an open writer: %v", rows, time.Since(start))
	written := "v/" + keyOf(NewInt(-1))
	if lists, _ := indexLists(t, e); !reflect.DeepEqual(lists[written], []string{"17"}) {
		t.Fatalf("the writer's key -1 lists %v, want its row 17", lists[written])
	}
	if err := w.Rollback(); err != nil {
		t.Fatal(err)
	}
	if lists, _ := indexLists(t, e); lists[written] != nil {
		t.Fatalf("the rolled-back key -1 lists %v", lists[written])
	}
	if got, want := sortedLists(t, e), freshLists(t, e); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the rollback the lists differ from a fresh build's")
	}
}

// TestUniqueBuildRefusesConcurrentRepeat builds a unique index while a
// writer that ran beside the build repeats a key: the repeat reaches the
// build only through its edit log, and the install, which waits for the
// writer's transaction, finds it there. The CREATE INDEX fails with the
// build's ErrDuplicateKey and leaves no index, and the table takes the
// index once the repeat is gone.
func TestUniqueBuildRefusesConcurrentRepeat(t *testing.T) {
	e := newTestDB(t)
	fillPages(t, e, "app", "t", 2000)
	tbl, err := tableOf(e, "app", "t")
	if err != nil {
		t.Fatal(err)
	}
	w, err := e.Begin("app")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Exec("INSERT INTO t VALUES (5000, 5000, 'fresh')"); err != nil {
		t.Fatal(err)
	}
	built := make(chan error, 1)
	go func() {
		_, err := e.Exec("app", "CREATE UNIQUE INDEX t_v ON t (v)")
		built <- err
	}()
	for deadline, registered := time.Now().Add(5*time.Second), false; !registered; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("CREATE UNIQUE INDEX did not register its index beside the open writer")
		}
		tbl.mu.Lock()
		registered = tbl.indexes["v"] != nil
		tbl.mu.Unlock()
	}
	if _, err := w.Exec("INSERT INTO t VALUES (5001, 7, 'repeat')"); err != nil {
		t.Fatalf("an insert beside the build: %v", err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%v: duplicate value 7 building unique index t_v", ErrDuplicateKey)
	if err := <-built; !errors.Is(err, ErrDuplicateKey) || err.Error() != want {
		t.Fatalf("CREATE UNIQUE INDEX: %v, want %q", err, want)
	}
	if tbl.hasIndex("v") || !e.IndexesBuilt("app") {
		t.Fatal("the failed build left an index on v")
	}
	mustExec(t, e, "DELETE FROM t WHERE id = 5001")
	mustExec(t, e, "CREATE UNIQUE INDEX t_v ON t (v)")
}

// TestUniqueIndexRefusesLaterRepeats: a unique index built by CREATE UNIQUE
// INDEX refuses an INSERT, and an UPDATE, that repeats a key another row
// holds; an UPDATE that keeps a row's own key is not a repeat.
func TestUniqueIndexRefusesLaterRepeats(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, u INT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 10), (2, 20)")
	mustExec(t, e, "CREATE UNIQUE INDEX t_u ON t (u)")
	if _, err := e.Exec("app", "INSERT INTO t VALUES (3, 10)"); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("INSERT repeating u = 10: %v, want ErrDuplicateKey", err)
	}
	if _, err := e.Exec("app", "UPDATE t SET u = 20 WHERE id = 1"); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("UPDATE repeating u = 20: %v, want ErrDuplicateKey", err)
	}
	mustExec(t, e, "UPDATE t SET u = 20 WHERE id = 2")
	mustExec(t, e, "UPDATE t SET u = 30 WHERE id = 1")
	mustExec(t, e, "INSERT INTO t VALUES (3, 10)")
	if got := fmt.Sprint(mustExec(t, e, "SELECT id, u FROM t ORDER BY id").Rows); got != "[(1, 30) (2, 20) (3, 10)]" {
		t.Fatalf("t holds %s", got)
	}
}

// TestUniqueNullNeverRepeats: NULL repeats nothing, as in SQL, so a unique
// column takes a second NULL — probed by a scan without an index, read from a
// unique index with one — and CREATE UNIQUE INDEX, like a restore's build,
// accepts a column holding two, while a repeated value is still refused.
func TestUniqueNullNeverRepeats(t *testing.T) {
	for _, ddl := range [][]string{
		{"CREATE TABLE t (id INT PRIMARY KEY, u INT UNIQUE)"},
		{"CREATE TABLE t (id INT PRIMARY KEY, u INT)", "CREATE UNIQUE INDEX t_u ON t (u)"},
	} {
		e := newTestDB(t)
		for _, sql := range ddl {
			mustExec(t, e, sql)
		}
		mustExec(t, e, "INSERT INTO t VALUES (1, NULL), (2, 7)")
		mustExec(t, e, "INSERT INTO t VALUES (3, NULL)")
		mustExec(t, e, "UPDATE t SET u = NULL WHERE id = 2")
		if _, err := e.Exec("app", "INSERT INTO t VALUES (4, 8), (5, 8)"); !errors.Is(err, ErrDuplicateKey) {
			t.Fatalf("%s: INSERT repeating u = 8: %v, want ErrDuplicateKey", ddl[len(ddl)-1], err)
		}
		if got := fmt.Sprint(mustExec(t, e, "SELECT id FROM t WHERE u IS NULL ORDER BY id").Rows); got != "[(1) (2) (3)]" {
			t.Fatalf("%s: rows with u NULL: %s", ddl[len(ddl)-1], got)
		}
	}
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, u INT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, NULL), (2, NULL), (3, 7)")
	img := dumpAll(t, e)[0]
	mustExec(t, e, "CREATE UNIQUE INDEX t_u ON t (u)")
	img.Indexes = append(img.Indexes, IndexDef{Name: "t_u", Col: "u", Unique: true})
	if err := restoreAndBuild(newTestDB(t), img); err != nil {
		t.Fatalf("restoring a unique index over two NULLs: %v", err)
	}
	mustExec(t, e, "INSERT INTO t VALUES (4, NULL)")
	if _, err := e.Exec("app", "INSERT INTO t VALUES (5, 7)"); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("INSERT repeating u = 7 through the index: %v, want ErrDuplicateKey", err)
	}
}

// TestUniqueColumnRefusesUpdateRepeat: an UPDATE that sets a UNIQUE
// column to the value another row holds is refused, as an INSERT is; one
// that keeps the row's own value is not.
func TestUniqueColumnRefusesUpdateRepeat(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, name TEXT UNIQUE)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 'ann'), (2, 'bo')")
	if _, err := e.Exec("app", "UPDATE t SET name = 'bo' WHERE id = 1"); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("UPDATE repeating name 'bo': %v, want ErrDuplicateKey", err)
	}
	mustExec(t, e, "UPDATE t SET name = 'bo' WHERE id = 2")
	if got := fmt.Sprint(mustExec(t, e, "SELECT id, name FROM t ORDER BY id").Rows); got != "[(1, 'ann') (2, 'bo')]" {
		t.Fatalf("t holds %s", got)
	}
}

// TestPlanBoundBeforeUniqueIndexProbes binds an INSERT and an UPDATE
// before CREATE UNIQUE INDEX and runs them after it: neither plan knew of
// the index, and neither may skip its probe.
func TestPlanBoundBeforeUniqueIndexProbes(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, u INT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 10), (2, 20)")
	d, err := e.database("app")
	if err != nil {
		t.Fatal(err)
	}
	var plans []*stmtPlan
	var stmts []Statement
	for _, sql := range []string{"INSERT INTO t VALUES (3, 10)", "UPDATE t SET u = 20 WHERE id = 1"} {
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := bindStatement(d, stmt)
		if err != nil {
			t.Fatal(err)
		}
		stmts, plans = append(stmts, stmt), append(plans, plan)
	}
	mustExec(t, e, "CREATE UNIQUE INDEX t_u ON t (u)")
	for i, stmt := range stmts {
		tx, err := e.Begin("app")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.runBound(tx, stmt, plans[i], nil); !errors.Is(err, ErrDuplicateKey) {
			t.Fatalf("%T bound before the index: %v, want ErrDuplicateKey", stmt, err)
		}
		_ = tx.Rollback()
	}
}

// TestUniqueValueWaitsForUndo deletes the row holding a unique value in an
// open transaction and inserts the value again from another: the insert
// waits on the value's lock, and once the delete rolls back, the value is
// taken again and the insert is refused. Checked for a UNIQUE column (a scan
// probes it) and for a unique index.
func TestUniqueValueWaitsForUndo(t *testing.T) {
	for _, ddl := range [][]string{
		{"CREATE TABLE t (id INT PRIMARY KEY, u INT UNIQUE)"},
		{"CREATE TABLE t (id INT PRIMARY KEY, u INT)", "CREATE UNIQUE INDEX t_u ON t (u)"},
	} {
		e := newTestDB(t)
		for _, sql := range ddl {
			mustExec(t, e, sql)
		}
		mustExec(t, e, "INSERT INTO t VALUES (1, 5), (2, 6)")
		del, err := e.Begin("app")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := del.Exec("DELETE FROM t WHERE id = 1"); err != nil {
			t.Fatal(err)
		}
		inserted := make(chan error, 1)
		go func() {
			_, err := e.Exec("app", "INSERT INTO t VALUES (3, 5)")
			inserted <- err
		}()
		select {
		case err := <-inserted:
			t.Fatalf("%s: the insert of u = 5 returned %v while the delete was open; want it to wait", ddl[len(ddl)-1], err)
		case <-time.After(50 * time.Millisecond):
		}
		if err := del.Rollback(); err != nil {
			t.Fatal(err)
		}
		if err := <-inserted; !errors.Is(err, ErrDuplicateKey) {
			t.Fatalf("%s: the insert after the rollback: %v, want ErrDuplicateKey", ddl[len(ddl)-1], err)
		}
	}
}
