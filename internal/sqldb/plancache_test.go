package sqldb

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// cachedStmt returns the statement the engine's text cache holds for sql,
// nil if it holds none.
func cachedStmt(e *Engine, sql string) Statement {
	e.stmts.mu.RLock()
	defer e.stmts.mu.RUnlock()
	if ent := e.stmts.entries[sql]; ent != nil {
		return ent.stmt
	}
	return nil
}

// cachedPlan fetches the current plan of the cached statement for (app, sql),
// failing the test if the statement is not cached or carries no current plan.
func cachedPlan(t *testing.T, e *Engine, sql string) *stmtPlan {
	t.Helper()
	stmt := cachedStmt(e, sql)
	if stmt == nil {
		t.Fatalf("statement %q is not cached", sql)
	}
	plan := plansOf(stmt).load(e, "app")
	if plan == nil {
		t.Fatalf("no current plan for %q", sql)
	}
	return plan
}

// explainAccessOf returns the access path EXPLAIN reports for a single-table
// statement.
func explainAccessOf(t *testing.T, e *Engine, sql string, params ...Value) string {
	t.Helper()
	return mustExec(t, e, "EXPLAIN "+sql, params...).Rows[0][1].Str
}

func TestPlanCacheHitCounter(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 'a'), (2, 'b')")

	base := e.Stats().PlanCache
	const q = "SELECT v FROM t WHERE id = ?"
	for i := 0; i < 5; i++ {
		mustExec(t, e, q, NewInt(int64(i%2+1)))
	}
	st := e.Stats().PlanCache
	if hits := st.Hits - base.Hits; hits != 3 {
		t.Errorf("hits = %d, want 3", hits)
	}
	if misses := st.Misses - base.Misses; misses != 2 {
		t.Errorf("misses = %d, want 2 (the first sighting is not kept, the second is)", misses)
	}
	if cachedStmt(e, q) == nil {
		t.Error("a statement executed five times is not cached")
	}
}

func TestPlanCacheParameterisedSharesOnePlan(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")

	const q = "SELECT v FROM t WHERE id = ?"
	mustExec(t, e, q, NewInt(1))
	mustExec(t, e, q, NewInt(1))
	before := e.stmts.Stats()
	first := cachedPlan(t, e, q)
	for i := int64(1); i <= 3; i++ {
		res := mustExec(t, e, q, NewInt(i))
		if len(res.Rows) != 1 {
			t.Fatalf("id=%d: rows = %d", i, len(res.Rows))
		}
	}
	if after := e.stmts.Stats(); after != before {
		t.Errorf("cache went from %+v to %+v across bindings", before, after)
	}
	if got := cachedPlan(t, e, q); got != first {
		t.Error("plan was re-derived between bindings of one statement")
	}
	if got := explainAccessOf(t, e, q, NewInt(1)); got != "point" {
		t.Errorf("parameterised PK lookup plan kind = %v, want point", got)
	}
}

func TestPlanCacheDDLEvictsTablePlans(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, e, "CREATE TABLE other (id INT PRIMARY KEY)")
	for i := 0; i < 2; i++ {
		mustExec(t, e, "SELECT * FROM t")
		mustExec(t, e, "SELECT * FROM other")
	}
	dropped := cachedPlan(t, e, "SELECT * FROM t")

	mustExec(t, e, "DROP TABLE t")
	if _, err := e.Exec("app", "SELECT * FROM t"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("query after drop: err = %v, want ErrNoTable", err)
	}
	// The statement stays cached (its text may bind again), but the plan that
	// held the dropped table is unreachable from it.
	for key, plan := range *plansOf(cachedStmt(e, "SELECT * FROM t")).cur.Load() {
		if plan == dropped {
			t.Errorf("plan referencing dropped table still held under %v", key)
		}
	}
	mustExec(t, e, "SELECT * FROM other")
	cachedPlan(t, e, "SELECT * FROM other")
}

func TestPlanCacheStalePlanNeverReadsDroppedTable(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 'a')")
	const q = "SELECT * FROM t WHERE id = 1"
	mustExec(t, e, q)
	mustExec(t, e, q)
	cachedPlan(t, e, q)

	mustExec(t, e, "DROP TABLE t")
	if _, err := e.Exec("app", q); !errors.Is(err, ErrNoTable) {
		t.Fatalf("query after drop: err = %v, want ErrNoTable", err)
	}

	// Recreate the name with a different shape: the old plan (point access on
	// colIdx 0, projection over id+v) must not leak into the new incarnation.
	mustExec(t, e, "CREATE TABLE t (name TEXT, id INT PRIMARY KEY)")
	mustExec(t, e, "INSERT INTO t VALUES ('x', 1)")
	res := mustExec(t, e, q)
	if len(res.Cols) != 2 || res.Cols[0] != "name" {
		t.Errorf("cols after recreate = %v, want [name id]", res.Cols)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "x" {
		t.Errorf("rows after recreate = %v", res.Rows)
	}
}

func TestPlanCacheCreateIndexRederivesPlan(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, cat TEXT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'a')")

	const q = "SELECT id FROM t WHERE cat = 'a'"
	mustExec(t, e, q)
	mustExec(t, e, q)
	if got := explainAccessOf(t, e, q); got != "scan" {
		t.Fatalf("pre-index plan kind = %v, want scan", got)
	}
	old := cachedPlan(t, e, q)

	mustExec(t, e, "CREATE INDEX idx_cat ON t (cat)")
	res := mustExec(t, e, q)
	if len(res.Rows) != 2 {
		t.Fatalf("rows after index = %d, want 2", len(res.Rows))
	}
	if cachedPlan(t, e, q) == old {
		t.Error("cached plan was not re-derived after CREATE INDEX")
	}
	if got := explainAccessOf(t, e, q); got != "index" {
		t.Errorf("post-index plan kind = %v, want index equality", got)
	}
}

// TestPlanRebindsAfterRestoreAndDropDatabase runs one shared AST — what the
// cluster controller hands every replica — across the two catalog changes
// that arrive outside SQL: a table replaced by RestoreTable (an Algorithm 1
// copy, a recovery) and a database dropped and created again.
func TestPlanRebindsAfterRestoreAndDropDatabase(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 'old')")
	stmt, err := Parse("SELECT v FROM t WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	read := func() (string, error) {
		txn, err := e.Begin("app")
		if err != nil {
			return "", err
		}
		defer txn.Rollback()
		res, err := txn.ExecStmt(stmt)
		if err != nil || len(res.Rows) != 1 {
			return "", err
		}
		return res.Rows[0][0].Str, nil
	}
	if v, err := read(); err != nil || v != "old" {
		t.Fatalf("before: %q, %v", v, err)
	}
	bound := plansOf(stmt).load(e, "app")

	var img TableDump
	if err := e.DumpTables("app", []string{"t"}, func(d TableDump) error { img = d; return nil }); err != nil {
		t.Fatal(err)
	}
	img.Rows = encodeRows(Row{NewInt(1), NewText("restored")})
	if err := e.RestoreTable("app", img); err != nil {
		t.Fatal(err)
	}
	if plansOf(stmt).load(e, "app") != nil {
		t.Error("plan bound to the replaced table is still current")
	}
	if v, err := read(); err != nil || v != "restored" {
		t.Errorf("after RestoreTable: %q, %v", v, err)
	}

	if err := e.DropDatabase("app"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	if _, err := read(); !errors.Is(err, ErrNoTable) {
		t.Errorf("after DROP DATABASE: err = %v, want ErrNoTable", err)
	}
	if m := plansOf(stmt).cur.Load(); len(*m) != 0 {
		t.Errorf("statement still holds %d plans for a dropped database", len(*m))
	}
	mustExec(t, e, "CREATE TABLE t (v TEXT, id INT PRIMARY KEY)")
	mustExec(t, e, "INSERT INTO t VALUES ('reborn', 1)")
	if v, err := read(); err != nil || v != "reborn" {
		t.Errorf("after re-create: %q, %v", v, err)
	}
	if got := plansOf(stmt).load(e, "app"); got == nil || got == bound {
		t.Error("statement was not re-bound against the re-created database")
	}
}

// TestPlanCacheEviction drives the byte budget: room for three statements,
// five that each repeat, and one of them used between every admission.
func TestPlanCacheEviction(t *testing.T) {
	e := newTestDB(t)
	text := func(i int) string { return fmt.Sprintf("SELECT * FROM t WHERE id = %d", i) }
	e.stmts = newStmtCache(3 * stmtCost(text(0)))
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY)")
	for i := 0; i < 5; i++ {
		mustExec(t, e, text(i))
		mustExec(t, e, text(i))
		mustExec(t, e, text(0))
	}
	st := e.stmts.Stats()
	if st.Entries != 3 || st.Bytes != e.stmts.budget {
		t.Errorf("retained %+v, want 3 entries filling the %d-byte budget", st, e.stmts.budget)
	}
	if cachedStmt(e, text(0)) == nil {
		t.Error("the statement in use was evicted")
	}
	if cachedStmt(e, text(1)) != nil || cachedStmt(e, text(4)) == nil {
		t.Error("eviction did not take the oldest unused statement")
	}
}

func TestStmtCacheSharesParsedStatements(t *testing.T) {
	c := NewStmtCache()
	const q = "SELECT 1"
	first, err := c.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("first sighting retained %+v", st)
	}
	second, err := c.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	third, err := c.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if second != third || first == second {
		t.Error("the second sighting was not the one cached and shared")
	}
	if _, err := c.Parse("SELECT !!"); err == nil {
		t.Error("parse error not surfaced")
	}
	// A stream of statements seen once each leaves nothing behind.
	for i := 0; i < 3*doorSlots; i++ {
		if _, err := c.Parse(fmt.Sprintf("INSERT INTO t VALUES (%d, 'x')", i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Entries != 1 || st.Bytes != stmtCost(q) {
		t.Errorf("retained %+v, want the one repeating statement", st)
	}
	if n := c.TakeBypassed(); n != 1+3*doorSlots {
		t.Errorf("bypassed = %d, want %d", n, 1+3*doorSlots)
	}
	if n := c.TakeBypassed(); n != 0 {
		t.Errorf("bypassed after take = %d, want 0", n)
	}
	// A text larger than the whole budget is never kept, however often it runs.
	tiny := newStmtCache(4)
	for i := 0; i < 3; i++ {
		if _, err := tiny.Parse(q); err != nil {
			t.Fatal(err)
		}
	}
	if st := tiny.Stats(); st.Entries != 0 {
		t.Errorf("a 4-byte budget retained %+v", st)
	}
}

// TestStmtCacheConcurrent parses, admits, evicts and binds from 8 goroutines
// over 2 engines × 4 databases sharing one small cache, with DDL retiring the
// plans underneath. Every database's table holds a different value, so a
// plan served to the wrong (engine, database) shows as a wrong answer; run
// under -race it also checks the cache's and the plan tables' synchronisation.
func TestStmtCacheConcurrent(t *testing.T) {
	const (
		engines = 2
		dbs     = 4
		workers = 8
		rounds  = 300
	)
	hot := []string{
		"SELECT v FROM t WHERE id = 1",
		"SELECT v FROM t WHERE id = ?",
		"UPDATE t SET n = n + 1 WHERE id = 1",
	}
	// Room for the hot statements and a few of the cold ones.
	c := newStmtCache(6 * stmtCost(hot[2]))
	var engs [engines]*Engine
	want := func(e, d int) string { return fmt.Sprintf("e%d-db%d", e, d) }
	for i := range engs {
		engs[i] = NewEngine(DefaultConfig())
		for d := 0; d < dbs; d++ {
			db := fmt.Sprintf("db%d", d)
			if err := engs[i].CreateDatabase(db); err != nil {
				t.Fatal(err)
			}
			for _, sql := range []string{
				"CREATE TABLE t (id INT PRIMARY KEY, v TEXT, n INT)",
				fmt.Sprintf("INSERT INTO t VALUES (1, '%s', 0)", want(i, d)),
			} {
				if _, err := engs[i].Exec(db, sql); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ei, d := (w+r)%engines, (w/engines+r)%dbs
				e, db := engs[ei], fmt.Sprintf("db%d", d)
				sql := hot[r%len(hot)]
				switch {
				case r%7 == 0: // seen twice in all: admitted, then evicted
					sql = fmt.Sprintf("SELECT v FROM t WHERE id = 1 AND n >= %d", -(r/14 + 1))
				case r%11 == 0: // seen once: never admitted
					sql = fmt.Sprintf("SELECT v FROM t WHERE id = 1 AND n > %d", -(w*rounds + r + 1))
				}
				stmt, err := c.Parse(sql)
				if err != nil {
					t.Errorf("parse %q: %v", sql, err)
					return
				}
				txn, err := e.Begin(db)
				if err != nil {
					t.Errorf("begin: %v", err)
					return
				}
				var params []Value
				if strings.Contains(sql, "?") {
					params = []Value{NewInt(1)}
				}
				res, err := txn.ExecStmt(stmt, params...)
				if err != nil {
					_ = txn.Rollback()
					if !isAbortError(err) {
						t.Errorf("%s on e%d/%s: %v", sql, ei, db, err)
						return
					}
					continue
				}
				if _, isRead := stmt.(*SelectStmt); isRead {
					if len(res.Rows) != 1 || res.Rows[0][0].Str != want(ei, d) {
						t.Errorf("%s on e%d/%s = %v, want %s", sql, ei, db, res.Rows, want(ei, d))
					}
				}
				if err := txn.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				if w == 0 && r%25 == 0 { // retire every plan on this engine
					for _, ddl := range []string{"CREATE TABLE churn (id INT PRIMARY KEY)", "DROP TABLE churn"} {
						if _, err := e.Exec(db, ddl); err != nil {
							t.Errorf("%s: %v", ddl, err)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.Bytes > c.budget || st.Entries == 0 {
		t.Errorf("retained %+v with a %d-byte budget", st, c.budget)
	}
	for _, sql := range hot {
		stmt, _ := c.Parse(sql)
		if m := plansOf(stmt).cur.Load(); m == nil || len(*m) > engines*dbs {
			t.Errorf("%q holds a plan table of unexpected size", sql)
		}
	}
}

// TestDDLConcurrentWithSelects hammers cached SELECTs from 8 clients while a
// DDL churn loop creates and drops tables and adds indexes on the engine.
// Run under -race this exercises the catalog RWMutex paths and the plan
// cache's generation-based invalidation: queries against the stable table
// must always succeed and never observe a stale plan.
func TestDDLConcurrentWithSelects(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, cat TEXT, n INT)")
	for i := 0; i < 100; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO t VALUES (%d, 'c%d', %d)", i, i%7, i))
	}

	const clients = 8
	stop := make(chan struct{})
	errc := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := e.Exec("app", "SELECT n FROM t WHERE id = ?", NewInt(int64((c*31+j)%100))); err != nil {
					errc <- fmt.Errorf("client %d point read: %w", c, err)
					return
				}
				if res, err := e.Exec("app", "SELECT id FROM t WHERE id BETWEEN 10 AND 19"); err != nil {
					errc <- fmt.Errorf("client %d range read: %w", c, err)
					return
				} else if len(res.Rows) != 10 {
					errc <- fmt.Errorf("client %d range read: %d rows, want 10", c, len(res.Rows))
					return
				}
				// Queries against the churned tables may race a DROP; only
				// a missing table is an acceptable failure.
				if _, err := e.Exec("app", "SELECT * FROM churn WHERE v = 'x'"); err != nil && !errors.Is(err, ErrNoTable) {
					errc <- fmt.Errorf("client %d churn read: %w", c, err)
					return
				}
			}
		}(c)
	}

	for k := 0; k < 40; k++ {
		mustExec(t, e, "CREATE TABLE churn (id INT PRIMARY KEY, v TEXT)")
		mustExec(t, e, fmt.Sprintf("CREATE INDEX churn_v%d ON churn (v)", k))
		mustExec(t, e, "INSERT INTO churn VALUES (1, 'x')")
		mustExec(t, e, "DROP TABLE churn")
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestPlanCacheCrossDatabaseIsolation checks that the same SQL text executed
// against two databases of one engine gets two independent plans.
func TestPlanCacheCrossDatabaseIsolation(t *testing.T) {
	e := newTestDB(t)
	if err := e.CreateDatabase("app2"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	if _, err := e.Exec("app2", "CREATE TABLE t (a TEXT, b INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "INSERT INTO t VALUES (1, 'one')")
	if _, err := e.Exec("app2", "INSERT INTO t VALUES ('two', 2)"); err != nil {
		t.Fatal(err)
	}

	const q = "SELECT * FROM t"
	for i := 0; i < 3; i++ { // the third round runs both from the one cached statement
		res := mustExec(t, e, q)
		if strings.Join(res.Cols, ",") != "id,v" {
			t.Errorf("app cols = %v", res.Cols)
		}
		res2, err := e.Exec("app2", q)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(res2.Cols, ",") != "a,b" {
			t.Errorf("app2 cols = %v", res2.Cols)
		}
	}
	plans := plansOf(cachedStmt(e, q))
	if a, b := plans.load(e, "app"), plans.load(e, "app2"); a == nil || b == nil || a == b {
		t.Errorf("one text on two databases holds plans %p and %p, want two distinct", a, b)
	}
}
