package sqldb

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// cachedPlan fetches the resident text-cache entry for (app, sql), failing
// the test if it is absent.
func cachedPlan(t *testing.T, e *Engine, sql string) *stmtPlan {
	t.Helper()
	_, plan, ok := e.plans.get("app", sql)
	if !ok {
		t.Fatalf("no cached plan for %q", sql)
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
	if hits := st.Hits - base.Hits; hits != 4 {
		t.Errorf("hits = %d, want 4 (first exec is the miss)", hits)
	}
	if misses := st.Misses - base.Misses; misses != 1 {
		t.Errorf("misses = %d, want 1", misses)
	}
	if e.plans.lru.Len() == 0 {
		t.Error("no resident text-cache entries")
	}
}

func TestPlanCacheParameterisedSharesOnePlan(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")

	const q = "SELECT v FROM t WHERE id = ?"
	mustExec(t, e, q, NewInt(1))
	before := e.plans.lru.Len()
	first := cachedPlan(t, e, q)
	for i := int64(1); i <= 3; i++ {
		res := mustExec(t, e, q, NewInt(i))
		if len(res.Rows) != 1 {
			t.Fatalf("id=%d: rows = %d", i, len(res.Rows))
		}
	}
	if e.plans.lru.Len() != before {
		t.Errorf("cache grew from %d to %d entries across bindings", before, e.plans.lru.Len())
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
	mustExec(t, e, "SELECT * FROM t")
	mustExec(t, e, "SELECT * FROM other")

	mustExec(t, e, "DROP TABLE t")
	if _, _, ok := e.plans.get("app", "SELECT * FROM t"); ok {
		t.Error("plan referencing dropped table still resident")
	}
	if _, _, ok := e.plans.get("app", "SELECT * FROM other"); !ok {
		t.Error("plan for unrelated table was evicted")
	}
}

func TestPlanCacheStalePlanNeverReadsDroppedTable(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 'a')")
	const q = "SELECT * FROM t WHERE id = 1"
	mustExec(t, e, q)

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

func TestPlanCacheEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PlanCacheSize = 2
	e := NewEngine(cfg)
	if err := e.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY)")
	for i := 0; i < 5; i++ {
		mustExec(t, e, fmt.Sprintf("SELECT * FROM t WHERE id = %d", i))
	}
	if n := e.plans.lru.Len(); n > 2 {
		t.Errorf("resident entries = %d, want <= 2", n)
	}
	if ev := e.Stats().PlanCache.Evictions; ev == 0 {
		t.Error("no evictions counted despite overflowing the cache")
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PlanCacheSize = -1
	e := NewEngine(cfg)
	if err := e.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY)")
	mustExec(t, e, "INSERT INTO t VALUES (1)")
	for i := 0; i < 3; i++ {
		mustExec(t, e, "SELECT * FROM t WHERE id = 1")
	}
	st := e.Stats().PlanCache
	if st.Hits != 0 || st.Misses != 0 {
		t.Errorf("disabled cache counted hits=%d misses=%d", st.Hits, st.Misses)
	}
	if e.plans.lru.Len() != 0 {
		t.Errorf("disabled cache holds %d entries", e.plans.lru.Len())
	}
}

func TestStmtCacheSharesParsedStatements(t *testing.T) {
	c := NewStmtCache(2)
	const q = "SELECT 1"
	a, err := c.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("repeat Parse did not return the cached statement")
	}
	if _, err := c.Parse("SELECT !!"); err == nil {
		t.Error("parse error not surfaced")
	}
	if _, err := c.Parse("SELECT 2"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Parse("SELECT 3"); err != nil {
		t.Fatal(err)
	}
	if c.lru.Len() != 2 {
		t.Errorf("Len = %d, want capacity 2", c.lru.Len())
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
