package sqldb

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// diffEngine builds the tables the golden corpus runs against: mixed
// types, NULLs, negative keys, quoted text, and two secondary indexes so
// every access path (point, index-eq, index-range, scan) is reachable.
func diffEngine(t testing.TB) *Engine {
	t.Helper()
	e := newTestDB(t)
	mustExec(t, e, `CREATE TABLE item (id INT PRIMARY KEY, title TEXT NOT NULL, cost FLOAT, qty INT, subject TEXT)`)
	mustExec(t, e, `CREATE INDEX idx_subject ON item (subject)`)
	mustExec(t, e, `CREATE INDEX idx_qty ON item (qty)`)
	rows := []string{
		`(-3, 'neg', 1.5, 7, 'HISTORY')`,
		`(0, 'zero', NULL, 0, 'ART')`,
		`(1, 'alpha', 9.99, 3, 'HISTORY')`,
		`(2, 'it''s', 2.25, NULL, 'COOKING')`,
		`(3, 'beta', 0.5, 3, NULL)`,
		`(4, 'Alpha', 12.0, 5, 'ART')`,
		`(5, 'gamma ray', 7.75, 2, 'HISTORY')`,
		`(6, '', 3.0, 9, 'COOKING')`,
		`(7, 'delta', NULL, NULL, NULL)`,
		`(8, '%wild%', 4.5, 1, 'ART')`,
		`(9, 'omega', 100.25, 12, 'SCIENCE')`,
		`(10, 'alphabet', 6.0, 3, 'SCIENCE')`,
	}
	mustExec(t, e, "INSERT INTO item VALUES "+strings.Join(rows, ", "))

	// Join partners: review references item and author (with dangling and
	// NULL references on both sides), author carries a UNIQUE column, and
	// nopk has no primary key (table-lock write path).
	mustExec(t, e, `CREATE TABLE author (aid INT PRIMARY KEY, name TEXT UNIQUE, country TEXT)`)
	mustExec(t, e, `INSERT INTO author VALUES (1, 'Ann', 'US'), (2, 'Bo', NULL), (3, 'Cy', 'UK'), (4, 'Di', 'US')`)
	mustExec(t, e, `CREATE TABLE review (rid INT PRIMARY KEY, item_id INT, aid INT, stars INT, note TEXT)`)
	mustExec(t, e, `CREATE INDEX idx_review_item ON review (item_id)`)
	mustExec(t, e, `INSERT INTO review VALUES (100, 1, 1, 5, 'great'), (101, 1, 2, 3, NULL), (102, 3, 1, 4, 'ok'),
		(103, 5, 3, NULL, 'meh'), (104, 9, NULL, 2, 'anon'), (105, 42, 2, 1, 'orphan'), (106, NULL, 4, 5, 'noitem'), (107, 4, 1, 4, 'fine')`)
	mustExec(t, e, `CREATE TABLE nopk (a INT, b TEXT)`)
	mustExec(t, e, `INSERT INTO nopk VALUES (1, 'x'), (2, 'y'), (2, 'yy'), (NULL, 'n'), (3, NULL)`)
	return e
}

// goldenResult is one frozen statement outcome: values are type-tagged
// strings ("n", "i:3", "f:2.5", "t:text", "b:true") so INT 3 and FLOAT 3 stay
// distinct.
type goldenResult struct {
	Cols     []string   `json:"cols,omitempty"`
	Rows     [][]string `json:"rows,omitempty"`
	Affected int        `json:"affected,omitempty"`
	Err      string     `json:"err,omitempty"`
}

// goldenCase is one statement of testdata/exec_golden.json. A case with
// Verify is DML: it runs in a locking transaction, Verify runs after it in
// the same transaction (After is its outcome; nil when the statement aborted
// the transaction) and the transaction is rolled back. Any other case is a
// query and must produce Want in a locking and in a read-only transaction.
type goldenCase struct {
	SQL    string        `json:"sql"`
	Params []string      `json:"params,omitempty"`
	Verify string        `json:"verify,omitempty"`
	Want   goldenResult  `json:"want"`
	After  *goldenResult `json:"after,omitempty"`
}

func encodeGoldenValue(v Value) string {
	switch v.Typ {
	case TypeInt:
		return "i:" + strconv.FormatInt(v.Int, 10)
	case TypeFloat:
		return "f:" + strconv.FormatFloat(v.Float, 'g', -1, 64)
	case TypeText:
		return "t:" + v.Str
	case TypeBool:
		return "b:" + strconv.FormatBool(v.Bool)
	default:
		return "n"
	}
}

func decodeGoldenValue(t testing.TB, s string) Value {
	t.Helper()
	kind, body, _ := strings.Cut(s, ":")
	switch kind {
	case "n":
		return Null
	case "i":
		n, err := strconv.ParseInt(body, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return NewInt(n)
	case "f":
		f, err := strconv.ParseFloat(body, 64)
		if err != nil {
			t.Fatal(err)
		}
		return NewFloat(f)
	case "t":
		return NewText(body)
	case "b":
		return NewBool(body == "true")
	}
	t.Fatalf("bad golden value %q", s)
	return Null
}

func goldenOf(res *Result, err error) goldenResult {
	if err != nil {
		return goldenResult{Err: err.Error()}
	}
	var g goldenResult
	if res == nil {
		return g
	}
	g.Cols, g.Affected = res.Cols, res.Affected
	for _, r := range res.Rows {
		row := make([]string, len(r))
		for i, v := range r {
			row[i] = encodeGoldenValue(v)
		}
		g.Rows = append(g.Rows, row)
	}
	return g
}

func loadGolden(t testing.TB) []goldenCase {
	t.Helper()
	raw, err := os.ReadFile("testdata/exec_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []goldenCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	return cases
}

// TestExecGolden replays the frozen corpus: the results the tree-walking
// interpreter of the parent commit produced for the hand-written and the
// 400-statement random differential corpora, plus joins, aggregates,
// grouping, DISTINCT, DML through every access path and INSERT expressions.
// Columns, row order, values and error text must all match.
func TestExecGolden(t *testing.T) {
	e := diffEngine(t)
	defer e.Close()
	same := func(c goldenCase, mode string, got, want goldenResult) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s %q %v:\n got %+v\nwant %+v", mode, c.SQL, c.Params, got, want)
		}
	}
	for _, c := range loadGolden(t) {
		params := make([]Value, len(c.Params))
		for i, p := range c.Params {
			params[i] = decodeGoldenValue(t, p)
		}
		tx, err := e.Begin("app")
		if err != nil {
			t.Fatal(err)
		}
		if c.Verify == "" {
			same(c, "query", goldenOf(tx.Exec(c.SQL, params...)), c.Want)
			_ = tx.Rollback()
			continue
		}
		same(c, "dml", goldenOf(tx.Exec(c.SQL, params...)), c.Want)
		if active := tx.state == TxnActive; active != (c.After != nil) {
			t.Errorf("dml %q: transaction active=%v after the statement, golden says %v", c.SQL, active, c.After != nil)
		} else if active {
			same(c, "verify "+c.Verify+" after", goldenOf(tx.Exec(c.Verify)), *c.After)
		}
		_ = tx.Rollback()
	}
}

// FuzzParseBind feeds arbitrary text to the parser, the binder and the
// executor: every input either fails to parse, fails with an error, or runs
// to a result — never a panic. Seeded with the golden corpus's SQL. DDL is
// parsed but not executed so one input cannot change the schema under the
// next; everything else runs in a transaction that is rolled back.
func FuzzParseBind(f *testing.F) {
	for _, c := range loadGolden(f) {
		f.Add(c.SQL)
	}
	e := diffEngine(f)
	defer e.Close()
	params := []Value{NewInt(1), NewText("alpha"), NewFloat(2.5), Null, NewInt(40)}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := Parse(sql)
		if err != nil {
			return
		}
		switch stmt.(type) {
		case *CreateTableStmt, *CreateIndexStmt, *DropTableStmt:
			return
		}
		tx, err := e.Begin("app")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = tx.Rollback() }()
		if res, err := tx.ExecStmt(stmt, params...); err == nil && res == nil {
			t.Fatalf("%q: nil result without an error", sql)
		}
	})
}

// TestLockedPointReadAllocs is the engine's point-read budget, begin to
// commit: 6 allocations — the lock's key string, the lock table's two records
// of the hold, the Result, its row slice and the row. The history recorder's
// object name, which only a test harness with a recorder installed ever
// reads, is not among them: it is built after the recorder check. Key 1 and
// key 10 both hold it: Go allocates no string of one byte, so a key whose
// string form is that short would hide the key's allocation.
func TestLockedPointReadAllocs(t *testing.T) {
	for _, c := range []struct {
		id    int64
		title string
	}{{1, "alpha"}, {10, "alphabet"}} {
		t.Run(strconv.FormatInt(c.id, 10), func(t *testing.T) {
			lockedPointReadAllocs(t, c.id, c.title)
		})
	}
}

func lockedPointReadAllocs(t *testing.T, id int64, title string) {
	e := diffEngine(t)
	defer e.Close()
	stmt, err := Parse("SELECT title FROM item WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	params := []Value{NewInt(id)}
	run := func() {
		tx, err := e.Begin("app")
		if err != nil {
			t.Fatal(err)
		}
		if res, err = tx.ExecStmt(stmt, params...); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // bind the plan
		run()
	}
	if allocs := testing.AllocsPerRun(200, run); allocs > 6 {
		t.Fatalf("locked point read allocates %.1f objects/op, budget is 6", allocs)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str != title {
		t.Fatalf("unexpected result %v", res.Rows)
	}
}

// opLog is a Recorder that keeps each event's object and direction.
type opLog struct{ ops []string }

func (l *opLog) RecordOp(ev OpEvent) {
	dir := "r "
	if ev.Write {
		dir = "w "
	}
	l.ops = append(l.ops, dir+ev.Object)
}

// TestRecordedObjectNames pins the object names the history checker sees, one
// statement per way a lock is taken: "db/table:" and the primary key's key
// (appendKey) for a row, "db/table" for a whole table.
func TestRecordedObjectNames(t *testing.T) {
	e := diffEngine(t)
	defer e.Close()
	log := &opLog{}
	e.SetRecorder(log)
	row := func(op string, id int64) string { return op + ":" + keyOf(NewInt(id)) }
	for _, c := range []struct {
		sql  string
		want []string
	}{
		{"SELECT title FROM item WHERE id = 1", []string{row("r app/item", 1)}},
		{"SELECT id FROM item WHERE subject = 'SCIENCE'", []string{row("r app/item", 9), row("r app/item", 10)}},
		{"SELECT id FROM item WHERE title LIKE 'a%'", []string{"r app/item"}},
		{"INSERT INTO item VALUES (11, 'new', 1.0, 1, 'ART')", []string{row("w app/item", 11)}},
		{"INSERT INTO nopk VALUES (4, 'z')", []string{"w app/nopk"}},
		{"UPDATE item SET id = 12 WHERE id = 11", []string{row("w app/item", 11), row("w app/item", 12)}},
		{"UPDATE item SET qty = 0 WHERE qty = 12", []string{row("w app/item", 9)}},
		{"DELETE FROM author WHERE name = 'Bo'", []string{row("w app/author", 2)}},
		{"DELETE FROM nopk WHERE a = 4", []string{"w app/nopk"}},
	} {
		log.ops = nil
		tx, err := e.Begin("app")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec(c.sql); err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(log.ops, c.want) {
			t.Errorf("%s recorded %q, want %q", c.sql, log.ops, c.want)
		}
	}
}

// TestCompiledExplainExecMode checks EXPLAIN's access path and exec marker
// for every statement shape, grouped ones included.
func TestCompiledExplainExecMode(t *testing.T) {
	e := diffEngine(t)
	defer e.Close()
	cases := []struct {
		sql    string
		access string
		exec   string
	}{
		{"EXPLAIN SELECT title FROM item WHERE id = 1", "point", "exec=compiled"},
		{"EXPLAIN SELECT id FROM item WHERE subject = 'ART'", "index", "exec=compiled"},
		{"EXPLAIN SELECT id FROM item WHERE id > 3", "range", "exec=compiled"},
		{"EXPLAIN SELECT id FROM item WHERE title LIKE '%a%'", "scan", "exec=compiled"},
		{"EXPLAIN SELECT subject, COUNT(*) AS n FROM item GROUP BY subject", "scan", "exec=compiled"},
	}
	for _, c := range cases {
		res := mustExec(t, e, c.sql)
		if len(res.Rows) == 0 {
			t.Fatalf("%q: no explain rows", c.sql)
		}
		row := fmt.Sprint(res.Rows[0])
		if c.access != "" && !strings.Contains(row, c.access) {
			t.Errorf("%q: access %q not in %s", c.sql, c.access, row)
		}
		if !strings.Contains(row, c.exec) {
			t.Errorf("%q: %q not in %s", c.sql, c.exec, row)
		}
	}
}

// TestCompiledStatementCounters checks the observability wiring: binding a
// plan bumps plan_compile_total, executing it bumps compiled_exec_total and
// stmt_exec_total.
func TestCompiledStatementCounters(t *testing.T) {
	e := diffEngine(t)
	defer e.Close()
	before := e.Stats()
	tx, err := e.Begin("app")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("SELECT title FROM item WHERE id = 4"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if after.CompiledExecs <= before.CompiledExecs {
		t.Errorf("compiled_exec_total did not advance: %d -> %d", before.CompiledExecs, after.CompiledExecs)
	}
	if after.PlanCompiles == 0 {
		t.Error("plan_compile_total is zero after compiling plans")
	}
	if after.StmtExecs <= before.StmtExecs {
		t.Errorf("stmt_exec_total did not advance: %d -> %d", before.StmtExecs, after.StmtExecs)
	}
}

// TestLockedReadRaceStress races reading transactions against writers that
// continuously update, insert, and delete rows, and against DDL that retires
// the readers' cached plans. A reader under strict 2PL must observe committed
// images only: a writer raises qty by 2 in two steps of 1 inside one
// transaction, so an odd qty is a torn or an uncommitted read. Deadlock
// victims and lock time-outs are retried, not failures.
func TestLockedReadRaceStress(t *testing.T) {
	e := newTestDB(t)
	defer e.Close()
	mustExec(t, e, "CREATE TABLE acct (id INT PRIMARY KEY, qty INT, tag TEXT)")
	mustExec(t, e, "CREATE INDEX idx_tag ON acct (tag)")
	const nRows = 32
	for i := 0; i < nRows; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO acct VALUES (%d, 0, 'tag%d')", i, i%4))
	}

	iters := 3000
	if testing.Short() {
		iters = 300
	}
	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	var aborts, reads atomic.Uint64

	// Writers: bump qty by 1 twice in one transaction (odd only in between),
	// plus insert/delete churn in a high key range the readers' range queries
	// cover.
	bump := func(id int64) error {
		tx, err := e.Begin("app")
		if err != nil {
			return err
		}
		for step := 0; step < 2; step++ {
			if _, err := tx.Exec("UPDATE acct SET qty = qty + 1 WHERE id = ?", NewInt(id)); err != nil {
				_ = tx.Rollback()
				return err
			}
		}
		return tx.Commit()
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w) + 99))
			for i := 0; i < iters; i++ {
				if err := bump(int64(rng.Intn(nRows))); err != nil && !isAbortError(err) {
					t.Errorf("writer: %v", err)
					return
				}
				hi := int64(1000 + rng.Intn(16))
				_, _ = e.Exec("app", "INSERT INTO acct VALUES (?, 2, 'hot')", NewInt(hi))
				_, _ = e.Exec("app", "DELETE FROM acct WHERE id = ?", NewInt(hi))
			}
		}(w)
	}

	// Readers: point, index-eq, and range statements.
	queries := []string{
		"SELECT qty FROM acct WHERE id = 5",
		"SELECT id, qty FROM acct WHERE tag = 'tag1'",
		"SELECT id, qty FROM acct WHERE id >= 0 AND id < 2000 ORDER BY id",
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
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
				res, err := tx.Exec(queries[r%len(queries)])
				if err != nil {
					_ = tx.Rollback()
					if isAbortError(err) {
						aborts.Add(1)
						continue
					}
					t.Errorf("reader: %v", err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("reader commit: %v", err)
					return
				}
				reads.Add(1)
				for _, row := range res.Rows {
					qty := row[len(row)-1]
					if qty.Typ == TypeInt && qty.Int%2 != 0 {
						t.Errorf("reader observed odd qty %d: torn or uncommitted read", qty.Int)
						return
					}
				}
			}
		}(r)
	}

	// One DDL goroutine invalidates cached plans underneath the readers.
	writers.Add(1)
	go func() {
		defer writers.Done()
		if _, err := e.Exec("app", "CREATE INDEX idx_qty ON acct (qty)"); err != nil {
			t.Errorf("ddl: %v", err)
			return
		}
		for i := 0; i < iters/100; i++ {
			if _, err := e.Exec("app", "CREATE TABLE scratch (id INT PRIMARY KEY)"); err != nil {
				t.Errorf("ddl: %v", err)
				return
			}
			if _, err := e.Exec("app", "DROP TABLE scratch"); err != nil {
				t.Errorf("ddl: %v", err)
				return
			}
			if _, err := e.Exec("app", "SELECT id FROM acct WHERE qty = 0"); err != nil {
				t.Errorf("ddl probe: %v", err)
				return
			}
		}
	}()

	// Writers and DDL run a fixed iteration count; readers loop until told
	// to stop, so they overlap every write and every invalidation.
	writers.Wait()
	close(stop)
	readers.Wait()

	if reads.Load() == 0 {
		t.Fatal("no read committed")
	}
	t.Logf("reads=%d retried aborts=%d", reads.Load(), aborts.Load())
}
