package sqldb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// orderLineDump is an image of n rows shaped like TPC-W's order_line: an INT
// primary key, ol_o_id with about 3 rows a key and ol_i_id with about 25,
// both indexed, and a quantity and a discount.
func orderLineDump(tb testing.TB, n int) TableDump {
	tb.Helper()
	schema, err := NewSchema("order_line", []Column{
		{Name: "ol_id", Typ: TypeInt, PrimaryKey: true},
		{Name: "ol_o_id", Typ: TypeInt, NotNull: true},
		{Name: "ol_i_id", Typ: TypeInt, NotNull: true},
		{Name: "ol_qty", Typ: TypeInt, NotNull: true},
		{Name: "ol_discount", Typ: TypeFloat, NotNull: true},
	})
	if err != nil {
		tb.Fatal(err)
	}
	d := TableDump{Schema: schema, Rows: make([]string, n), Indexes: []IndexDef{
		{Name: "idx_ol_oid", Col: "ol_o_id"},
		{Name: "idx_ol_iid", Col: "ol_i_id"},
	}}
	for i := range d.Rows {
		d.Rows[i] = encodeRowString(Row{NewInt(int64(i + 1)), NewInt(int64(i / 3)), NewInt(int64(i*7919) % int64(n/25)), NewInt(int64(i%5 + 1)), NewFloat(float64(i%10) / 100)})
	}
	return d
}

// BenchmarkRestoreTable is the target side of an Algorithm 1 copy of one
// 10 000-row order_line table. apply is what the copy does under the
// source's lock: RestoreTable builds the table and its primary key from the
// dumped row encodings, replaces the previous copy and appends the image to
// the engine's in-memory log, which grows by one image (≈ 180 KB) an
// operation. apply+build adds the online build of the two secondary indexes
// that follows once the lock is released.
func BenchmarkRestoreTable(b *testing.B) {
	for _, build := range []bool{false, true} {
		name := map[bool]string{false: "apply", true: "apply+build"}[build]
		b.Run(name, func(b *testing.B) {
			e := newTestDB(b)
			d := orderLineDump(b, 10000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.RestoreTable("app", d); err != nil {
					b.Fatal(err)
				}
				if build {
					if err := e.BuildIndexes("app", []string{"order_line"}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// restoreModelDomains are the values the model table's key columns draw from:
// few enough that keys repeat, with NULL, −0 beside 0, NaN, ±Inf and an INT
// equal to a FLOAT.
var restoreModelDomains = map[string][]Value{
	"i": {Null, NewInt(0), NewInt(1), NewInt(2), NewInt(-3), NewInt(1 << 40), NewInt(math.MinInt64)},
	"f": {Null, NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(math.NaN()), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewFloat(1.5), NewFloat(-2.25), NewFloat(2)},
	"s": {Null, NewText(""), NewText("a"), NewText("ab"), NewText("b"), NewText("日本"), NewText("a\x00")},
	"b": {Null, NewBool(false), NewBool(true)},
}

// indexLists returns, for the primary key and each index of db.t, every key's
// row list as the primary-key values of its rows, in the list's order; and
// whether every index's list is in ascending posting order, which is
// primary-key order.
func indexLists(t *testing.T, e *Engine) (lists map[string][]string, ascending bool) {
	t.Helper()
	tbl, err := tableOf(e, "app", "t")
	if err != nil {
		t.Fatal(err)
	}
	pkOf := map[uint64]string{}
	tbl.scan(func(id uint64, r Row) bool { pkOf[id] = r[0].String(); return true })
	tbl.mu.Lock()
	defer tbl.mu.Unlock()
	lists, ascending = map[string][]string{}, true
	for k, id := range tbl.pk {
		lists["pk/"+k] = []string{pkOf[id]}
	}
	for col, idx := range tbl.indexes {
		for k, ids := range idx.m {
			for _, id := range ids {
				rowID, _ := tbl.rowIDOf(id)
				lists[col+"/"+k] = append(lists[col+"/"+k], pkOf[rowID])
			}
			ascending = ascending && slices.IsSorted(ids)
		}
	}
	return lists, ascending
}

// restoreAndBuild restores img into e's app database and builds its
// indexes, as a copy does.
func restoreAndBuild(e *Engine, img TableDump) error {
	if err := e.RestoreTable("app", img); err != nil {
		return err
	}
	return e.BuildIndexes("app", []string{img.Schema.Table})
}

// TestRestoreIndexesMatchInserts checks the bulk index build against indexes
// kept row by row. Random tables whose key columns cover INT, FLOAT (−0, NaN,
// ±Inf), TEXT, BOOL and NULL, with unique and non-unique indexes and repeated
// keys, are indexed one INSERT at a time on one engine, by CREATE INDEX over
// the same rows on a second, and restored from the first one's dump on a
// third. The two bulk builds must hold the same key → row lists as the first,
// matched by primary key, each in ascending primary-key order; then, after
// the same random INSERT, UPDATE and DELETE sequence on all three, the same
// lists, still in that order, and the same answers to range scans. A unique index over repeated keys must
// fail alike built and restored, naming the first repeat in row order.
func TestRestoreIndexesMatchInserts(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		draw := func(col string) Value {
			d := restoreModelDomains[col]
			return d[rng.Intn(len(d))]
		}
		// src indexes its rows one INSERT at a time, late builds its
		// indexes over the same rows with CREATE INDEX, and dst restores
		// src's dump.
		src, late, dst := newTestDB(t), newTestDB(t), newTestDB(t)
		exec := func(es []*Engine, sql string, params ...Value) {
			for _, e := range es {
				mustExec(t, e, sql, params...)
			}
		}
		exec([]*Engine{src, late}, "CREATE TABLE t (id INT PRIMARY KEY, i INT, f FLOAT, s TEXT, b BOOL, u INT)")
		indexes := []string{"CREATE UNIQUE INDEX t_u ON t (u)"}
		for _, col := range []string{"id", "i", "f", "s", "b"} {
			if rng.Intn(4) > 0 {
				indexes = append(indexes, fmt.Sprintf("CREATE INDEX t_%s ON t (%s)", col, col))
			}
		}
		for _, sql := range indexes {
			exec([]*Engine{src}, sql)
		}
		nextID := 0
		insert := func(es []*Engine) {
			nextID++
			exec(es, "INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)", NewInt(int64(nextID)), draw("i"), draw("f"), draw("s"), draw("b"), NewInt(int64(nextID)))
		}
		for n := rng.Intn(300); n > 0; n-- {
			insert([]*Engine{src, late})
		}
		for n := rng.Intn(20); n > 0; n-- {
			exec([]*Engine{src, late}, "DELETE FROM t WHERE id = ?", NewInt(int64(rng.Intn(nextID+1))))
		}
		for _, sql := range indexes {
			exec([]*Engine{late}, sql)
		}
		if err := dst.RestoreTable("app", dumpAll(t, src)[0]); err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		if err := dst.BuildIndexes("app", []string{"t"}); err != nil {
			t.Fatalf("seed %d: build: %v", seed, err)
		}
		compare := func(when string) {
			want, _ := indexLists(t, src)
			for _, e := range []*Engine{late, dst} {
				got, ascending := indexLists(t, e)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, %s: index lists differ from those built row by row:\n%v\nwant\n%v", seed, when, got, want)
				}
				if !ascending {
					t.Fatalf("seed %d, %s: an index list is not in ascending primary-key order", seed, when)
				}
			}
		}
		compare("built")

		all := []*Engine{src, late, dst}
		for n := 200; n > 0; n-- {
			id := NewInt(int64(rng.Intn(nextID + 2)))
			switch rng.Intn(3) {
			case 0:
				insert(all)
			case 1:
				exec(all, "UPDATE t SET i = ?, f = ?, s = ?, b = ? WHERE id = ?", draw("i"), draw("f"), draw("s"), draw("b"), id)
			default:
				exec(all, "DELETE FROM t WHERE id = ?", id)
			}
		}
		compare("after writes")
		for _, col := range []string{"id", "i", "f", "s"} {
			lo, hi := NewInt(int64(rng.Intn(nextID+1))), NewInt(int64(rng.Intn(nextID+1)))
			if col != "id" {
				lo, hi = draw(col), draw(col)
			}
			for _, q := range []string{"SELECT id FROM t WHERE %s BETWEEN ? AND ?", "SELECT id FROM t WHERE %s > ? AND %[1]s <= ?"} {
				q = fmt.Sprintf(q, col)
				want, werr := src.Exec("app", q, lo, hi)
				for _, e := range []*Engine{late, dst} {
					got, err := e.Exec("app", q, lo, hi)
					if fmt.Sprint(err) != fmt.Sprint(werr) || (err == nil && !reflect.DeepEqual(got.Rows, want.Rows)) {
						t.Fatalf("seed %d: %s [%s, %s]: %v, %v; want %v, %v", seed, q, lo, hi, got, err, want, werr)
					}
				}
			}
		}

		// A unique index over repeated keys: the first row whose key an
		// earlier row holds is named, whether CREATE UNIQUE INDEX builds it or
		// a restore does. NULL repeats nothing, so a column whose only
		// repeats are NULLs takes the index.
		rep := newTestDB(t)
		mustExec(t, rep, "CREATE TABLE t (id INT PRIMARY KEY, i INT, f FLOAT, s TEXT, b BOOL, u INT)")
		col := []string{"i", "f", "s", "b"}[seed%4]
		seen, repeat, repeated := map[string]bool{}, Null, false
		for id, n := 1, 2+rng.Intn(100); id <= n; id++ {
			row := []Value{NewInt(int64(id)), Null, Null, Null, Null, Null}
			v := draw(col)
			row[1+strings.Index("ifsb", col)] = v
			mustExec(t, rep, "INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)", row...)
			if seen[keyOf(v)] && !repeated && !v.IsNull() {
				repeat, repeated = v, true
			}
			seen[keyOf(v)] = true
		}
		img := dumpAll(t, rep)[0]
		img.Indexes = append(img.Indexes, IndexDef{Name: "t_rep", Col: col, Unique: true})
		want := fmt.Sprintf("%v: duplicate value %s building unique index t_rep", ErrDuplicateKey, repeat)
		_, built := rep.Exec("app", fmt.Sprintf("CREATE UNIQUE INDEX t_rep ON t (%s)", col))
		restored := restoreAndBuild(newTestDB(t), img)
		for _, err := range []error{built, restored} {
			if !repeated {
				if err != nil {
					t.Fatalf("seed %d: unique index over distinct keys: %v", seed, err)
				}
			} else if !errors.Is(err, ErrDuplicateKey) || err.Error() != want {
				t.Fatalf("seed %d: unique index over repeated keys: %v, want %q", seed, err, want)
			}
		}
	}
}

// modelImage is an image of n random rows of the model table t (see
// restoreModelDomains), indexed on i, f, s and b, and uniquely on u.
func modelImage(t *testing.T, rng *rand.Rand, n int) TableDump {
	t.Helper()
	src := newTestDB(t)
	mustExec(t, src, "CREATE TABLE t (id INT PRIMARY KEY, i INT, f FLOAT, s TEXT, b BOOL, u INT)")
	for _, col := range []string{"i", "f", "s", "b"} {
		mustExec(t, src, fmt.Sprintf("CREATE INDEX t_%s ON t (%s)", col, col))
	}
	mustExec(t, src, "CREATE UNIQUE INDEX t_u ON t (u)")
	for id := 1; id <= n; id++ {
		mustExec(t, src, "INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)", drawModelRow(rng, id)...)
	}
	return dumpAll(t, src)[0]
}

// drawModelRow draws a row of the model table with primary key and u both id.
func drawModelRow(rng *rand.Rand, id int) []Value {
	draw := func(col string) Value {
		d := restoreModelDomains[col]
		return d[rng.Intn(len(d))]
	}
	return []Value{NewInt(int64(id)), draw("i"), draw("f"), draw("s"), draw("b"), NewInt(int64(id))}
}

// modelWrite draws one write on the model table: an insert of row *next (and
// *next moves on), or an update or a delete of a row below it. No write reads
// an index: each finds its row by primary key.
func modelWrite(rng *rand.Rand, next *int) (string, []Value) {
	row := drawModelRow(rng, rng.Intn(*next)+1)
	switch rng.Intn(3) {
	case 0:
		*next++
		return "INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)", drawModelRow(rng, *next)
	case 1:
		return "UPDATE t SET i = ?, f = ?, s = ?, b = ? WHERE id = ?", append(row[1:5], row[0])
	}
	return "DELETE FROM t WHERE id = ?", row[:1]
}

// sortedLists is indexLists with each key's list sorted: a build from the
// rows in another order lists a key's rows in another order.
func sortedLists(t *testing.T, e *Engine) map[string][]string {
	t.Helper()
	lists, _ := indexLists(t, e)
	for _, l := range lists {
		slices.Sort(l)
	}
	return lists
}

// freshLists is sortedLists of a fresh build of e's table t from its rows
// now: its image restored into a new engine and built at once.
func freshLists(t *testing.T, e *Engine) map[string][]string {
	t.Helper()
	fresh := newTestDB(t)
	if err := restoreAndBuild(fresh, dumpAll(t, e)[0]); err != nil {
		t.Fatal(err)
	}
	return sortedLists(t, fresh)
}

// TestWritesBeforeIndexBuild runs inserts, updates and deletes, and a
// transaction of each that rolls back, on a restored table whose indexes are
// pending, and then builds them: every list must equal, in order, that of a
// twin whose indexes were built before the same writes, and a fresh build
// from the final rows.
func TestWritesBeforeIndexBuild(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(200)
		img := modelImage(t, rng, n)
		dst, twin := newTestDB(t), newTestDB(t)
		if err := restoreAndBuild(twin, img); err != nil {
			t.Fatal(err)
		}
		if err := dst.RestoreTable("app", img); err != nil {
			t.Fatal(err)
		}
		if dst.IndexesBuilt("app") {
			t.Fatalf("seed %d: a restore outside recovery built its indexes", seed)
		}
		both := func(sql string, params []Value) {
			for _, e := range []*Engine{dst, twin} {
				mustExec(t, e, sql, params...)
			}
		}
		for i := 0; i < 100; i++ {
			both(modelWrite(rng, &n))
		}
		rolled := n
		var undone [][]Value
		var texts []string
		for _, kind := range []int{0, 1, 2} {
			for {
				sql, params := modelWrite(rng, &rolled)
				if strings.HasPrefix(sql, []string{"INSERT", "UPDATE", "DELETE"}[kind]) {
					texts, undone = append(texts, sql), append(undone, params)
					break
				}
			}
		}
		for _, e := range []*Engine{dst, twin} {
			tx, err := e.Begin("app")
			if err != nil {
				t.Fatal(err)
			}
			for i, sql := range texts {
				if _, err := tx.Exec(sql, undone[i]...); err != nil {
					t.Fatalf("seed %d: %s: %v", seed, sql, err)
				}
			}
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ {
			both(modelWrite(rng, &n))
		}
		if dst.IndexesBuilt("app") {
			t.Fatalf("seed %d: a write built a pending index", seed)
		}
		if err := dst.BuildIndexes("app", []string{"t"}); err != nil {
			t.Fatal(err)
		}
		if !dst.IndexesBuilt("app") {
			t.Fatalf("seed %d: an index is pending after the build", seed)
		}
		got, _ := indexLists(t, dst)
		if want, _ := indexLists(t, twin); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: built after the writes:\n%v\nwant, built before them:\n%v", seed, got, want)
		}
		if got, want := sortedLists(t, dst), freshLists(t, dst); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: built after the writes:\n%v\nwant, a fresh build:\n%v", seed, got, want)
		}
	}
}

// TestIndexBuildRacesWrites builds a restored table's indexes while writers
// change its rows and a reader queries through an index (building that one on
// the spot if it comes first): afterwards every list must hold what a fresh
// build from the final rows holds.
func TestIndexBuildRacesWrites(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const rows, writers = 200, 2
		dst := newTestDB(t)
		if err := dst.RestoreTable("app", modelImage(t, rng, rows)); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, writers+2)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed*10 + int64(w)))
				for i := 0; i < 150; i++ {
					row, err := drawModelRow(rng, rng.Intn(rows)+1), error(nil)
					switch rng.Intn(3) {
					case 0: // a key of the writer's own
						_, err = dst.Exec("app", "INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)", drawModelRow(rng, rows+1+w*1000+i)...)
					case 1:
						_, err = dst.Exec("app", "UPDATE t SET i = ?, f = ?, s = ?, b = ? WHERE id = ?", append(row[1:5], row[0])...)
					default:
						_, err = dst.Exec("app", "DELETE FROM t WHERE id = ?", row[0])
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := dst.BuildIndexes("app", []string{"t"}); err != nil {
				errs <- err
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := dst.Exec("app", "SELECT id FROM t WHERE s = ?", restoreModelDomains["s"][i%7]); err != nil {
					errs <- err
					return
				}
			}
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !dst.IndexesBuilt("app") {
			t.Fatalf("seed %d: an index is pending after the build", seed)
		}
		if got, want := sortedLists(t, dst), freshLists(t, dst); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: built while written:\n%v\nwant, a fresh build:\n%v", seed, got, want)
		}
	}
}

// TestQueryThroughPendingIndex queries a restored table on indexed columns
// before its build, after writes the indexes have not seen yet: no plan reads
// a pending index, so each query scans, and answers as a built twin does.
// Once the build installs the indexes, the same statements, their plans
// bound before, read them and answer alike.
func TestQueryThroughPendingIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 150
	img := modelImage(t, rng, n)
	dst, twin := newTestDB(t), newTestDB(t)
	if err := restoreAndBuild(twin, img); err != nil {
		t.Fatal(err)
	}
	if err := dst.RestoreTable("app", img); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		sql, params := modelWrite(rng, &n)
		mustExec(t, dst, sql, params...)
		mustExec(t, twin, sql, params...)
	}
	queries := []struct {
		sql    string
		params []Value
	}{
		{"SELECT id FROM t WHERE i = ? ORDER BY id", []Value{NewInt(1)}},
		{"SELECT id FROM t WHERE s BETWEEN ? AND ? ORDER BY id", []Value{NewText("a"), NewText("b")}},
	}
	check := func(when string, scan bool) {
		t.Helper()
		for _, q := range queries {
			plan := mustExec(t, dst, "EXPLAIN "+q.sql, q.params...)
			if got := strings.Contains(fmt.Sprint(plan.Rows), "'scan'"); got != scan {
				t.Fatalf("%s: %s scans %v, want %v: %v", when, q.sql, got, scan, plan.Rows)
			}
			got, want := mustExec(t, dst, q.sql, q.params...), mustExec(t, twin, q.sql, q.params...)
			if !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Fatalf("%s: %s: %v, want %v", when, q.sql, got.Rows, want.Rows)
			}
		}
	}
	check("pending", true)
	if dst.IndexesBuilt("app") {
		t.Fatal("a query built a pending index")
	}
	if err := dst.BuildIndexes("app", []string{"t"}); err != nil {
		t.Fatal(err)
	}
	check("built", false)
	if got, want := sortedLists(t, dst), sortedLists(t, twin); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the build:\n%v\nwant\n%v", got, want)
	}
}

// TestBuildRefusesUniqueDuplicate restores an image whose unique index
// repeats a key: the restore succeeds and leaves the index pending, and the
// build fails with ErrDuplicateKey and leaves it pending.
func TestBuildRefusesUniqueDuplicate(t *testing.T) {
	src := newTestDB(t)
	mustExec(t, src, "CREATE TABLE t (id INT PRIMARY KEY, u INT)")
	mustExec(t, src, "INSERT INTO t VALUES (1, 7), (2, 8), (3, 7)")
	img := dumpAll(t, src)[0]
	img.Indexes = append(img.Indexes, IndexDef{Name: "t_u", Col: "u", Unique: true})
	dst := newTestDB(t)
	if err := dst.RestoreTable("app", img); err != nil {
		t.Fatalf("restore: %v", err)
	}
	want := fmt.Sprintf("%v: duplicate value 7 building unique index t_u", ErrDuplicateKey)
	if err := dst.BuildIndexes("app", []string{"t"}); !errors.Is(err, ErrDuplicateKey) || err.Error() != want {
		t.Fatalf("build: %v, want %q", err, want)
	}
	if dst.IndexesBuilt("app") {
		t.Fatal("a failed build left the index built")
	}
}

// TestRecoveryBuildsRestoredIndexes replays a restore frame of a table with
// secondary indexes: recovery builds them at once, equal to a fresh build of
// the image.
func TestRecoveryBuildsRestoredIndexes(t *testing.T) {
	img := modelImage(t, rand.New(rand.NewSource(1)), 200)
	e, s := newWALEngine(t)
	if err := e.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	if err := e.RestoreTable("app", img); err != nil {
		t.Fatal(err)
	}
	if e.IndexesBuilt("app") {
		t.Fatal("a restore outside recovery built its indexes")
	}
	s.Crash(0)
	e2, _ := recoverEngine(t, s)
	if !e2.IndexesBuilt("app") {
		t.Fatal("recovery left an index pending")
	}
	twin := newTestDB(t)
	if err := restoreAndBuild(twin, img); err != nil {
		t.Fatal(err)
	}
	if got, want := sortedLists(t, e2), sortedLists(t, twin); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered:\n%v\nwant\n%v", got, want)
	}
}

// TestIndexesBuiltNeedsTheDatabase: a database that cannot be read, because
// it does not exist or its engine is closed, does not count as built.
func TestIndexesBuiltNeedsTheDatabase(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, u INT)")
	mustExec(t, e, "CREATE INDEX t_u ON t (u)")
	if !e.IndexesBuilt("app") {
		t.Fatal("a database with no pending index reads unbuilt")
	}
	if e.IndexesBuilt("nosuch") {
		t.Fatal("a database that does not exist reads built")
	}
	e.Close()
	if e.IndexesBuilt("app") {
		t.Fatal("a closed engine's database reads built")
	}
}

// TestRestoreWritesBackNoReplacedPage replaces a table whose dirty pages
// fill the buffer pool: the replaced pages leave the pool before the new
// ones arrive, so none is written back.
func TestRestoreWritesBackNoReplacedPage(t *testing.T) {
	const pages = 16
	cfg := DefaultConfig()
	cfg.PoolPages = pages
	e := NewEngine(cfg)
	if err := e.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	fillPages(t, e, "app", "b", pages*pageCapacity)
	other := newTestDB(t)
	fillPages(t, other, "app", "b", pages/2*pageCapacity)
	before := e.Pool().Stats()
	if e.Pool().Len() != pages {
		t.Fatalf("pool holds %d pages, want %d", e.Pool().Len(), pages)
	}
	if err := e.RestoreTable("app", dumpAll(t, other)[0]); err != nil {
		t.Fatal(err)
	}
	if after := e.Pool().Stats(); after.Writebacks != before.Writebacks {
		t.Fatalf("the restore wrote back %d pages", after.Writebacks-before.Writebacks)
	}
	if sum, count := tableSum(t, e, "app", "b"); count != pages/2*pageCapacity || sum != int64(count*(count-1)/2) {
		t.Fatalf("restored b: SUM(v), COUNT(*) = %d, %d", sum, count)
	}
}
