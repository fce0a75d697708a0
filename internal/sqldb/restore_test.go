package sqldb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
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
// 10 000-row order_line table: RestoreTable builds the table, its primary
// key and two secondary indexes from the dumped row encodings, replaces the
// previous copy and appends the image to the engine's in-memory log, which
// grows by one image (≈ 180 KB) an operation.
func BenchmarkRestoreTable(b *testing.B) {
	e := newTestDB(b)
	d := orderLineDump(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.RestoreTable("app", d); err != nil {
			b.Fatal(err)
		}
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
// whether every list is in ascending row-ID order.
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
	note := func(name, key string, ids []uint64) {
		for j, id := range ids {
			lists[name+"/"+key] = append(lists[name+"/"+key], pkOf[id])
			ascending = ascending && (j == 0 || ids[j-1] < id)
		}
	}
	for k, id := range tbl.pk {
		note("pk", k, []uint64{id})
	}
	for col, idx := range tbl.indexes {
		for k, ids := range idx.m {
			note(col, k, ids)
		}
	}
	return lists, ascending
}

// TestRestoreIndexesMatchInserts checks the bulk index build against indexes
// kept row by row. Random tables whose key columns cover INT, FLOAT (−0, NaN,
// ±Inf), TEXT, BOOL and NULL, with unique and non-unique indexes and repeated
// keys, are indexed one INSERT at a time on one engine, by CREATE INDEX over
// the same rows on a second, and restored from the first one's dump on a
// third. The two bulk builds must hold the same key → row lists as the first,
// matched by primary key, each in ascending row-ID order; then, after the
// same random INSERT, UPDATE and DELETE sequence on all three, the same lists
// and the same answers to range scans. A unique index over repeated keys must
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
		compare := func(when string) {
			want, _ := indexLists(t, src)
			for _, e := range []*Engine{late, dst} {
				got, ascending := indexLists(t, e)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, %s: index lists differ from those built row by row:\n%v\nwant\n%v", seed, when, got, want)
				}
				if when == "built" && !ascending {
					t.Fatalf("seed %d: a built index list is not in ascending row-ID order", seed)
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
		// a restore does.
		rep := newTestDB(t)
		mustExec(t, rep, "CREATE TABLE t (id INT PRIMARY KEY, i INT, f FLOAT, s TEXT, b BOOL, u INT)")
		col := []string{"i", "f", "s", "b"}[seed%4]
		seen, repeat, repeated := map[string]bool{}, Null, false
		for id, n := 1, 2+rng.Intn(100); id <= n; id++ {
			row := []Value{NewInt(int64(id)), Null, Null, Null, Null, Null}
			v := draw(col)
			row[1+strings.Index("ifsb", col)] = v
			mustExec(t, rep, "INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)", row...)
			if seen[keyOf(v)] && !repeated {
				repeat, repeated = v, true
			}
			seen[keyOf(v)] = true
		}
		img := dumpAll(t, rep)[0]
		img.Indexes = append(img.Indexes, IndexDef{Name: "t_rep", Col: col, Unique: true})
		want := fmt.Sprintf("%v: duplicate value %s building unique index t_rep", ErrDuplicateKey, repeat)
		_, built := rep.Exec("app", fmt.Sprintf("CREATE UNIQUE INDEX t_rep ON t (%s)", col))
		restored := newTestDB(t).RestoreTable("app", img)
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
