package sqldb

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestRowCodecRoundTrip(t *testing.T) {
	rows := []Row{
		{},
		{Null},
		{NewInt(0), NewInt(-1), NewInt(1 << 40)},
		{NewFloat(3.14159), NewFloat(-0.5)},
		{NewText(""), NewText("hello"), NewText("with 'quotes' and \x00 bytes")},
		{NewBool(true), NewBool(false)},
		{Null, NewInt(7), NewFloat(2.5), NewText("mix"), NewBool(true)},
	}
	for _, r := range rows {
		enc := encodeRow(nil, r)
		dec, rest, err := decodeRow(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", r, err)
		}
		if len(rest) != 0 {
			t.Errorf("trailing bytes for %v", r)
		}
		if !reflect.DeepEqual(dec, r) && !(len(dec) == 0 && len(r) == 0) {
			t.Errorf("round trip %v -> %v", r, dec)
		}
	}
}

func TestRowCodecProperty(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			n := r.Intn(6)
			row := make(Row, n)
			for i := range row {
				switch r.Intn(5) {
				case 0:
					row[i] = Null
				case 1:
					row[i] = NewInt(r.Int63() - r.Int63())
				case 2:
					row[i] = NewFloat(r.NormFloat64())
				case 3:
					b := make([]byte, r.Intn(20))
					r.Read(b)
					row[i] = NewText(string(b))
				default:
					row[i] = NewBool(r.Intn(2) == 0)
				}
			}
			vals[0] = reflect.ValueOf(row)
		},
	}
	if err := quick.Check(func(r Row) bool {
		enc := encodeRow(nil, r)
		dec, rest, err := decodeRow(enc)
		if err != nil || len(rest) != 0 {
			return false
		}
		if len(dec) != len(r) {
			return false
		}
		for i := range r {
			if Compare(dec[i], r[i]) != 0 || dec[i].Typ != r[i].Typ {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestPageCodecRoundTrip(t *testing.T) {
	slots := []pageSlot{
		{rowID: 1, row: Row{NewInt(1), NewText("a")}},
		{rowID: 2, row: Row{NewInt(2), Null}},
		{rowID: 99, row: Row{NewFloat(1.5), NewBool(true)}},
	}
	enc := encodePage(slots)
	dec, err := decodePage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, slots) {
		t.Errorf("round trip mismatch: %v vs %v", dec, slots)
	}
}

func TestPageCodecCorruption(t *testing.T) {
	enc := encodePage([]pageSlot{{rowID: 1, row: Row{NewText("hello")}}})
	for cut := 1; cut < len(enc); cut++ {
		if _, err := decodePage(enc[:cut]); err == nil {
			// Some prefixes decode fewer slots cleanly only if the count
			// prefix happens to allow it; a strict count makes all cuts fail.
			t.Errorf("truncated page at %d decoded without error", cut)
		}
	}
}

func TestBufferPoolLRU(t *testing.T) {
	p := NewBufferPool(2, 0)
	load := func(id int) func() []byte {
		return func() []byte {
			return encodePage([]pageSlot{{rowID: uint64(id), row: Row{NewInt(int64(id))}}})
		}
	}
	k := func(i int) PageKey { return PageKey{Table: "t", Page: i} }

	if _, err := p.Get(k(1), load(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(k(2), load(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(k(1), load(1)); err != nil { // hit, refreshes 1
		t.Fatal(err)
	}
	if _, err := p.Get(k(3), load(3)); err != nil { // evicts 2
		t.Fatal(err)
	}
	if _, err := p.Get(k(2), load(2)); err != nil { // miss again
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Hits != 1 {
		t.Errorf("hits = %d, want 1", s.Hits)
	}
	if s.Misses != 4 {
		t.Errorf("misses = %d, want 4", s.Misses)
	}
	if s.Evictions < 1 {
		t.Errorf("evictions = %d", s.Evictions)
	}
	if p.Len() != 2 {
		t.Errorf("len = %d", p.Len())
	}
}

func TestBufferPoolDisabled(t *testing.T) {
	p := NewBufferPool(0, 0)
	enc := encodePage([]pageSlot{{rowID: 1, row: Row{NewInt(1)}}})
	k := PageKey{Table: "t", Page: 0}
	for i := 0; i < 3; i++ {
		if _, err := p.Get(k, func() []byte { return enc }); err != nil {
			t.Fatal(err)
		}
	}
	if s := p.Stats(); s.Hits != 0 || s.Misses != 3 {
		t.Errorf("stats = %+v", s)
	}
}

func TestBufferPoolPutAndInvalidate(t *testing.T) {
	p := NewBufferPool(4, 0)
	k := PageKey{Table: "t", Page: 0}
	p.Put(k, []pageSlot{{rowID: 5, row: Row{NewInt(5)}}})
	got, err := p.Get(k, func() []byte { t.Fatal("load called on resident page"); return nil })
	if err != nil || len(got) != 1 || got[0].rowID != 5 {
		t.Fatalf("got %v, %v", got, err)
	}
	p.Invalidate(k)
	loaded := false
	_, err = p.Get(k, func() []byte {
		loaded = true
		return encodePage([]pageSlot{{rowID: 5, row: Row{NewInt(5)}}})
	})
	if err != nil || !loaded {
		t.Errorf("invalidate did not evict (err=%v loaded=%v)", err, loaded)
	}
	p.Put(PageKey{Table: "t", Page: 1}, nil)
	p.Put(PageKey{Table: "u", Page: 0}, nil)
	p.InvalidateTable("t")
	if p.Len() != 1 {
		t.Errorf("len after InvalidateTable = %d", p.Len())
	}
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema("", []Column{{Name: "a", Typ: TypeInt}}); err == nil {
		t.Error("empty table name accepted")
	}
	if _, err := NewSchema("t", nil); err == nil {
		t.Error("no columns accepted")
	}
	if _, err := NewSchema("t", []Column{{Name: "a", Typ: TypeInt}, {Name: "A", Typ: TypeInt}}); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := NewSchema("t", []Column{
		{Name: "a", Typ: TypeInt, PrimaryKey: true},
		{Name: "b", Typ: TypeInt, PrimaryKey: true},
	}); err == nil {
		t.Error("two primary keys accepted")
	}
}

func TestSchemaDDLRoundTrip(t *testing.T) {
	s, err := NewSchema("item", []Column{
		{Name: "id", Typ: TypeInt, PrimaryKey: true, NotNull: true},
		{Name: "title", Typ: TypeText, NotNull: true},
		{Name: "cost", Typ: TypeFloat},
		{Name: "sku", Typ: TypeText, Unique: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ddl := s.DDL()
	stmt, err := Parse(ddl)
	if err != nil {
		t.Fatalf("Parse(%q): %v", ddl, err)
	}
	ct := stmt.(*CreateTableStmt)
	if ct.Table != "item" || len(ct.Cols) != 4 {
		t.Fatalf("%+v", ct)
	}
	if !ct.Cols[0].PrimaryKey || !ct.Cols[1].NotNull || !ct.Cols[3].Unique {
		t.Errorf("%+v", ct.Cols)
	}
}

// dumpAll images every table of app in one DumpTables call.
func dumpAll(t *testing.T, e *Engine) []TableDump {
	t.Helper()
	var dumps []TableDump
	err := e.DumpTables("app", e.Tables("app"), func(d TableDump) error {
		dumps = append(dumps, d)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dumps
}

func TestDumpRestoreRoundTrip(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE a (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, e, "CREATE TABLE b (id INT PRIMARY KEY, n FLOAT)")
	mustExec(t, e, "CREATE INDEX idx_v ON a (v)")
	for i := 0; i < 200; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO a VALUES (%d, 'v%d')", i, i%10))
		mustExec(t, e, fmt.Sprintf("INSERT INTO b VALUES (%d, %d.5)", i, i))
	}

	dumps := dumpAll(t, e)
	if len(dumps) != 2 || dumps[0].Schema.Table != "a" || dumps[1].Schema.Table != "b" {
		t.Fatalf("dumps = %d tables, want a then b", len(dumps))
	}

	e2 := NewEngine(DefaultConfig())
	if err := e2.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	for _, d := range dumps {
		if err := e2.RestoreTable("app", d); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e2.Exec("app", "SELECT COUNT(*) FROM a WHERE v = 'v3'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 20 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	res, err = e2.Exec("app", "SELECT SUM(n) FROM b")
	if err != nil {
		t.Fatal(err)
	}
	want := float64(200*199)/2 + 200*0.5
	if res.Rows[0][0].Float != want {
		t.Errorf("sum = %v, want %v", res.Rows[0][0], want)
	}
}

// TestDumpTablesHoldsEveryLock checks the database-granularity use of
// DumpTables: while the callback runs for the first table, writes to every
// named table block — the last one's lock is already held.
func TestDumpTablesHoldsEveryLock(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE a (id INT PRIMARY KEY)")
	mustExec(t, e, "CREATE TABLE b (id INT PRIMARY KEY)")

	inDump := make(chan struct{})
	release := make(chan struct{})
	dumped := make(chan error, 1)
	go func() {
		first := true
		dumped <- e.DumpTables("app", []string{"a", "b"}, func(TableDump) error {
			if first {
				first = false
				close(inDump)
				<-release
			}
			return nil
		})
	}()
	<-inDump
	wrote := make(chan error, 1)
	go func() {
		_, err := e.Exec("app", "INSERT INTO b VALUES (2)")
		wrote <- err
	}()
	select {
	case err := <-wrote:
		t.Fatalf("write to b did not block while a was being dumped (err=%v)", err)
	case <-timeAfter50ms():
	}
	close(release)
	if err := <-wrote; err != nil {
		t.Fatalf("write failed after dump: %v", err)
	}
	if err := <-dumped; err != nil {
		t.Fatalf("dump: %v", err)
	}
	if err := e.DumpTables("app", []string{"a", "nope"}, func(TableDump) error { return nil }); !isNoTable(err) {
		t.Fatalf("dump of a missing table: err = %v, want ErrNoTable", err)
	}
	if held := e.Stats().LocksHeld; held != 0 {
		t.Fatalf("locks held after dumps = %d", held)
	}
}

// TestDumpConsistentUnderWrites dumps a table while transfer transactions
// run against it: the image restored elsewhere must hold every account and
// the invariant total (the read lock never tears a transfer).
func TestDumpConsistentUnderWrites(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
	const n = 16
	for i := 0; i < n; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO acct VALUES (%d, 100)", i))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				i++
				tx, err := e.Begin("app")
				if err != nil {
					continue
				}
				_, e1 := tx.Exec("UPDATE acct SET bal = bal - 1 WHERE id = ?", NewInt(int64(i%n)))
				var e2 error
				if e1 == nil {
					_, e2 = tx.Exec("UPDATE acct SET bal = bal + 1 WHERE id = ?", NewInt(int64((i*3+1)%n)))
				}
				if e1 != nil || e2 != nil {
					_ = tx.Rollback()
					continue
				}
				_ = tx.Commit()
			}
		}(w * 5)
	}
	dumps := dumpAll(t, e)
	close(stop)
	wg.Wait()

	e2 := newTestDB(t)
	if err := e2.RestoreTable("app", dumps[0]); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, e2, "SELECT SUM(bal), COUNT(*) FROM acct")
	if res.Rows[0][1].Int != n {
		t.Fatalf("restored rows = %v", res.Rows[0][1])
	}
	if res.Rows[0][0].Int != n*100 {
		t.Errorf("restored total = %v, want %d (dump tore a transfer)", res.Rows[0][0], n*100)
	}
}

// TestRestoreReplacesExistingTable checks RestoreTable's replace semantics:
// the image supersedes the table's rows, schema and indexes, and cached
// plans follow.
func TestRestoreReplacesExistingTable(t *testing.T) {
	src := newTestDB(t)
	mustExec(t, src, "CREATE TABLE a (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, src, "CREATE INDEX idx_v ON a (v)")
	mustExec(t, src, "INSERT INTO a VALUES (7, 'new')")

	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE a (id INT PRIMARY KEY)")
	for i := 0; i < 300; i++ { // several sealed pages of the old incarnation
		mustExec(t, e, fmt.Sprintf("INSERT INTO a VALUES (%d)", i))
	}
	mustExec(t, e, "SELECT id FROM a WHERE id = 7") // caches a plan on the old schema
	if err := e.RestoreTable("app", dumpAll(t, src)[0]); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, e, "SELECT id, v FROM a")
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 7 || res.Rows[0][1].Str != "new" {
		t.Fatalf("rows after replace = %v", res.Rows)
	}
	if res := mustExec(t, e, "SELECT id FROM a WHERE v = 'new'"); len(res.Rows) != 1 {
		t.Fatalf("restored index lookup = %v", res.Rows)
	}
	mustExec(t, e, "INSERT INTO a VALUES (8, 'later')")
}

func TestDatabaseByteSizeGrows(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE a (id INT PRIMARY KEY, v TEXT)")
	before := e.DatabaseByteSize("app")
	for i := 0; i < 100; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO a VALUES (%d, 'some text payload %d')", i, i))
	}
	after := e.DatabaseByteSize("app")
	if after <= before {
		t.Errorf("byte size did not grow: %d -> %d", before, after)
	}
	mustExec(t, e, "DELETE FROM a WHERE id < 50")
	if shrunk := e.DatabaseByteSize("app"); shrunk >= after {
		t.Errorf("byte size did not shrink after delete: %d -> %d", after, shrunk)
	}
}

func timeAfter50ms() <-chan time.Time { return time.After(50 * time.Millisecond) }
