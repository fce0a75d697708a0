package tpcw

import (
	"math/rand"
	"testing"
	"time"

	"sdp/internal/sqldb"
)

// engineDB adapts a single sqldb.Engine database to the DB interface.
type engineDB struct {
	e  *sqldb.Engine
	db string
}

func (d engineDB) Begin() (Txn, error) { return d.e.Begin(d.db) }

func newLoadedDB(t *testing.T, sc Scale) engineDB {
	t.Helper()
	e := sqldb.NewEngine(sqldb.DefaultConfig())
	if err := e.CreateDatabase("tpcw"); err != nil {
		t.Fatal(err)
	}
	db := engineDB{e: e, db: "tpcw"}
	if err := Load(db, sc); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestLoadRowCounts(t *testing.T) {
	sc := SmallScale(1)
	db := newLoadedDB(t, sc)
	for _, table := range Tables {
		n, err := CountRows(db, table)
		if err != nil {
			t.Fatalf("count %s: %v", table, err)
		}
		if n == 0 {
			t.Errorf("table %s is empty", table)
		}
	}
	items, _ := CountRows(db, "item")
	if items != int64(sc.Items) {
		t.Errorf("items = %d, want %d", items, sc.Items)
	}
	custs, _ := CountRows(db, "customer")
	if custs != int64(sc.Customers) {
		t.Errorf("customers = %d, want %d", custs, sc.Customers)
	}
}

func TestScaleForMBGrows(t *testing.T) {
	small := ScaleForMB(200, 1)
	large := ScaleForMB(1000, 1)
	if large.Items <= small.Items || large.Customers <= small.Customers {
		t.Errorf("scale did not grow: %+v vs %+v", small, large)
	}
}

func TestAllTransactionKindsRun(t *testing.T) {
	db := newLoadedDB(t, SmallScale(2))
	w := NewWorkload(SmallScale(2))
	rng := rand.New(rand.NewSource(3))
	for kind := TxKind(0); kind < numTxKinds; kind++ {
		for i := 0; i < 5; i++ {
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Run(kind, tx, rng); err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("%s commit: %v", kind, err)
			}
		}
	}
}

func TestBuyConfirmConsistency(t *testing.T) {
	db := newLoadedDB(t, SmallScale(4))
	w := NewWorkload(SmallScale(4))
	rng := rand.New(rand.NewSource(5))

	before, _ := CountRows(db, "orders")
	for i := 0; i < 10; i++ {
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(TxBuyConfirm, tx, rng); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	after, _ := CountRows(db, "orders")
	if after != before+10 {
		t.Errorf("orders %d -> %d, want +10", before, after)
	}
	cc, _ := CountRows(db, "cc_xacts")
	if cc != after {
		t.Errorf("cc_xacts = %d, orders = %d (must match)", cc, after)
	}
	// Every order line references an existing order.
	tx, _ := db.Begin()
	res, err := tx.Exec("SELECT COUNT(*) FROM order_line ol LEFT JOIN orders o ON ol.ol_o_id = o.o_id WHERE o.o_id IS NULL")
	if err != nil {
		t.Fatal(err)
	}
	_ = tx.Commit()
	if res.Rows[0][0].Int != 0 {
		t.Errorf("%v orphaned order lines", res.Rows[0][0])
	}
}

func TestMixWriteFractions(t *testing.T) {
	cases := []struct {
		mix Mix
		lo  float64
		hi  float64
	}{
		{BrowsingMix, 0.03, 0.08},
		{ShoppingMix, 0.15, 0.25},
		{OrderingMix, 0.45, 0.55},
	}
	for _, c := range cases {
		f := c.mix.WriteFraction()
		if f < c.lo || f > c.hi {
			t.Errorf("%s write fraction = %v, want in [%v,%v]", c.mix.Name, f, c.lo, c.hi)
		}
	}
}

func TestMixPickMatchesWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	counts := map[TxKind]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[OrderingMix.pick(rng)]++
	}
	writes := counts[TxCartUpdate] + counts[TxBuyConfirm] + counts[TxAdminUpdate]
	frac := float64(writes) / n
	if frac < 0.45 || frac < 0.4 || frac > 0.6 {
		t.Errorf("sampled ordering write fraction = %v", frac)
	}
}

func TestClientRunConcurrent(t *testing.T) {
	db := newLoadedDB(t, SmallScale(6))
	c := &Client{DB: db, Mix: ShoppingMix, Workload: NewWorkload(SmallScale(6))}
	st := c.RunConcurrent(4, 150*time.Millisecond, 11)
	if st.Fatal != 0 {
		t.Fatalf("fatal errors: %+v", st)
	}
	if st.Committed == 0 {
		t.Fatal("no transactions committed")
	}
	if st.TPS() <= 0 {
		t.Errorf("TPS = %v", st.TPS())
	}
}

func TestClassifierDefaults(t *testing.T) {
	if DefaultClassifier(sqldb.ErrDeadlock) != ClassAborted {
		t.Error("deadlock should be ClassAborted")
	}
	if DefaultClassifier(sqldb.ErrLockTimeout) != ClassAborted {
		t.Error("timeout should be ClassAborted")
	}
	if DefaultClassifier(sqldb.ErrNoTable) != ClassFatal {
		t.Error("missing table should be fatal")
	}
}

// IsWrite reports whether the profile updates the database.
func (k TxKind) IsWrite() bool {
	return k == TxCartUpdate || k == TxBuyConfirm || k == TxAdminUpdate
}

// WriteFraction returns the fraction of updating transactions in the mix —
// the write_mix(j) parameter of the paper's availability constraint.
func (m Mix) WriteFraction() float64 {
	total, writes := 0, 0
	for k, w := range m.Weights {
		total += w
		if TxKind(k).IsWrite() {
			writes += w
		}
	}
	if total == 0 {
		return 0
	}
	return float64(writes) / float64(total)
}

// CountRows returns the row count of a table, for sanity checks.
func CountRows(db DB, table string) (int64, error) {
	tx, err := db.Begin()
	if err != nil {
		return 0, err
	}
	defer func() { _ = tx.Rollback() }()
	res, err := tx.Exec("SELECT COUNT(*) FROM " + table)
	if err != nil {
		return 0, err
	}
	if err := tx.Commit(); err != nil {
		return 0, err
	}
	return res.Rows[0][0].Int, nil
}

// Tables lists the table names in load order.
var Tables = []string{"country", "address", "customer", "author", "item", "orders", "order_line", "cc_xacts"}
