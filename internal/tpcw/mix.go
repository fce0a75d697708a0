package tpcw

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"sdp/internal/sqldb"
)

// TxKind identifies one TPC-W transaction profile.
type TxKind int

// Transaction profiles. The read-only profiles correspond to TPC-W's
// browsing interactions, the updating ones to its ordering interactions.
const (
	TxHome TxKind = iota
	TxProductDetail
	TxSearchBySubject
	TxSearchByTitle
	TxOrderStatus
	TxBestSellers
	TxCartUpdate
	TxBuyConfirm
	TxAdminUpdate
	numTxKinds
)

// String names the profile.
func (k TxKind) String() string {
	switch k {
	case TxHome:
		return "home"
	case TxProductDetail:
		return "product-detail"
	case TxSearchBySubject:
		return "search-subject"
	case TxSearchByTitle:
		return "search-title"
	case TxOrderStatus:
		return "order-status"
	case TxBestSellers:
		return "best-sellers"
	case TxCartUpdate:
		return "cart-update"
	case TxBuyConfirm:
		return "buy-confirm"
	case TxAdminUpdate:
		return "admin-update"
	default:
		return "unknown"
	}
}

// Mix is a weighted distribution over transaction profiles.
type Mix struct {
	Name    string
	Weights [numTxKinds]int
}

// pick draws a profile according to the weights.
func (m Mix) pick(rng *rand.Rand) TxKind {
	total := 0
	for _, w := range m.Weights {
		total += w
	}
	n := rng.Intn(total)
	for k, w := range m.Weights {
		if n < w {
			return TxKind(k)
		}
		n -= w
	}
	return TxHome
}

// The three standard TPC-W mixes: ~5%, ~20% and ~50% updating
// transactions, as in the paper's Figures 2–7.
var (
	BrowsingMix = Mix{Name: "browsing", Weights: [numTxKinds]int{
		TxHome: 20, TxProductDetail: 30, TxSearchBySubject: 25,
		TxSearchByTitle: 5, TxOrderStatus: 10, TxBestSellers: 5,
		TxCartUpdate: 3, TxBuyConfirm: 1, TxAdminUpdate: 1,
	}}
	ShoppingMix = Mix{Name: "shopping", Weights: [numTxKinds]int{
		TxHome: 15, TxProductDetail: 25, TxSearchBySubject: 20,
		TxSearchByTitle: 3, TxOrderStatus: 12, TxBestSellers: 5,
		TxCartUpdate: 12, TxBuyConfirm: 6, TxAdminUpdate: 2,
	}}
	OrderingMix = Mix{Name: "ordering", Weights: [numTxKinds]int{
		TxHome: 10, TxProductDetail: 15, TxSearchBySubject: 10,
		TxSearchByTitle: 2, TxOrderStatus: 8, TxBestSellers: 5,
		TxCartUpdate: 25, TxBuyConfirm: 20, TxAdminUpdate: 5,
	}}
)

// Mixes lists the three standard mixes.
var Mixes = []Mix{BrowsingMix, ShoppingMix, OrderingMix}

// Workload holds the shared mutable state of a running TPC-W workload:
// scale parameters, item-popularity skew, and the global ID allocators for
// new orders and order lines (shared across sessions and replicas).
type Workload struct {
	Scale Scale
	// ItemSkew is the probability that an item access hits the hottest 20%
	// of items (a two-level popularity model). The default 0.8 gives the
	// classic 80/20 shape; 0 makes item access uniform, which maximises
	// buffer-pool pressure.
	ItemSkew float64

	nextOrder atomic.Int64
	nextLine  atomic.Int64
}

// NewWorkload prepares the shared state for clients of a database loaded at
// the given scale.
func NewWorkload(sc Scale) *Workload {
	w := &Workload{Scale: sc, ItemSkew: 0.8}
	// Loaded orders use IDs 1..Orders; lines 1..~Orders*2*LinesPerOrder.
	w.nextOrder.Store(int64(sc.Orders) + 1)
	w.nextLine.Store(int64(sc.Orders*sc.LinesPerOrder*2) + 1)
	return w
}

// zipfItem draws an item ID under the two-level popularity model: with
// probability ItemSkew the access lands uniformly in the hottest fifth of
// the items, otherwise uniformly anywhere.
func (w *Workload) zipfItem(rng *rand.Rand) int64 {
	n := int64(w.Scale.Items)
	if rng.Float64() < w.ItemSkew {
		hot := n / 5
		if hot < 1 {
			hot = 1
		}
		return 1 + rng.Int63n(hot)
	}
	return 1 + rng.Int63n(n)
}

func (w *Workload) randCustomer(rng *rand.Rand) int64 {
	return 1 + rng.Int63n(int64(w.Scale.Customers))
}

// Run executes one transaction of the given kind inside tx. The caller owns
// commit/rollback.
func (w *Workload) Run(kind TxKind, tx Txn, rng *rand.Rand) error {
	switch kind {
	case TxHome:
		return w.txHome(tx, rng)
	case TxProductDetail:
		return w.txProductDetail(tx, rng)
	case TxSearchBySubject:
		return w.txSearchBySubject(tx, rng)
	case TxSearchByTitle:
		return w.txSearchByTitle(tx, rng)
	case TxOrderStatus:
		return w.txOrderStatus(tx, rng)
	case TxBestSellers:
		return w.txBestSellers(tx, rng)
	case TxCartUpdate:
		return w.txCartUpdate(tx, rng)
	case TxBuyConfirm:
		return w.txBuyConfirm(tx, rng)
	case TxAdminUpdate:
		return w.txAdminUpdate(tx, rng)
	default:
		return fmt.Errorf("tpcw: unknown transaction kind %d", kind)
	}
}

func (w *Workload) txHome(tx Txn, rng *rand.Rand) error {
	if _, err := tx.Exec("SELECT c_fname, c_lname FROM customer WHERE c_id = ?", sqldb.NewInt(w.randCustomer(rng))); err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		if _, err := tx.Exec("SELECT i_title, i_cost FROM item WHERE i_id = ?", sqldb.NewInt(w.zipfItem(rng))); err != nil {
			return err
		}
	}
	return nil
}

func (w *Workload) txProductDetail(tx Txn, rng *rand.Rand) error {
	item := w.zipfItem(rng)
	res, err := tx.Exec("SELECT i_title, i_a_id, i_cost, i_stock FROM item WHERE i_id = ?", sqldb.NewInt(item))
	if err != nil {
		return err
	}
	if len(res.Rows) == 1 {
		if _, err := tx.Exec("SELECT a_fname, a_lname FROM author WHERE a_id = ?", sqldb.NewInt(res.Rows[0][1].Int)); err != nil {
			return err
		}
	}
	return nil
}

func (w *Workload) txSearchBySubject(tx Txn, rng *rand.Rand) error {
	subject := Subjects[rng.Intn(len(Subjects))]
	_, err := tx.Exec("SELECT i_id, i_title, i_cost FROM item WHERE i_subject = ? ORDER BY i_title LIMIT 20", sqldb.NewText(subject))
	return err
}

func (w *Workload) txSearchByTitle(tx Txn, rng *rand.Rand) error {
	pat := "%" + string(letters[rng.Intn(len(letters))]) + string(letters[rng.Intn(len(letters))]) + "%"
	_, err := tx.Exec("SELECT i_id, i_title FROM item WHERE i_title LIKE ? LIMIT 10", sqldb.NewText(pat))
	return err
}

func (w *Workload) txOrderStatus(tx Txn, rng *rand.Rand) error {
	cust := w.randCustomer(rng)
	res, err := tx.Exec("SELECT o_id, o_total, o_status FROM orders WHERE o_c_id = ? ORDER BY o_id DESC LIMIT 1", sqldb.NewInt(cust))
	if err != nil {
		return err
	}
	if len(res.Rows) == 1 {
		_, err = tx.Exec(
			"SELECT ol.ol_qty, i.i_title FROM order_line ol JOIN item i ON ol.ol_i_id = i.i_id WHERE ol.ol_o_id = ?",
			sqldb.NewInt(res.Rows[0][0].Int))
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *Workload) txBestSellers(tx Txn, rng *rand.Rand) error {
	subject := Subjects[rng.Intn(len(Subjects))]
	_, err := tx.Exec(
		`SELECT i_id, i_title, i_total_sold FROM item WHERE i_subject = ? ORDER BY i_total_sold DESC LIMIT 10`,
		sqldb.NewText(subject))
	return err
}

func (w *Workload) txCartUpdate(tx Txn, rng *rand.Rand) error {
	item := w.zipfItem(rng)
	qty := 1 + rng.Intn(3)
	_, err := tx.Exec("UPDATE item SET i_stock = i_stock - ? WHERE i_id = ? AND i_stock >= ?",
		sqldb.NewInt(int64(qty)), sqldb.NewInt(item), sqldb.NewInt(int64(qty)))
	return err
}

func (w *Workload) txBuyConfirm(tx Txn, rng *rand.Rand) error {
	cust := w.randCustomer(rng)
	orderID := w.nextOrder.Add(1)
	lines := 1 + rng.Intn(4)
	total := 0.0
	for l := 0; l < lines; l++ {
		item := w.zipfItem(rng)
		qty := int64(1 + rng.Intn(3))
		lineID := w.nextLine.Add(1)
		if _, err := tx.Exec("INSERT INTO order_line VALUES (?, ?, ?, ?, 0.0)",
			sqldb.NewInt(lineID), sqldb.NewInt(orderID), sqldb.NewInt(item), sqldb.NewInt(qty)); err != nil {
			return err
		}
		if _, err := tx.Exec("UPDATE item SET i_stock = i_stock - ?, i_total_sold = i_total_sold + ? WHERE i_id = ?",
			sqldb.NewInt(qty), sqldb.NewInt(qty), sqldb.NewInt(item)); err != nil {
			return err
		}
		total += float64(qty) * 12.5
	}
	if _, err := tx.Exec("INSERT INTO orders VALUES (?, ?, ?, ?, 'PENDING')",
		sqldb.NewInt(orderID), sqldb.NewInt(cust), sqldb.NewInt(2000000+orderID), sqldb.NewFloat(total)); err != nil {
		return err
	}
	if _, err := tx.Exec("INSERT INTO cc_xacts VALUES (?, 'VISA', ?, ?)",
		sqldb.NewInt(orderID), sqldb.NewFloat(total), sqldb.NewInt(2000000+orderID)); err != nil {
		return err
	}
	_, err := tx.Exec("UPDATE customer SET c_balance = c_balance - ?, c_ytd_pmt = c_ytd_pmt + ? WHERE c_id = ?",
		sqldb.NewFloat(total), sqldb.NewFloat(total), sqldb.NewInt(cust))
	return err
}

func (w *Workload) txAdminUpdate(tx Txn, rng *rand.Rand) error {
	item := w.zipfItem(rng)
	_, err := tx.Exec("UPDATE item SET i_cost = i_cost * 1.01 WHERE i_id = ?", sqldb.NewInt(item))
	return err
}
