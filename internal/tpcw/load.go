package tpcw

import (
	"fmt"
	"math/rand"
	"strings"
)

// Scale controls the size of a generated TPC-W database. The paper's
// individual application databases are 200–1000 MB; at simulator scale the
// same shape is preserved with proportionally fewer rows (see DESIGN.md on
// proportional scaling).
type Scale struct {
	Items     int
	Customers int
	Orders    int
	// LinesPerOrder is the average order size.
	LinesPerOrder int
	Seed          int64
}

// SmallScale is a compact database for unit tests and quick experiments.
func SmallScale(seed int64) Scale {
	return Scale{Items: 100, Customers: 50, Orders: 60, LinesPerOrder: 3, Seed: seed}
}

// ScaleForMB approximates a database of the given nominal size in the
// paper's terms, preserving TPC-W's item:customer:order ratios.
func ScaleForMB(mb float64, seed int64) Scale {
	f := mb / 200.0 // 200 MB ~ the base scale below
	if f < 0.1 {
		f = 0.1
	}
	return Scale{
		Items:         int(200 * f),
		Customers:     int(180 * f),
		Orders:        int(160 * f),
		LinesPerOrder: 3,
		Seed:          seed,
	}
}

// Load creates the TPC-W schema and populates it at the given scale.
func Load(db DB, sc Scale) error {
	if sc.Items <= 0 || sc.Customers <= 0 {
		return fmt.Errorf("tpcw: invalid scale %+v", sc)
	}
	if sc.LinesPerOrder <= 0 {
		sc.LinesPerOrder = 3
	}
	if err := execAll(db, DDL); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(sc.Seed))

	// Countries (fixed small table).
	countries := []string{"United States", "United Kingdom", "Canada", "Germany", "France", "Japan", "Netherlands", "Switzerland", "Australia", "India"}
	var rows []string
	for i, name := range countries {
		rows = append(rows, fmt.Sprintf("(%d, '%s')", i+1, name))
	}
	if err := batchInsert(db, "INSERT INTO country VALUES ", rows, 50); err != nil {
		return err
	}

	// Addresses: one per customer.
	rows = rows[:0]
	for i := 1; i <= sc.Customers; i++ {
		rows = append(rows, fmt.Sprintf("(%d, '%d %s St', '%s', '%05d', %d)",
			i, 1+rng.Intn(999), randWord(rng, 6), randWord(rng, 8), rng.Intn(100000), 1+rng.Intn(len(countries))))
	}
	if err := batchInsert(db, "INSERT INTO address VALUES ", rows, 50); err != nil {
		return err
	}

	// Customers.
	rows = rows[:0]
	for i := 1; i <= sc.Customers; i++ {
		rows = append(rows, fmt.Sprintf("(%d, 'user%d', '%s', '%s', %d, %0.2f, %0.2f, 0.0)",
			i, i, randWord(rng, 7), randWord(rng, 9), i, float64(rng.Intn(50))/100, float64(rng.Intn(100000))/100))
	}
	if err := batchInsert(db, "INSERT INTO customer VALUES ", rows, 50); err != nil {
		return err
	}

	// Authors: roughly a quarter of items.
	numAuthors := sc.Items/4 + 1
	rows = rows[:0]
	for i := 1; i <= numAuthors; i++ {
		rows = append(rows, fmt.Sprintf("(%d, '%s', '%s')", i, randWord(rng, 6), randWord(rng, 10)))
	}
	if err := batchInsert(db, "INSERT INTO author VALUES ", rows, 50); err != nil {
		return err
	}

	// Items.
	rows = rows[:0]
	for i := 1; i <= sc.Items; i++ {
		rows = append(rows, fmt.Sprintf("(%d, 'The %s %s', %d, '%s', %0.2f, %d, 0)",
			i, randWord(rng, 8), randWord(rng, 8), 1+rng.Intn(numAuthors),
			Subjects[rng.Intn(len(Subjects))], 1+float64(rng.Intn(9900))/100, 10+rng.Intn(90)))
	}
	if err := batchInsert(db, "INSERT INTO item VALUES ", rows, 50); err != nil {
		return err
	}

	// Orders with lines and credit-card transactions.
	rows = rows[:0]
	var lineRows, ccRows []string
	olID := 0
	for o := 1; o <= sc.Orders; o++ {
		total := 0.0
		lines := 1 + rng.Intn(sc.LinesPerOrder*2-1)
		for l := 0; l < lines; l++ {
			olID++
			item := 1 + rng.Intn(sc.Items)
			qty := 1 + rng.Intn(5)
			total += float64(qty) * 10
			lineRows = append(lineRows, fmt.Sprintf("(%d, %d, %d, %d, 0.0)", olID, o, item, qty))
		}
		rows = append(rows, fmt.Sprintf("(%d, %d, %d, %0.2f, 'SHIPPED')", o, 1+rng.Intn(sc.Customers), 1000000+o, total))
		ccRows = append(ccRows, fmt.Sprintf("(%d, 'VISA', %0.2f, %d)", o, total, 1000000+o))
	}
	if err := batchInsert(db, "INSERT INTO orders VALUES ", rows, 50); err != nil {
		return err
	}
	if err := batchInsert(db, "INSERT INTO order_line VALUES ", lineRows, 50); err != nil {
		return err
	}
	if err := batchInsert(db, "INSERT INTO cc_xacts VALUES ", ccRows, 50); err != nil {
		return err
	}

	return execAll(db, Indexes)
}

// batchInsert issues multi-row INSERTs of at most batch rows each, one
// transaction per statement.
func batchInsert(db DB, prefix string, rows []string, batch int) error {
	for len(rows) > 0 {
		n := batch
		if n > len(rows) {
			n = len(rows)
		}
		stmt := prefix + strings.Join(rows[:n], ", ")
		rows = rows[n:]
		tx, err := db.Begin()
		if err != nil {
			return err
		}
		if _, err := tx.Exec(stmt); err != nil {
			_ = tx.Rollback()
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

var letters = []byte("abcdefghijklmnopqrstuvwxyz")

func randWord(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}
