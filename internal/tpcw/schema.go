// Package tpcw implements the evaluation workload of the paper: the TPC-W
// benchmark's database schema, a scalable data generator, and the three
// standard transaction mixes (browsing, shopping, ordering) issued directly
// against the data platform's SQL API — the paper likewise bypasses the
// application servers and drives the database operations directly.
package tpcw

import (
	"fmt"

	"sdp/internal/sqldb"
)

// DB abstracts the system under test: anything that can begin transactions.
// Both a single sqldb.Engine and the cluster controller satisfy it through
// thin adapters.
type DB interface {
	Begin() (Txn, error)
}

// Txn is one transaction of the system under test.
type Txn interface {
	Exec(sql string, params ...sqldb.Value) (*sqldb.Result, error)
	Commit() error
	Rollback() error
}

// DDL is the TPC-W schema: the eight core tables of the benchmark's
// bookstore (country, address, customer, author, item, orders, order_line,
// cc_xacts), with the columns the transaction mixes touch.
var DDL = []string{
	`CREATE TABLE country (
		co_id INT PRIMARY KEY,
		co_name TEXT NOT NULL
	)`,
	`CREATE TABLE address (
		addr_id INT PRIMARY KEY,
		addr_street TEXT NOT NULL,
		addr_city TEXT NOT NULL,
		addr_zip TEXT,
		addr_co_id INT NOT NULL
	)`,
	`CREATE TABLE customer (
		c_id INT PRIMARY KEY,
		c_uname TEXT NOT NULL,
		c_fname TEXT NOT NULL,
		c_lname TEXT NOT NULL,
		c_addr_id INT NOT NULL,
		c_discount FLOAT NOT NULL,
		c_balance FLOAT NOT NULL,
		c_ytd_pmt FLOAT NOT NULL
	)`,
	`CREATE TABLE author (
		a_id INT PRIMARY KEY,
		a_fname TEXT NOT NULL,
		a_lname TEXT NOT NULL
	)`,
	`CREATE TABLE item (
		i_id INT PRIMARY KEY,
		i_title TEXT NOT NULL,
		i_a_id INT NOT NULL,
		i_subject TEXT NOT NULL,
		i_cost FLOAT NOT NULL,
		i_stock INT NOT NULL,
		i_total_sold INT NOT NULL
	)`,
	`CREATE TABLE orders (
		o_id INT PRIMARY KEY,
		o_c_id INT NOT NULL,
		o_date INT NOT NULL,
		o_total FLOAT NOT NULL,
		o_status TEXT NOT NULL
	)`,
	`CREATE TABLE order_line (
		ol_id INT PRIMARY KEY,
		ol_o_id INT NOT NULL,
		ol_i_id INT NOT NULL,
		ol_qty INT NOT NULL,
		ol_discount FLOAT NOT NULL
	)`,
	`CREATE TABLE cc_xacts (
		cx_o_id INT PRIMARY KEY,
		cx_type TEXT NOT NULL,
		cx_amt FLOAT NOT NULL,
		cx_auth_date INT NOT NULL
	)`,
}

// Indexes are the secondary indexes the transaction mixes rely on.
var Indexes = []string{
	`CREATE INDEX idx_customer_uname ON customer (c_uname)`,
	`CREATE INDEX idx_item_subject ON item (i_subject)`,
	`CREATE INDEX idx_orders_cid ON orders (o_c_id)`,
	`CREATE INDEX idx_ol_oid ON order_line (ol_o_id)`,
	`CREATE INDEX idx_ol_iid ON order_line (ol_i_id)`,
}

// Subjects are the item subject categories used for browsing.
var Subjects = []string{"ARTS", "BIOGRAPHIES", "BUSINESS", "CHILDREN", "COMPUTERS", "COOKING", "HEALTH", "HISTORY", "HOME", "HUMOR", "LITERATURE", "MYSTERY", "NON-FICTION", "PARENTING", "POLITICS", "REFERENCE", "RELIGION", "ROMANCE", "SELF-HELP", "SCIENCE-NATURE", "SCIENCE-FICTION", "SPORTS", "YOUTH", "TRAVEL"}

// execAll runs each statement in its own transaction.
func execAll(db DB, stmts []string) error {
	for _, s := range stmts {
		tx, err := db.Begin()
		if err != nil {
			return err
		}
		if _, err := tx.Exec(s); err != nil {
			_ = tx.Rollback()
			return fmt.Errorf("tpcw: %q: %w", s[:min(40, len(s))], err)
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}
