package sdp

import (
	"sdp/internal/core"
	"sdp/internal/sqldb"
)

// Conn is a client connection to one database. Connections are routed
// through the controller hierarchy, so the client never learns which
// machines host its data; machine failures and migrations are invisible
// beyond transient retryable errors.
type Conn struct {
	p  *Platform
	db string
}

// Database returns the database name this connection is bound to.
func (c *Conn) Database() string { return c.db }

// Begin starts an ACID transaction.
func (c *Conn) Begin() (*Tx, error) {
	inner, err := c.p.sys.Begin(c.db)
	if err != nil {
		return nil, err
	}
	return &Tx{inner: inner}, nil
}

// Exec runs one statement in its own transaction (autocommit).
func (c *Conn) Exec(sql string, params ...Value) (*Result, error) {
	return c.p.sys.Exec(c.db, sql, params...)
}

// Query is Exec for SELECT statements; provided for readability.
func (c *Conn) Query(sql string, params ...Value) (*Result, error) {
	return c.Exec(sql, params...)
}

// Tx is an ACID transaction spanning all replicas of the database.
type Tx struct {
	inner interface {
		Exec(string, ...Value) (*Result, error)
		ExecStmt(string, sqldb.Statement, ...Value) (*Result, error)
		Commit() error
		Rollback() error
	}
}

// Exec runs one statement inside the transaction.
func (t *Tx) Exec(sql string, params ...Value) (*Result, error) {
	return t.inner.Exec(sql, params...)
}

// Commit makes the transaction durable on every replica (2PC).
func (t *Tx) Commit() error { return t.inner.Commit() }

// Rollback aborts the transaction on every replica.
func (t *Tx) Rollback() error { return t.inner.Rollback() }

// IsRetryable reports whether an error is transient (deadlock victim, lock
// timeout, proactive rejection during recovery, machine failure) and the
// transaction can simply be retried.
func IsRetryable(err error) bool { return core.IsRetryable(err) }
