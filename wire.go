package sdp

import (
	"errors"
	"fmt"
	"sync"

	"sdp/internal/sqldb"
	"sdp/internal/wire"
)

// ErrBadToken is returned by the wire handshake when a token does not
// match the one registered for the database.
var ErrBadToken = errors.New("sdp: bad auth token")

// wireAuth holds the platform's per-tenant token table. It lives outside
// Platform's main struct so the zero-token case stays allocation-free.
type wireAuth struct {
	mu     sync.RWMutex
	tokens map[string]string
}

// SetToken registers the auth token wire clients must present to open
// sessions on db. Databases without a registered token accept any token
// (useful for tests and demos); production tenants set one at provisioning
// time.
func (p *Platform) SetToken(db, token string) {
	p.auth.mu.Lock()
	if p.auth.tokens == nil {
		p.auth.tokens = make(map[string]string)
	}
	p.auth.tokens[db] = token
	p.auth.mu.Unlock()
}

// wireBackend adapts Platform to the wire.Backend interface. It is a
// separate type (not methods on Platform) so Authenticate/Begin do not
// pollute the public platform API.
type wireBackend struct{ p *Platform }

// Authenticate admits a handshake when the database routes to a live colo
// and the token matches the registered one (if any).
func (b wireBackend) Authenticate(db, token string) error {
	if _, err := b.p.sys.Route(db); err != nil {
		return err
	}
	b.p.auth.mu.RLock()
	want, registered := b.p.auth.tokens[db]
	b.p.auth.mu.RUnlock()
	if registered && want != token {
		return fmt.Errorf("%w for database %s", ErrBadToken, db)
	}
	return nil
}

// Begin opens a routed transaction; *system.Txn satisfies wire.Txn.
func (b wireBackend) Begin(db string) (wire.Txn, error) {
	t, err := b.p.sys.Begin(db)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// ServeWire starts the wire-protocol TCP server on Config.Listen (use
// "127.0.0.1:0" for an ephemeral port; see Server.Addr). The server shares
// the platform's observability registry, so wire_* metrics appear in
// Metrics().Snapshot() next to every other layer. Close the returned
// server to drain gracefully.
func (p *Platform) ServeWire() (*wire.Server, error) {
	if p.cfg.Listen == "" {
		return nil, errors.New("sdp: Config.Listen is empty")
	}
	return wire.Serve(p.cfg.Listen, wire.ServerConfig{
		Backend:     wireBackend{p: p},
		Metrics:     p.reg,
		Stmts:       p.stmts,
		Banner:      "sdp/" + wireBannerVersion,
		TraceSample: p.cfg.TraceSample,
		SlowQuery:   p.cfg.SlowQuery,
	})
}

// wireBannerVersion identifies the server build in MsgWelcome banners.
const wireBannerVersion = "8"

// Stmt is a prepared statement on an in-process connection: parsed once,
// executed many times. Each execution skips the parser and runs the plan
// the statement carries for the replica it lands on, the same hot path the
// wire server's MsgExec takes.
type Stmt struct {
	c    *Conn
	sql  string
	stmt sqldb.Statement
}

// Prepare parses sql through the platform's statement cache and returns a
// reusable statement handle: connections preparing one text share one
// parsed statement and the plans bound from it.
func (c *Conn) Prepare(sql string) (*Stmt, error) {
	stmt, err := c.p.stmts.Parse(sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{c: c, sql: sql, stmt: stmt}, nil
}

// Exec runs the prepared statement in its own transaction (autocommit).
func (s *Stmt) Exec(params ...Value) (*Result, error) {
	t, err := s.c.p.sys.Begin(s.c.db)
	if err != nil {
		return nil, err
	}
	res, err := t.ExecStmt(s.sql, s.stmt, params...)
	if err != nil {
		_ = t.Rollback()
		return nil, err
	}
	if err := t.Commit(); err != nil {
		return nil, err
	}
	return res, nil
}

// ExecPrepared runs a prepared statement inside the transaction.
func (t *Tx) ExecPrepared(s *Stmt, params ...Value) (*Result, error) {
	return t.inner.ExecStmt(s.sql, s.stmt, params...)
}
