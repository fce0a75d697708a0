// Package system implements the paper's top-level system controller: it
// coordinates geographically distributed colos, routes client database
// connection requests to an appropriate colo (replication configuration,
// load, proximity), and asynchronously replicates each client database to
// one or more disaster-recovery colos. Within a colo the platform gives
// strong ACID guarantees via synchronous replication; across colos it
// deliberately weakens to asynchronous replication for latency, exactly as
// the paper prescribes for disaster recovery.
package system

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"sdp/internal/colo"
	"sdp/internal/core"
	"sdp/internal/obs"
	"sdp/internal/sla"
	"sdp/internal/sqldb"
)

// Sentinel errors.
var (
	// ErrNoColo is returned for operations naming an unknown colo.
	ErrNoColo = errors.New("system: no such colo")
	// ErrNoDatabase is returned when routing an unknown database.
	ErrNoDatabase = errors.New("system: no such database")
	// ErrColoDown is returned when the primary colo of a database has
	// failed and no disaster-recovery replica was configured.
	ErrColoDown = errors.New("system: primary colo down")
)

// Controller is the fault-tolerant system controller. Like the colo
// controller it keeps no per-connection state (clients connect through it
// only at setup), so hot-standby pairing suffices for its own fault
// tolerance.
type Controller struct {
	metrics *systemMetrics

	mu    sync.Mutex
	colos map[string]*coloEntry
	dbs   map[string]*dbEntry
	repl  *replicator
}

type coloEntry struct {
	ctrl   *colo.Controller
	region string
	down   bool
}

type dbEntry struct {
	name    string
	primary string   // colo name
	dr      []string // disaster-recovery colo names
	req     sla.Resources
}

// NewWithRegistry creates a system controller reporting into reg. The
// platform passes one shared registry here and to every colo it creates, so
// a single Snapshot covers all layers.
func NewWithRegistry(reg *obs.Registry) *Controller {
	s := &Controller{
		metrics: newSystemMetrics(reg),
		colos:   make(map[string]*coloEntry),
		dbs:     make(map[string]*dbEntry),
	}
	s.repl = newReplicator(s)
	reg.OnSnapshot(func() { s.metrics.replPending.Set(float64(s.repl.totalPending())) })
	return s
}

// AddColo registers a colo controller under a region label used for
// proximity routing.
func (s *Controller) AddColo(c *colo.Controller, region string) {
	s.mu.Lock()
	s.colos[c.Name()] = &coloEntry{ctrl: c, region: region}
	s.mu.Unlock()
}

// Colos returns every registered colo controller, sorted by name — the
// enumerator platform-wide sweeps (adaptive placement, admin reports) walk
// instead of re-deriving colo names from the health report.
func (s *Controller) Colos() []*colo.Controller {
	s.mu.Lock()
	names := make([]string, 0, len(s.colos))
	for n := range s.colos {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*colo.Controller, len(names))
	for i, n := range names {
		out[i] = s.colos[n].ctrl
	}
	s.mu.Unlock()
	return out
}

// Colo returns the named colo controller.
func (s *Controller) Colo(name string) (*colo.Controller, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.colos[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoColo, name)
	}
	return e.ctrl, nil
}

// CreateDatabase creates a database with its primary in primaryColo and
// asynchronously replicated copies in each drColo.
func (s *Controller) CreateDatabase(db string, req sla.Resources, replicas int, primaryColo string, drColos ...string) error {
	s.mu.Lock()
	if _, dup := s.dbs[db]; dup {
		s.mu.Unlock()
		return fmt.Errorf("system: database %s already exists", db)
	}
	pe, ok := s.colos[primaryColo]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNoColo, primaryColo)
	}
	var drs []*coloEntry
	for _, name := range drColos {
		e, ok := s.colos[name]
		if !ok {
			s.mu.Unlock()
			return fmt.Errorf("%w: %s", ErrNoColo, name)
		}
		drs = append(drs, e)
	}
	s.mu.Unlock()

	if err := pe.ctrl.CreateDatabase(db, req, replicas); err != nil {
		return err
	}
	for _, e := range drs {
		if err := e.ctrl.CreateDatabase(db, req, replicas); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.dbs[db] = &dbEntry{name: db, primary: primaryColo, dr: append([]string{}, drColos...), req: req}
	s.mu.Unlock()
	return nil
}

// Route returns the colo a new connection for db should go to, preferring
// the primary and falling back to a promoted DR colo.
func (s *Controller) Route(db string) (*colo.Controller, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.dbs[db]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoDatabase, db)
	}
	pe := s.colos[e.primary]
	if pe == nil || pe.down {
		return nil, ErrColoDown
	}
	s.metrics.routes.With("primary").Inc()
	return pe.ctrl, nil
}

// RouteRead returns a colo suitable for a read-only connection from the
// given client region: a DR colo in the same region when one exists (the
// paper's geographic-proximity routing), otherwise the primary.
func (s *Controller) RouteRead(db, clientRegion string) (*colo.Controller, error) {
	s.mu.Lock()
	e, ok := s.dbs[db]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNoDatabase, db)
	}
	for _, name := range e.dr {
		if ce := s.colos[name]; ce != nil && !ce.down && ce.region == clientRegion {
			s.mu.Unlock()
			s.metrics.routes.With("dr_proximity").Inc()
			return ce.ctrl, nil
		}
	}
	s.mu.Unlock()
	return s.Route(db)
}

// Begin opens a read-write transaction on db, routed to the primary colo.
// Writes are captured and, after a successful commit, shipped
// asynchronously to the DR colos.
func (s *Controller) Begin(db string) (*Txn, error) {
	co, err := s.Route(db)
	if err != nil {
		return nil, err
	}
	inner, err := co.Begin(db)
	if err != nil {
		return nil, err
	}
	return &Txn{sys: s, db: db, inner: inner}, nil
}

// Exec runs one autocommitted statement on db.
func (s *Controller) Exec(db, sql string, params ...sqldb.Value) (*sqldb.Result, error) {
	t, err := s.Begin(db)
	if err != nil {
		return nil, err
	}
	res, err := t.Exec(sql, params...)
	if err != nil {
		_ = t.Rollback()
		return nil, err
	}
	if err := t.Commit(); err != nil {
		return nil, err
	}
	return res, nil
}

// ColoHealth is one colo's entry in the platform health report: the colo's
// own liveness plus the system controller's view of it (region, disaster
// state).
type ColoHealth struct {
	colo.Health
	// Region is the proximity-routing region label.
	Region string `json:"region"`
	// Down reports whether a disaster marked the colo down.
	Down bool `json:"down"`
}

// Health is the platform-wide liveness report aggregated by the system
// controller, the source for the admin plane's /healthz and /readyz.
type Health struct {
	// Colos lists every registered colo's health, sorted by name.
	Colos []ColoHealth `json:"colos"`
	// Databases counts databases the system controller routes.
	Databases int `json:"databases"`
}

// Health aggregates every colo's liveness into one report.
func (s *Controller) Health() Health {
	s.mu.Lock()
	names := make([]string, 0, len(s.colos))
	for n := range s.colos {
		names = append(names, n)
	}
	sort.Strings(names)
	entries := make([]*coloEntry, len(names))
	for i, n := range names {
		entries[i] = s.colos[n]
	}
	h := Health{Databases: len(s.dbs)}
	s.mu.Unlock()
	for _, e := range entries {
		h.Colos = append(h.Colos, ColoHealth{Health: e.ctrl.Health(), Region: e.region, Down: e.down})
	}
	return h
}

// FailColo marks a colo as down (a disaster), returning the databases whose
// primary was there.
func (s *Controller) FailColo(name string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.colos[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoColo, name)
	}
	e.down = true
	var affected []string
	for db, de := range s.dbs {
		if de.primary == name {
			affected = append(affected, db)
		}
	}
	s.metrics.coloFailures.Inc()
	s.metrics.reg.TraceEvent("dr", name, "colo_failed", fmt.Sprintf("%d primaries affected", len(affected)))
	return affected, nil
}

// PromoteDR makes the named DR colo the new primary for db after a
// disaster. Transactions committed at the old primary but not yet shipped
// are lost — the weaker cross-colo guarantee the paper accepts for
// disaster recovery.
func (s *Controller) PromoteDR(db, coloName string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.dbs[db]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoDatabase, db)
	}
	for i, name := range e.dr {
		if name == coloName {
			e.dr = append(e.dr[:i], e.dr[i+1:]...)
			if old := s.colos[e.primary]; old != nil && !old.down {
				// Old primary still alive: demote it to DR.
				e.dr = append(e.dr, e.primary)
			}
			e.primary = coloName
			s.metrics.promotions.Inc()
			s.metrics.reg.TraceEvent("dr", db, "promoted", coloName)
			return nil
		}
	}
	return fmt.Errorf("system: colo %s is not a DR replica of %s", coloName, db)
}

// Flush blocks until all pending asynchronous replication for db has been
// applied (used by tests and controlled failovers).
func (s *Controller) Flush(db string) { s.repl.flush(db) }

// drTargets returns the DR colo controllers of db.
func (s *Controller) drTargets(db string) []*colo.Controller {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.dbs[db]
	if !ok {
		return nil
	}
	var out []*colo.Controller
	for _, name := range e.dr {
		if ce := s.colos[name]; ce != nil && !ce.down {
			out = append(out, ce.ctrl)
		}
	}
	return out
}

// Txn is a client transaction routed through the system controller.
type Txn struct {
	sys    *Controller
	db     string
	inner  *core.Txn
	writes []capturedWrite

	// Distributed-tracing state: parent is the caller's span (e.g. the wire
	// server's), trace the child context this transaction's work runs under.
	parent     obs.SpanContext
	trace      obs.SpanContext
	traceStart time.Time
}

// SetTraceContext threads a trace context into the transaction. Work routed
// through it — core read routing, 2PC phases, engine statement execution,
// WAL flushes — records spans parented (transitively) under a "system txn"
// span created here and finished when the transaction commits or rolls
// back. The zero context disables tracing. Installing a new context
// replaces the previous one, so in explicit multi-statement transactions
// the txn span covers the run from the last traced statement to the commit.
func (t *Txn) SetTraceContext(tc obs.SpanContext) {
	if !tc.Traced() {
		if t.trace.Traced() {
			t.trace = obs.SpanContext{}
			t.inner.SetTraceContext(obs.SpanContext{})
		}
		return
	}
	t.parent = tc
	t.trace = obs.SpanContext{TraceID: tc.TraceID, SpanID: obs.NewTraceID(), Sampled: true}
	t.traceStart = time.Now()
	t.inner.SetTraceContext(t.trace)
}

// finishSpan records the transaction's "system" span, if one is open.
func (t *Txn) finishSpan(name string) {
	if !t.trace.Traced() {
		return
	}
	t.sys.metrics.reg.Spans().Record(obs.Span{
		TraceID:  t.trace.TraceID,
		SpanID:   t.trace.SpanID,
		Parent:   t.parent.SpanID,
		Scope:    "system",
		Name:     name,
		ID:       t.db,
		Start:    t.traceStart,
		Duration: time.Since(t.traceStart),
	})
	t.trace = obs.SpanContext{}
}

type capturedWrite struct {
	sql    string
	params []sqldb.Value
}

// Exec executes a statement at the primary, capturing writes for
// asynchronous DR shipping.
func (t *Txn) Exec(sql string, params ...sqldb.Value) (*sqldb.Result, error) {
	stmt, err := t.inner.Parse(sql)
	if err != nil {
		return nil, err
	}
	return t.ExecStmt(sql, stmt, params...)
}

// ExecStmt executes an already-parsed statement at the primary, skipping
// the parse on the hot path (the wire server's prepared statements land
// here). The SQL text is still required because DR replication ships text,
// not parse trees.
func (t *Txn) ExecStmt(sql string, stmt sqldb.Statement, params ...sqldb.Value) (*sqldb.Result, error) {
	res, err := t.inner.ExecStmt(stmt, params...)
	if err != nil {
		return nil, err
	}
	if _, isSelect := stmt.(*sqldb.SelectStmt); !isSelect {
		t.writes = append(t.writes, capturedWrite{sql: sql, params: params})
	}
	return res, nil
}

// Commit commits at the primary colo and, on success, enqueues the
// captured writes for asynchronous replay at the DR colos.
func (t *Txn) Commit() error {
	err := t.inner.Commit()
	t.finishSpan("txn")
	if err != nil {
		return err
	}
	if len(t.writes) > 0 {
		t.sys.repl.enqueue(t.db, t.writes)
	}
	return nil
}

// Rollback aborts the transaction at the primary.
func (t *Txn) Rollback() error {
	err := t.inner.Rollback()
	t.finishSpan("txn")
	return err
}
