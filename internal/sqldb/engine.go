package sqldb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sdp/internal/obs"
	"sdp/internal/twopc"
	"sdp/internal/wal"
)

// Config holds the tunables of one engine instance. The defaults model a
// small commodity DBMS installation as in the paper's experimental setup
// (MySQL 5 with a fixed buffer pool).
type Config struct {
	// PoolPages is the buffer-pool capacity in pages. Zero or negative
	// disables caching (every page access pays decode cost).
	PoolPages int

	// MissLatency is an optional simulated disk latency added to every
	// buffer-pool miss.
	MissLatency time.Duration

	// Workers bounds how many statements the engine executes at once,
	// modelling the machine's serving capacity (CPU cores / DBMS worker
	// threads). Each statement occupies a worker slot for StmtServiceTime
	// before touching data, so a saturated machine queues statements — the
	// physics that makes adding a replica add serving capacity. Zero
	// disables the model (unbounded concurrency, no service delay).
	Workers int

	// StmtServiceTime is the simulated per-statement service time charged
	// while a worker slot is held. Only meaningful with Workers > 0.
	StmtServiceTime time.Duration

	// LockTimeout bounds lock waits; zero means wait forever (deadlocks are
	// still detected immediately via the wait-for graph).
	LockTimeout time.Duration

	// ReleaseReadLocksAtPrepare enables the common 2PC optimisation of
	// releasing read locks after the PREPARE action and before COMMIT.
	// Most production systems (including MySQL) implement it; the paper
	// shows it breaks global serializability under read-routing Options 2
	// and 3 with an aggressive cluster controller.
	ReleaseReadLocksAtPrepare bool

	// Spans, when set, receives distributed-tracing spans for sampled
	// transactions ("sql" statement spans and "wal" flush spans). Nil
	// disables engine-side span recording; unsampled transactions never
	// touch it either way.
	Spans *obs.SpanRing

	// PoolWritebacks, when set, also receives the buffer pool's writeback
	// count (PoolStats.Writebacks), so a cluster can point all its machines'
	// engines — each restart builds a new one — at one registry counter.
	PoolWritebacks *obs.Counter
}

// DefaultConfig returns the configuration used throughout the evaluation:
// a 256-page pool, no artificial disk latency, a 2-second lock timeout, and
// the prepare-time read-lock release on (as in real systems).
func DefaultConfig() Config {
	return Config{
		PoolPages:                 256,
		LockTimeout:               2 * time.Second,
		ReleaseReadLocksAtPrepare: true,
	}
}

// OpEvent describes one data access, emitted to the history recorder. Seq is
// a per-engine monotonically increasing sequence number assigned at access
// time (after lock acquisition), so for two conflicting events the Seq order
// is the true conflict order on this engine.
type OpEvent struct {
	Seq       uint64
	Txn       uint64 // engine-local transaction ID
	GlobalTxn uint64 // caller-assigned global transaction ID (0 if none)
	Write     bool
	Object    string // "db/table:" and the primary key's key (bytes) for a row, "db/table" for a whole table
}

// Recorder receives operation events for offline serializability checking.
// Implementations must be safe for concurrent use.
type Recorder interface {
	RecordOp(OpEvent)
}

// Stats are cumulative engine counters, plus LocksHeld, the one
// instantaneous value: the number of lock holds granted right now. A
// quiescent engine reports LocksHeld zero; the 2PC failure tests assert it
// to prove coordinator-timeout paths leak no locks.
type Stats struct {
	Commits   uint64
	Aborts    uint64
	Deadlocks uint64
	// LockTimeouts counts lock waits that ran into Config.LockTimeout — the
	// only thing that breaks a deadlock whose cycle spans two machines.
	LockTimeouts uint64
	LocksHeld    uint64

	// Execution counters: plans bound to closures (plan_compile_total),
	// SELECT and DML statements executed through a bound plan
	// (compiled_exec_total), and all statements executed, DDL and EXPLAIN
	// included (stmt_exec_total).
	PlanCompiles  uint64
	CompiledExecs uint64
	StmtExecs     uint64

	Pool      PoolStats
	PlanCache PlanCacheStats
}

// Engine is a single-node DBMS instance: the unit the cluster controller
// replicates and fails over. One engine hosts any number of named databases
// that share its buffer pool — the resource contention at the heart of the
// paper's multi-tenancy problem.
type Engine struct {
	cfg   Config
	pool  *BufferPool
	locks *lockManager

	// stmts caches the statements that arrive as text (Engine.Exec, Txn.Exec,
	// log replay). planHitMiss packs plan look-up hits (A) and misses (B)
	// into one word so a stats snapshot is never torn (see obs.Pair).
	stmts       *StmtCache
	planHitMiss obs.Pair

	// workers is the capacity-model semaphore (nil when Config.Workers is
	// zero). A statement holds one slot for StmtServiceTime before it
	// executes; the slot is released before any lock is acquired, so the
	// queue models CPU saturation and can never deadlock against the lock
	// manager.
	workers chan struct{}

	mu     sync.RWMutex // guards catalog
	dbs    map[string]*database
	closed atomic.Bool

	nextTxn atomic.Uint64
	seq     atomic.Uint64
	// incarnations numbers the tables: every CREATE TABLE, restore and
	// replayed creation makes a new one (see Table.inc).
	incarnations atomic.Uint32

	// wal receives logical redo records (see AttachWAL); recovering
	// suppresses logging (and counter updates) while the engine replays that
	// same log. ckptMu serialises checkpoints.
	wal        *wal.Log
	walMetrics *wal.Metrics
	recovering atomic.Bool
	ckptMu     sync.Mutex

	// branches holds every unfinished branch with a global ID — active,
	// prepared live, or re-instated by Recover — keyed by that ID, for the
	// in-doubt resolver (see ClaimPrepared). Guarded by branchMu;
	// branchEnded is broadcast whenever one leaves (see AwaitBranches).
	branchMu    sync.Mutex
	branches    map[uint64]*Txn
	branchEnded sync.Cond

	recorder atomic.Pointer[recorderBox]

	// arenas recycles the transactions' arenas (see arena): finishTxn puts
	// one back, and a transaction's first statement takes one.
	arenas sync.Pool

	// commitAbort packs the commit (A) and abort (B) counters into one
	// word so Stats() cannot observe one without the other (see obs.Pair).
	commitAbort obs.Pair

	// Compiled-execution counters (see Stats).
	statPlanCompiles  atomic.Uint64
	statCompiledExecs atomic.Uint64
	statStmtExecs     atomic.Uint64
}

type recorderBox struct{ r Recorder }

// database is one incarnation of a database namespace. A transaction keeps
// the one it began in, so once that is dropped the transaction aborts,
// whatever namespace has since taken the name.
type database struct {
	e       *Engine
	name    string
	tables  map[string]*Table // by lower-cased name; guarded by Engine.mu
	dropped atomic.Bool       // set under Engine.mu
}

// table returns the named table of d.
func (d *database) table(name string) (*Table, error) {
	d.e.mu.RLock()
	defer d.e.mu.RUnlock()
	if d.e.closed.Load() {
		return nil, ErrEngineClosed
	}
	if d.dropped.Load() {
		return nil, ErrTxnAborted // whoever looks in d began in it
	}
	t, ok := d.tables[lower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoTable, d.name, name)
	}
	return t, nil
}

// NewEngine creates an engine with the given configuration, logging to an
// in-memory write-ahead log until AttachWAL replaces it.
func NewEngine(cfg Config) *Engine {
	e := &Engine{
		cfg:      cfg,
		pool:     NewBufferPool(cfg.PoolPages, cfg.MissLatency),
		locks:    newLockManager(cfg.LockTimeout),
		dbs:      make(map[string]*database),
		wal:      wal.New(wal.NewMemStore(), wal.Config{}, nil),
		branches: make(map[uint64]*Txn),
		stmts:    NewStmtCache(),
	}
	e.branchEnded.L = &e.branchMu
	e.arenas.New = func() any { return new(arena) }
	e.pool.writebackSink = cfg.PoolWritebacks
	if cfg.Workers > 0 {
		e.workers = make(chan struct{}, cfg.Workers)
	}
	return e
}

// Pool exposes the engine's buffer pool (for statistics and experiments).
func (e *Engine) Pool() *BufferPool { return e.pool }

// SetRecorder installs (or clears, with nil) the history recorder.
func (e *Engine) SetRecorder(r Recorder) {
	e.recorder.Store(&recorderBox{r: r})
}

// record emits an operation event on a row of tbl (by its primary-key key)
// or, with key "", on the whole table, if a recorder is installed; the
// event's object name is only built then. Log replay is never recorded: it
// re-applies operations that were recorded when they first executed, and
// re-recording them would give the replayed transactions a second, later
// position in the site's conflict order — manufacturing serialization-graph
// edges that contradict the real execution.
func (e *Engine) record(t *Txn, write bool, tbl *Table, key string) {
	if e.recovering.Load() {
		return
	}
	box := e.recorder.Load()
	if box == nil || box.r == nil {
		return
	}
	object := tbl.qname
	if key != "" {
		object += ":" + key
	}
	box.r.RecordOp(OpEvent{
		Seq:       e.seq.Add(1),
		Txn:       t.id,
		GlobalTxn: t.GlobalID,
		Write:     write,
		Object:    object,
	})
}

// Close marks the engine closed; subsequent operations fail with
// ErrEngineClosed. It models a machine failure (power/disk) in the paper.
func (e *Engine) Close() {
	e.closed.Store(true)
}

// Stats returns a snapshot of the engine counters. Counter pairs that
// readers combine (commits/aborts, pool hits/misses, plan-cache
// hits/misses) are each packed into a single atomic word, so a concurrent
// reader never observes a torn pair — e.g. a buffer-pool hit whose access
// is missing from the miss side's total.
func (e *Engine) Stats() Stats {
	commits, aborts := e.commitAbort.Load()
	deadlocks, timeouts := e.locks.failedWaits()
	planHits, planMisses := e.planHitMiss.Load()
	return Stats{
		Commits:       commits,
		Aborts:        aborts,
		Deadlocks:     deadlocks,
		LockTimeouts:  timeouts,
		LocksHeld:     e.locks.heldCount(),
		PlanCompiles:  e.statPlanCompiles.Load(),
		CompiledExecs: e.statCompiledExecs.Load(),
		StmtExecs:     e.statStmtExecs.Load(),
		Pool:          e.pool.Stats(),
		PlanCache:     PlanCacheStats{Hits: planHits, Misses: planMisses},
	}
}

func (e *Engine) finishTxn(t *Txn, committed bool) {
	if a := t.vals; a != nil {
		t.vals = nil
		if max(cap(a.vals), cap(a.lists), cap(a.ids)) <= arenaMaxValues {
			a.reset()
			e.arenas.Put(a)
		}
	}
	if e.recovering.Load() {
		return // replayed transactions were already counted before the crash
	}
	if committed {
		e.commitAbort.IncA()
	} else {
		e.commitAbort.IncB()
	}
}

// CreateDatabase registers a new empty database namespace.
func (e *Engine) CreateDatabase(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return ErrEngineClosed
	}
	if _, ok := e.dbs[name]; ok {
		return fmt.Errorf("sqldb: database %s already exists", name)
	}
	e.dbs[name] = &database{e: e, name: name, tables: make(map[string]*Table)}
	return e.walNamespace(wal.RecCreateDB, name)
}

// DropDatabase removes a database and all its tables. The namespace goes
// first, so a transaction that began in it aborts at its next statement, and
// then each table under its X lock, as DROP TABLE takes it (see
// lockManager.lock). A prepared holder that outlasts the lock wait loses
// nothing: its commit touches no page, and its table is gone either way.
func (e *Engine) DropDatabase(name string) error {
	d, err := e.database(name)
	if err != nil {
		return err
	}
	e.mu.Lock()
	if e.dbs[name] != d {
		e.mu.Unlock()
		return e.DropDatabase(name) // dropped, or dropped and created, meanwhile
	}
	delete(e.dbs, name)
	d.dropped.Store(true)
	e.mu.Unlock()
	owner := e.lockOwner(nil)
	defer e.locks.releaseAll(owner)
	for _, tbl := range e.tablesOf(d) {
		_ = owner.lockInc(tbl, LockX, true)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for key, tbl := range d.tables {
		e.unpublish(d, key, tbl)
	}
	return e.walNamespace(wal.RecDropDB, name)
}

// tablesOf lists d's tables (none for nil).
func (e *Engine) tablesOf(d *database) []*Table {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var tables []*Table
	if d != nil {
		for _, t := range d.tables {
			tables = append(tables, t)
		}
	}
	return tables
}

// lockOwner returns a transaction that only holds locks — a dump's, a
// restore's, DROP DATABASE's — until e.locks.releaseAll. It counts as
// prepared, so a DDL statement waits for it rather than rolling it back.
func (e *Engine) lockOwner(d *database) *Txn {
	return &Txn{id: e.nextTxn.Add(1), engine: e, catalog: d, state: twopc.Prepared}
}

// unpublish removes tbl, which the caller holds X-locked, from d's catalog
// and its pages from the pool. Called with e.mu held.
func (e *Engine) unpublish(d *database, key string, tbl *Table) {
	delete(d.tables, key)
	tbl.dead.Store(true)
	e.pool.InvalidateTable(tbl.inc)
}

// HasDatabase reports whether the named database exists.
func (e *Engine) HasDatabase(name string) bool {
	_, err := e.database(name)
	return err == nil
}

// Databases lists database names in sorted order.
func (e *Engine) Databases() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.dbs))
	for n := range e.dbs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Tables lists the table names of a database in sorted order.
func (e *Engine) Tables(db string) []string {
	e.mu.RLock()
	d := e.dbs[db] // listed on a closed engine too: a copy's source may just have failed
	e.mu.RUnlock()
	names := []string{}
	for _, t := range e.tablesOf(d) {
		names = append(names, lower(t.Name()))
	}
	sort.Strings(names)
	return names
}

// database returns the named database.
func (e *Engine) database(name string) (*database, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed.Load() {
		return nil, ErrEngineClosed
	}
	d, ok := e.dbs[name]
	if !ok {
		return nil, fmt.Errorf("%w: database %s", ErrNoTable, name)
	}
	return d, nil
}

// DatabaseByteSize returns the approximate total encoded size of a database.
func (e *Engine) DatabaseByteSize(db string) int64 {
	d, _ := e.database(db)
	var total int64
	for _, t := range e.tablesOf(d) {
		total += t.ByteSize()
	}
	return total
}

// Begin starts a transaction against the named database.
func (e *Engine) Begin(db string) (*Txn, error) {
	return e.BeginWithID(db, 0)
}

// BeginWithID starts a transaction carrying a caller-assigned global
// transaction ID (used by the cluster controller to correlate the branches
// of a distributed transaction across replicas). A branch with a nonzero ID
// is one of the engine's branches until it finishes.
func (e *Engine) BeginWithID(db string, globalID uint64) (*Txn, error) {
	d, err := e.database(db)
	if err != nil {
		return nil, err
	}
	t := &Txn{
		GlobalID: globalID,
		id:       e.nextTxn.Add(1),
		engine:   e,
		catalog:  d,
	}
	t.locks = t.locksBuf[:0]
	t.db = db
	if globalID != 0 {
		e.branchMu.Lock()
		e.branches[globalID] = t
		e.branchMu.Unlock()
	}
	return t, nil
}

// Exec runs a single statement in its own transaction (autocommit).
func (e *Engine) Exec(db, sql string, params ...Value) (*Result, error) {
	t, err := e.Begin(db)
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

// StmtCache returns the engine's text cache, for statistics.
func (e *Engine) StmtCache() *StmtCache { return e.stmts }

func lower(s string) string { return strings.ToLower(s) }
