package core

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"sdp/internal/replcopy"
	"sdp/internal/sla"
	"sdp/internal/sqldb"
	"sdp/internal/wal"
)

// Machine is one database machine of the cluster: a commodity box running a
// single-node DBMS instance. The cluster controller is the only client of
// its engine.
type Machine struct {
	id string

	// engine is swapped atomically on restart: a failure destroys the
	// in-memory instance, and recovery rebuilds a fresh one from the
	// machine's write-ahead log.
	engine atomic.Pointer[sqldb.Engine]

	// walStore is the machine's durable log device. It survives engine
	// failures; walCfg/walMetrics and the engine construction inputs are
	// kept so Restart can rebuild.
	walStore   *wal.MemStore
	walCfg     wal.Config
	walMetrics *wal.Metrics
	engCfg     sqldb.Config
	rec        sqldb.Recorder

	mu     sync.Mutex
	failed bool
	used   sla.Resources // SLA reservations held here (see slaplace.go)

	// marks records, per database this machine hosted when it failed, the
	// cluster's per-table write sequence numbers at the moment of failure
	// (plus the database's epoch, so a dropped-and-recreated namespace is
	// never mistaken for the one the machine knew). After a restart the
	// delta between these marks and the current sequence numbers is exactly
	// the set of tables the fast recovery path must copy.
	marks map[string]dbMarks

	// dbCount tracks how many databases are hosted here: the tie-breaker of
	// the selector's coldest ordering, and all of it where the caller has no
	// load signal (CreateDatabase, recovery).
	dbCount atomic.Int32
}

// dbMarks is the failure-time snapshot for one database.
type dbMarks struct {
	epoch  uint64
	tables map[string]uint64
}

// newMachine creates a machine with a fresh engine, logging to an
// in-memory simulated disk that survives the machine's failures.
func newMachine(id string, cfg sqldb.Config, rec sqldb.Recorder, walCfg wal.Config, walMetrics *wal.Metrics) *Machine {
	m := &Machine{id: id, walStore: wal.NewMemStore(), walCfg: walCfg, walMetrics: walMetrics, engCfg: cfg, rec: rec}
	m.engine.Store(m.newEngine())
	return m
}

// newEngine builds a fresh engine wired to the machine's recorder and a log
// over the machine's durable store.
func (m *Machine) newEngine() *sqldb.Engine {
	e := sqldb.NewEngine(m.engCfg)
	if m.rec != nil {
		e.SetRecorder(m.rec)
	}
	e.AttachWAL(wal.New(m.walStore, m.walCfg, m.walMetrics))
	e.SetWALMetrics(m.walMetrics)
	return e
}

// ID returns the machine's identifier.
func (m *Machine) ID() string { return m.id }

// Engine exposes the machine's DBMS instance (statistics, experiments).
// Restart replaces the instance, so callers must not cache it across a
// failure.
func (m *Machine) Engine() *sqldb.Engine { return m.engine.Load() }

// Failed reports whether the machine has failed.
func (m *Machine) Failed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failed
}

// fail marks the machine as failed and closes its engine, modelling a
// power or disk failure: all in-memory state is lost, and any log bytes not
// yet flushed are lost with it. The durable log prefix survives for Restart.
// The dying engine's log is sealed before the unsynced tail is truncated:
// a statement, commit, or background 2PC resolver still executing against
// the dead engine must not reach the store after the crash point, or its
// frame — positioned by the stale pre-crash log size — would corrupt the
// surviving log and make the next recovery truncate durable history (see
// wal.Log.Seal).
func (m *Machine) fail() {
	m.mu.Lock()
	m.failed = true
	m.mu.Unlock()
	eng := m.Engine()
	eng.Close()
	eng.WAL().Seal()
	m.walStore.Crash(0)
}

// Restart brings a failed machine back: a fresh engine is built over the
// machine's surviving log and recovered from it (checkpoint restore plus
// log replay). The machine rejoins the cluster as live, but its databases
// do not serve traffic until the controller catches them up and re-adds
// them to the replica sets (see Cluster.RestartMachine).
func (m *Machine) Restart() (*sqldb.RecoveryStats, error) {
	m.mu.Lock()
	if !m.failed {
		m.mu.Unlock()
		return nil, fmt.Errorf("core: machine %s has not failed", m.id)
	}
	m.mu.Unlock()
	e := m.newEngine()
	stats, err := e.Recover()
	if err != nil {
		return nil, fmt.Errorf("core: restart %s: %w", m.id, err)
	}
	m.engine.Store(e)
	m.dbCount.Store(int32(len(e.Databases())))
	m.mu.Lock()
	m.failed = false
	m.mu.Unlock()
	return stats, nil
}

// setMarks snapshots a database's write sequence numbers at failure time.
func (m *Machine) setMarks(db string, epoch uint64, seqs map[string]uint64) {
	cp := make(map[string]uint64, len(seqs))
	maps.Copy(cp, seqs)
	m.mu.Lock()
	if m.marks == nil {
		m.marks = make(map[string]dbMarks)
	}
	m.marks[db] = dbMarks{epoch: epoch, tables: cp}
	m.mu.Unlock()
}

// usableMarks returns the failure-time write counters for db if the machine
// holds a snapshot of that incarnation (epoch) of the namespace, else nil.
// The map is the machine's own; callers read it under the cluster mutex,
// which every writer of marks also holds.
func (m *Machine) usableMarks(db string, epoch uint64) map[string]uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if dm, ok := m.marks[db]; replcopy.Usable(ok, dm.epoch, epoch) {
		return dm.tables
	}
	return nil
}

// clearMarks discards the snapshot for db.
func (m *Machine) clearMarks(db string) {
	m.mu.Lock()
	delete(m.marks, db)
	m.mu.Unlock()
}

// dropDatabase discards the machine's copy of db, if it has one and is
// alive to drop it, together with any marks describing that copy.
func (m *Machine) dropDatabase(db string) {
	if m.Engine().DropDatabase(db) == nil {
		m.dbCount.Add(-1)
	}
	m.clearMarks(db)
}
