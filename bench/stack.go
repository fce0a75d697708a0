package main

import (
	"fmt"
	"strings"
	"time"

	"sdp"
	"sdp/internal/colo"
	"sdp/internal/core"
	"sdp/internal/obs"
	"sdp/internal/sqldb"
	"sdp/internal/tpcw"
	"sdp/internal/wal"
	"sdp/internal/wire"
)

// The fixed platform configuration every workload runs on. BENCHMARK.json's
// workload reasons and bench/README.md state the same values; a change here
// is a change of the benchmark, not of the program.
const (
	coloName     = "local"
	machines     = 4
	replicas     = 2
	controllers  = 3
	lockTimeout  = 100 * time.Millisecond
	declaredMB   = 125  // SLA size: 8 replicas fill a unit machine, so First-Fit spreads 16 tenants evenly
	declaredTPS  = 0.1  // SLA floor, low enough that placement never refuses
	maxRejectSLA = 0.05 // SLA reject ceiling watched by the monitor on replica_churn
)

// fixedConfig is the configuration block of the result envelope.
type fixedConfig struct {
	Colos         int     `json:"colos"`
	Machines      int     `json:"machines"`
	Replicas      int     `json:"replicas"`
	Controllers   int     `json:"controllers"`
	ReadOption    string  `json:"read_option"`
	AckMode       string  `json:"ack_mode"`
	WALFlush      string  `json:"wal_flush_policy"`
	DiskLatencyMs float64 `json:"disk_latency_ms"`
	LockTimeoutMs float64 `json:"lock_timeout_ms"`
	TraceSample   float64 `json:"trace_sample"`
	Placement     string  `json:"placement_loop"`
	Loop          string  `json:"loop"`
	Clients       int     `json:"clients"`
}

func theFixedConfig() fixedConfig {
	return fixedConfig{
		Colos: 1, Machines: machines, Replicas: replicas, Controllers: controllers,
		ReadOption: "option1", AckMode: "conservative",
		WALFlush:      "forced at PREPARE and COMMIT, group commit on, in-memory device, no added latency",
		DiskLatencyMs: 0, LockTimeoutMs: float64(lockTimeout) / float64(time.Millisecond),
		TraceSample: 0, Placement: "off", Loop: "closed", Clients: numClients(),
	}
}

// rung names one public entry point of the stack. The traced run replays a
// workload at each rung in turn; the measured window uses the workload's top
// rung (wire for the wire workloads, conn for the in-process ones).
type rung string

const (
	rungEngine    rung = "engine"     // stand-alone sqldb.Engine over a timed wal.Store
	rungCluster   rung = "cluster"    // core.Cluster Begin/ExecStmt/Commit
	rungConn      rung = "conn"       // sdp.Conn, the paper's Open API
	rungWire      rung = "wire"       // wire.Client into Platform.ServeWire
	rungWireSpans rung = "wire_spans" // wire.Client into wire.Serve over the span-recording backend
	rungWireObs   rung = "wire_obs"   // rungWire with TraceSample 1 on client and server
)

// kvFunc runs a workload's one prepared statement, autocommit, with one INT
// parameter.
type kvFunc func(arg int64) (*sqldb.Result, error)

// stack is one booted system under test: the platform (or, for rungEngine, a
// lone engine) plus whatever serves the rung.
type stack struct {
	rung rung
	p    *sdp.Platform
	co   *colo.Controller
	srv  *wire.Server
	wcs  []*wire.Client
	// clientReg receives the wire clients' own spans on rungWireObs.
	clientReg *obs.Registry

	eng   *sqldb.Engine
	store *timedStore
	back  *spanBackend
}

// boot brings up an empty stack for r. Every call builds a fresh platform:
// the WAL store and the TPC-W tables grow while a workload runs, so reusing
// one drifts.
func boot(r rung, poolPages int) (*stack, error) {
	s := &stack{rung: r}
	if r == rungEngine {
		cfg := sqldb.DefaultConfig()
		// One engine holds every tenant where the platform spreads two
		// replicas of each over four machines: scale the pool so a hosted
		// database gets the same share of it as on a platform machine.
		cfg.PoolPages = poolPages * machines / replicas
		cfg.LockTimeout = lockTimeout
		s.eng = sqldb.NewEngine(cfg)
		s.store = &timedStore{Store: wal.NewMemStore()}
		s.eng.AttachWAL(wal.New(s.store, wal.Config{}, nil))
		return s, nil
	}
	cfg := sdp.Config{
		ReadOption:     sdp.ReadOption1,
		AckMode:        sdp.Conservative,
		Replicas:       replicas,
		ClusterSize:    machines,
		PoolPages:      poolPages,
		LockTimeout:    lockTimeout,
		Listen:         "127.0.0.1:0",
		WAL:            &sdp.WALConfig{},
		Controllers:    controllers,
		ControllerSeed: 1,
	}
	if r == rungWireObs {
		cfg.TraceSample = 1
	}
	s.p = sdp.New(cfg)
	s.co = s.p.AddColo(coloName, coloName, machines)
	var err error
	switch r {
	case rungWire, rungWireObs:
		s.srv, err = s.p.ServeWire()
	case rungWireSpans:
		s.back = &spanBackend{sys: s.p.System()}
		s.srv, err = wire.Serve(cfg.Listen, wire.ServerConfig{Backend: s.back, Metrics: s.p.Metrics()})
	}
	if err != nil {
		return nil, fmt.Errorf("boot %s: %w", r, err)
	}
	return s, nil
}

// createDatabase provisions one tenant database.
func (s *stack) createDatabase(name string) error {
	if s.eng != nil {
		return s.eng.CreateDatabase(name)
	}
	return s.p.CreateDatabase(name, sdp.SLA{SizeMB: declaredMB, MinTPS: declaredTPS, MaxRejectFraction: maxRejectSLA}, coloName)
}

// db returns the transactional handle of the stack's rung on one database.
// The wire rungs have none: the wire workloads are autocommit only.
func (s *stack) db(name string) tpcw.DB {
	switch s.rung {
	case rungEngine:
		return engineDB{eng: s.eng, db: name}
	case rungCluster:
		return clusterDB{cl: s.cluster(name), db: name}
	default:
		return connDB{s.p.Open(name)}
	}
}

// loaderDB returns the handle data is loaded through: always the in-process
// API, whatever the rung.
func (s *stack) loaderDB(name string) tpcw.DB {
	if s.eng != nil {
		return engineDB{eng: s.eng, db: name}
	}
	return patientDB{connDB{s.p.Open(name)}}
}

// patientDB retries Begin while the platform refuses it transiently. On a
// saturated box the controllers' quorum lease can lapse for a moment; a load
// must wait that out, because tpcw.Load cannot be restarted half way.
type patientDB struct{ db tpcw.DB }

func (d patientDB) Begin() (tpcw.Txn, error) {
	backoff := firstBackoff
	for tries := 0; ; tries++ {
		t, err := d.db.Begin()
		if err == nil || classify(err) == classFatal || tries == maxRetries {
			return t, err
		}
		time.Sleep(backoff)
		backoff = nextBackoff(backoff)
	}
}

// prepared prepares sql on db at the stack's rung. On the wire rungs every
// call dials its own single-connection client, one per benchmark client.
func (s *stack) prepared(db, sql string) (kvFunc, error) {
	stmt, err := sqldb.Parse(sql)
	if err != nil {
		return nil, err
	}
	_, isRead := stmt.(*sqldb.SelectStmt)
	switch s.rung {
	case rungEngine:
		return func(arg int64) (*sqldb.Result, error) {
			t, err := s.eng.Begin(db)
			if err != nil {
				return nil, err
			}
			res, err := t.ExecStmt(stmt, sqldb.NewInt(arg))
			if err != nil {
				_ = t.Rollback()
				return nil, err
			}
			return res, commitBranch(t, !isRead)
		}, nil
	case rungCluster:
		cl := s.cluster(db)
		return func(arg int64) (*sqldb.Result, error) {
			t, err := cl.Begin(db)
			if err != nil {
				return nil, err
			}
			res, err := t.ExecStmt(stmt, sqldb.NewInt(arg))
			if err != nil {
				_ = t.Rollback()
				return nil, err
			}
			return res, t.Commit()
		}, nil
	case rungConn:
		ps, err := s.p.Open(db).Prepare(sql)
		if err != nil {
			return nil, err
		}
		return func(arg int64) (*sqldb.Result, error) { return ps.Exec(sqldb.NewInt(arg)) }, nil
	}
	cc := wire.ClientConfig{Addr: s.srv.Addr(), Database: db, PoolSize: 1}
	if s.rung == rungWireObs {
		if s.clientReg == nil {
			s.clientReg = obs.NewRegistry()
		}
		cc.Metrics, cc.TraceSample = s.clientReg, 1
	}
	wc, err := wire.Dial(cc)
	if err != nil {
		return nil, err
	}
	s.wcs = append(s.wcs, wc)
	ps, err := wc.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return func(arg int64) (*sqldb.Result, error) { return ps.Exec(sqldb.NewInt(arg)) }, nil
}

// cluster returns the cluster controller hosting db.
func (s *stack) cluster(db string) *core.Cluster {
	cl, err := s.co.Route(db)
	if err != nil {
		panic(fmt.Sprintf("bench: route %s: %v", db, err)) // only reachable by a bug: every db is created before use
	}
	return cl
}

// close stops everything the stack started: wire clients, the wire server,
// the controller replicas' consensus goroutines and the engines.
func (s *stack) close() {
	for _, wc := range s.wcs {
		_ = wc.Close()
	}
	if s.srv != nil {
		_ = s.srv.Close()
	}
	if s.eng != nil {
		s.eng.Close()
		return
	}
	for _, cl := range s.co.Clusters() {
		leader, _ := cl.LeaderController()
		for _, id := range cl.ControllerIDs() {
			if id != leader {
				_ = cl.StopController(id)
			}
		}
		if leader != "" {
			_ = cl.StopController(leader)
		}
		for _, id := range cl.MachineIDs() {
			if m, err := cl.Machine(id); err == nil {
				m.Engine().Close()
			}
		}
	}
}

// commitBranch finishes an engine transaction the way a 2PC participant does:
// a writer is forced to the log at PREPARE and again at COMMIT, a reader
// commits in one phase.
func commitBranch(t *sqldb.Txn, wrote bool) error {
	if !wrote {
		return t.Commit()
	}
	if err := t.Prepare(); err != nil {
		_ = t.Rollback()
		return err
	}
	return t.CommitPrepared()
}

// engineDB adapts a stand-alone engine to tpcw.DB.
type engineDB struct {
	eng *sqldb.Engine
	db  string
}

func (d engineDB) Begin() (tpcw.Txn, error) {
	t, err := d.eng.Begin(d.db)
	if err != nil {
		return nil, err
	}
	return &engineTxn{t: t}, nil
}

// engineTxn tracks whether the transaction wrote, to pick its commit protocol.
type engineTxn struct {
	t     *sqldb.Txn
	wrote bool
}

func (e *engineTxn) Exec(sql string, params ...sqldb.Value) (*sqldb.Result, error) {
	if !strings.HasPrefix(sql, "SELECT") {
		e.wrote = true
	}
	return e.t.Exec(sql, params...)
}
func (e *engineTxn) Commit() error   { return commitBranch(e.t, e.wrote) }
func (e *engineTxn) Rollback() error { return e.t.Rollback() }

// clusterDB adapts one database on a cluster controller to tpcw.DB.
type clusterDB struct {
	cl *core.Cluster
	db string
}

func (d clusterDB) Begin() (tpcw.Txn, error) { return d.cl.Begin(d.db) }

// connDB adapts the in-process connection to tpcw.DB.
type connDB struct{ c *sdp.Conn }

func (d connDB) Begin() (tpcw.Txn, error) { return d.c.Begin() }

// execAuto runs one statement in its own transaction on any tpcw.DB.
func execAuto(db tpcw.DB, sql string) (*sqldb.Result, error) {
	t, err := db.Begin()
	if err != nil {
		return nil, err
	}
	res, err := t.Exec(sql)
	if err != nil {
		_ = t.Rollback()
		return nil, err
	}
	return res, t.Commit()
}
