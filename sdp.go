// Package sdp is a scalable data platform for a large number of small
// applications — a from-scratch reproduction of Yang, Shanmugasundaram and
// Yerneni (CIDR 2009). It gives each application the illusion of a
// centralized, fault-tolerant SQL database with full transactions, while
// hosting tens of thousands of such databases on shared commodity machines:
//
//   - every machine runs an embedded single-node SQL DBMS (internal/sqldb),
//   - a cluster controller replicates each database over two or more
//     machines with read-one-write-all + two-phase commit, recovers from
//     machine failures by online re-replication, and enforces SLAs by
//     First-Fit placement (internal/core, internal/sla, internal/placement),
//   - colo and system controllers route connections and asynchronously
//     replicate databases across colos for disaster recovery
//     (internal/colo, internal/system).
//
// The two operations of the paper's API are CreateDatabase (with an SLA)
// and Open (connect and run SQL with ACID transactions); everything else —
// replication, fail-over, placement, migration — is automatic.
package sdp

import (
	"net/http"
	"sync"
	"time"

	"sdp/internal/admin"
	"sdp/internal/colo"
	"sdp/internal/core"
	"sdp/internal/obs"
	"sdp/internal/placement"
	"sdp/internal/sla"
	"sdp/internal/sqldb"
	"sdp/internal/system"
	"sdp/internal/wal"
)

// WALConfig configures the per-machine write-ahead log (see Config.WAL).
type WALConfig = wal.Config

// Re-exported configuration enums (see the paper's Section 3.1).
type (
	// ReadOption selects the replica read-routing policy.
	ReadOption = core.ReadOption
	// AckMode selects conservative or aggressive write acknowledgement.
	AckMode = core.AckMode
	// CopyGranularity selects table- or database-level copy locking.
	CopyGranularity = sqldb.DumpGranularity
)

// Re-exported enum values.
const (
	ReadOption1 = core.ReadOption1
	ReadOption2 = core.ReadOption2
	ReadOption3 = core.ReadOption3

	Conservative = core.Conservative
	Aggressive   = core.Aggressive

	CopyByTable    = sqldb.GranularityTable
	CopyByDatabase = sqldb.GranularityDatabase
)

// Value and result types of the SQL API.
type (
	// Value is one SQL value.
	Value = sqldb.Value
	// Row is one result tuple.
	Row = sqldb.Row
	// Result is the outcome of a statement.
	Result = sqldb.Result
)

// Value constructors.
var (
	// Int builds an INT value.
	Int = sqldb.NewInt
	// Float builds a FLOAT value.
	Float = sqldb.NewFloat
	// Text builds a TEXT value.
	Text = sqldb.NewText
	// Bool builds a BOOL value.
	Bool = sqldb.NewBool
)

// Config tunes the platform. The zero value gives the paper's defaults:
// Option 1 reads, a conservative controller, 2 replicas per database,
// table-granularity copying.
type Config struct {
	// ReadOption is the read-routing policy (default Option 1).
	ReadOption ReadOption
	// AckMode is the write-acknowledgement policy (default conservative).
	AckMode AckMode
	// Replicas per database within a cluster (default 2).
	Replicas int
	// CopyGranularity for replica creation (default table-level).
	CopyGranularity CopyGranularity
	// ClusterSize is the number of machines per cluster (default 4).
	ClusterSize int
	// RecoveryThreads is the number of concurrent copy processes during
	// failure recovery (default 2).
	RecoveryThreads int
	// PoolPages is each machine's buffer-pool capacity in pages (default
	// 256).
	PoolPages int
	// DiskLatency is the simulated per-page-miss disk latency (default 0).
	DiskLatency time.Duration
	// LockTimeout bounds lock waits on each machine (default 2s).
	LockTimeout time.Duration
	// SLAWindow is the SLA compliance monitor's accounting window (default
	// 1s). Tests shrink it so violations surface quickly.
	SLAWindow time.Duration
	// Listen, when non-empty, is the TCP address ServeWire binds the wire
	// protocol server to (e.g. ":8346", or "127.0.0.1:0" for an ephemeral
	// port). See PROTOCOL.md for the protocol and internal/wire for the
	// client.
	Listen string
	// WAL configures every machine's write-ahead log: commits are forced
	// (with group commit) before acknowledgement, and a crashed machine
	// restarts and rejoins by log replay plus delta catch-up instead of a
	// full re-replication (see DESIGN.md, "Durability architecture"). Every
	// machine logs; nil is the zero config, an in-memory device with no
	// added flush latency.
	WAL *WALConfig
	// TraceSample is the head-based per-tenant trace sampling fraction the
	// wire server applies to requests that arrive without a client trace
	// context (0 disables server-initiated sampling; 1 samples every call).
	// Client-sampled requests are always traced regardless of this setting.
	// See OBSERVABILITY.md, "Distributed tracing".
	TraceSample float64
	// SlowQuery, when positive, records statements that take at least this
	// long into the bounded slow-query log served at /slowz, with the span
	// breakdown for sampled calls.
	SlowQuery time.Duration
	// Controllers, when >= 2, replicates each cluster controller's state
	// machine across that many consensus replicas (3 or 5 are sensible);
	// controller state changes commit through a Raft-style log and the
	// cluster survives controller crashes by leader failover (see DESIGN.md,
	// "Control plane replication"). Zero or one runs one controller, which
	// applies the same state machine in place, with no failover.
	Controllers int
	// ControllerSeed seeds the consensus layer's randomized election
	// timeouts, for reproducible failover tests (default 1).
	ControllerSeed int64
}

func (c Config) coloOptions() colo.Options {
	eng := sqldb.DefaultConfig()
	if c.PoolPages != 0 {
		eng.PoolPages = c.PoolPages
	}
	if c.DiskLatency != 0 {
		eng.MissLatency = c.DiskLatency
	}
	if c.LockTimeout != 0 {
		eng.LockTimeout = c.LockTimeout
	}
	var walCfg WALConfig
	if w := c.WAL; w != nil {
		walCfg = *w
	}
	return colo.Options{
		ClusterSize:     c.ClusterSize,
		RecoveryThreads: c.RecoveryThreads,
		Cluster: core.Options{
			ReadOption:      c.ReadOption,
			AckMode:         c.AckMode,
			Replicas:        c.Replicas,
			CopyGranularity: c.CopyGranularity,
			EngineConfig:    eng,
			WAL:             walCfg,
			Controllers:     c.Controllers,
			ControllerSeed:  c.ControllerSeed,
		},
	}
}

// SLA is a database's service level agreement.
type SLA struct {
	// SizeMB is the expected database size in MB; with MinTPS it
	// determines the per-replica resource requirement via profiling.
	SizeMB float64
	// MinTPS is the minimum throughput in transactions per second.
	MinTPS float64
	// MaxRejectFraction bounds proactively rejected transactions.
	MaxRejectFraction float64
	// MaxLatency bounds the mean commit latency per compliance window (zero
	// = unconstrained). It is monitored, not used for placement.
	MaxLatency time.Duration
	// Period is the SLA measurement window (default 24h).
	Period time.Duration
}

// Platform is the top-level handle: the system controller plus its colos.
// All layers — system controller, colo controllers, cluster controllers,
// and every machine's DBMS engine — report into one observability registry
// (see Metrics and OBSERVABILITY.md).
type Platform struct {
	cfg  Config
	reg  *obs.Registry
	sys  *system.Controller
	mon  *sla.Monitor
	auth wireAuth

	// stmts is the platform's one text→AST statement cache: every cluster
	// controller, the wire server and Conn.Prepare parse through it.
	stmts *sqldb.StmtCache

	plMu sync.Mutex
	pl   []*core.AdaptiveController
}

// New creates an empty platform with the given configuration.
func New(cfg Config) *Platform {
	reg := obs.NewRegistry()
	p := &Platform{
		cfg:   cfg,
		reg:   reg,
		sys:   system.NewWithRegistry(reg),
		mon:   sla.NewMonitor(reg, sla.MonitorOptions{Window: cfg.SLAWindow}),
		stmts: sqldb.NewStmtCache(),
	}
	reg.OnSnapshot(p.bridgeStmtCaches(
		reg.GaugeVec("sqldb_stmt_cache_bytes",
			"Bytes retained by statement caches, in the unit of their budget (SQL text plus a fixed charge per statement)", "cache"),
		reg.GaugeVec("sqldb_stmt_cache_entries",
			"Parsed statements retained by statement caches", "cache"),
		reg.CounterVec("sqldb_stmt_cache_bypass_total",
			"Statements parsed and not cached: a first sighting, or a text larger than the budget", "cache")))
	return p
}

// bridgeStmtCaches returns the snapshot hook that reports the statement
// caches: cache="platform" is the one text cache every layer parses through,
// cache="engine" sums the live machines' own caches, which only log replay
// goes through.
func (p *Platform) bridgeStmtCaches(bytes, entries *obs.GaugeVec, bypass *obs.CounterVec) func() {
	report := func(cache string, st sqldb.StmtCacheStats, bypassed uint64) {
		bytes.With(cache).Set(float64(st.Bytes))
		entries.With(cache).Set(float64(st.Entries))
		bypass.With(cache).Add(bypassed)
	}
	return func() {
		report("platform", p.stmts.Stats(), p.stmts.TakeBypassed())
		var sum sqldb.StmtCacheStats
		var bypassed uint64
		for _, co := range p.sys.Colos() {
			for _, cl := range co.Clusters() {
				for _, id := range cl.MachineIDs() {
					if m, err := cl.Machine(id); err == nil && !m.Failed() {
						c := m.Engine().StmtCache()
						st := c.Stats()
						sum.Bytes += st.Bytes
						sum.Entries += st.Entries
						bypassed += c.TakeBypassed()
					}
				}
			}
		}
		report("engine", sum, bypassed)
	}
}

// Metrics returns the platform-wide observability registry. Snapshot() on
// it captures every layer's counters, latency histograms, and the trace
// ring in one consistent dump.
func (p *Platform) Metrics() *obs.Registry { return p.reg }

// AddColo creates a colo in a region with the given number of free
// machines and registers it with the system controller.
func (p *Platform) AddColo(name, region string, freeMachines int) *colo.Controller {
	opts := p.cfg.coloOptions()
	opts.Metrics = p.reg
	opts.Cluster.SLAMonitor = p.mon
	opts.Cluster.Stmts = p.stmts
	co := colo.New(name, opts)
	co.AddFreeMachines(freeMachines)
	p.sys.AddColo(co, region)
	return co
}

// CreateDatabase provisions a database with the given SLA, primary colo,
// and optional disaster-recovery colos.
func (p *Platform) CreateDatabase(name string, s SLA, primaryColo string, drColos ...string) error {
	if s.Period == 0 {
		s.Period = 24 * time.Hour
	}
	req := sla.Profile(s.SizeMB, s.MinTPS)
	replicas := p.cfg.Replicas
	if replicas <= 0 {
		replicas = 2
	}
	if err := p.sys.CreateDatabase(name, req, replicas, primaryColo, drColos...); err != nil {
		return err
	}
	p.mon.Track(name, sla.SLA{
		MinThroughput:     s.MinTPS,
		MaxRejectFraction: s.MaxRejectFraction,
		MaxMeanLatency:    s.MaxLatency,
		Period:            s.Period,
	})
	return nil
}

// Open returns a connection handle for a database; the system controller
// routes it to the primary colo's hosting cluster.
func (p *Platform) Open(name string) *Conn {
	return &Conn{p: p, db: name}
}

// System exposes the underlying system controller for advanced operations
// (fail-over drills, DR promotion).
func (p *Platform) System() *system.Controller { return p.sys }

// SLAReport evaluates all pending compliance windows and returns the
// current report.
func (p *Platform) SLAReport() sla.ComplianceReport { return p.mon.Report() }

// Health aggregates every layer's liveness into one report.
func (p *Platform) Health() system.Health { return p.sys.Health() }

// PlacementOptions tunes adaptive replica provisioning (StartPlacement).
// The zero value gives sensible defaults: 500ms decision rounds, replica
// degrees held between the platform's configured degree and one above it,
// and two concurrent moves per cluster.
type PlacementOptions struct {
	// Interval is the decision-loop period (default 500ms).
	Interval time.Duration
	// MinReplicas and MaxReplicas bound every tenant's replica degree
	// (TCDRM-style budget). Zero MinReplicas selects the platform's
	// configured replication degree; zero MaxReplicas selects one above
	// MinReplicas.
	MinReplicas int
	MaxReplicas int
	// MaxConcurrentMoves caps Algorithm 1 copies in flight per cluster
	// (default 2).
	MaxConcurrentMoves int
}

// StartPlacement closes the loop from the SLA monitor into placement: every
// hosting cluster in every colo gets an adaptive provisioning controller
// that classifies tenants hot/warm/cold from their compliance windows,
// grows and shrinks replica degrees within the budget, and corrects load
// skew by replica migration. Clusters provisioned after the call are not
// covered until placement is restarted. Idempotent while running.
func (p *Platform) StartPlacement(o PlacementOptions) {
	minReplicas := o.MinReplicas
	if minReplicas <= 0 {
		minReplicas = p.cfg.Replicas
		if minReplicas <= 0 {
			minReplicas = 2
		}
	}
	maxReplicas := o.MaxReplicas
	if maxReplicas <= 0 {
		maxReplicas = minReplicas + 1
	}
	cfg := core.AdaptiveConfig{
		Interval:           o.Interval,
		Budget:             placement.Budget{MinReplicas: minReplicas, MaxReplicas: maxReplicas},
		MaxConcurrentMoves: o.MaxConcurrentMoves,
	}
	p.plMu.Lock()
	defer p.plMu.Unlock()
	if len(p.pl) > 0 {
		return
	}
	for _, co := range p.sys.Colos() {
		for _, cl := range co.Clusters() {
			ctl := cl.NewAdaptiveController(cfg)
			ctl.Start()
			p.pl = append(p.pl, ctl)
		}
	}
}

// StopPlacement halts every adaptive placement loop, waiting for in-flight
// replica copies to finish. Idempotent.
func (p *Platform) StopPlacement() {
	p.plMu.Lock()
	ctls := p.pl
	p.pl = nil
	p.plMu.Unlock()
	for _, ctl := range ctls {
		ctl.Stop()
	}
}

// PlacementReport merges every running adaptive controller's state into the
// platform-wide report served at /placementz. With placement stopped (or
// never started) it returns an empty, disabled report.
func (p *Platform) PlacementReport() placement.Report {
	p.plMu.Lock()
	ctls := append([]*core.AdaptiveController(nil), p.pl...)
	p.plMu.Unlock()
	reports := make([]placement.Report, len(ctls))
	for i, ctl := range ctls {
		reports[i] = ctl.Report()
	}
	return placement.Merge(reports...)
}

// AdminHandler returns the admin-plane HTTP handler (metrics, probes,
// traces, SLA report, pprof) for mounting in tests or a custom server.
func (p *Platform) AdminHandler() http.Handler { return admin.Handler(p.reg, p) }

// ServeAdmin binds addr and serves the admin plane on it in the background.
// Close the returned server to stop it.
func (p *Platform) ServeAdmin(addr string) (*admin.Server, error) {
	return admin.Serve(addr, p.AdminHandler())
}
