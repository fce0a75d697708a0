package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sdp/internal/obs"
	"sdp/internal/placement"
	"sdp/internal/sla"
	"sdp/internal/sqldb"
	"sdp/internal/wal"
)

// Cluster is the fault-tolerant cluster controller of the paper: it owns a
// set of machines, maps each client database to two or more of them, keeps
// the replicas synchronised with read-one-write-all + 2PC, and manages
// replica creation and machine failures. All client database connections go
// through the controller; clients never talk to a machine directly.
type Cluster struct {
	name string
	opts Options

	// endpoint is the controller's name on the simulated network; every
	// controller→machine link originates here.
	endpoint string

	// overlap says a transaction's fan-outs dispatch to all machines at once
	// (Txn.fanOut): a machine operation can sleep to model a cost — a network,
	// a disk miss, a log force, a statement's turn in a worker slot — that
	// working in parallel hides, or the controller is aggressive. Derived
	// from opts once.
	overlap bool

	// resolvers tracks the background in-doubt resolutions and ROLLBACK
	// re-deliveries (net.go), so tests and the chaos driver can wait for full
	// quiescence.
	resolvers sync.WaitGroup

	mu       sync.Mutex
	machines map[string]*Machine
	order    []string // machine IDs in registration order
	dbs      map[string]*dbState

	gidSeq atomic.Uint64
	rrSeq  atomic.Uint64

	// walMetrics is the shared instrument set for every machine's write-ahead
	// log.
	walMetrics *wal.Metrics

	// stmts caches parsed statements by SQL text so the controller parses a
	// statement that repeats once, no matter how many replicas (or
	// transactions) execute it (Options.Stmts, or a private cache).
	stmts *sqldb.StmtCache

	// metrics holds the controller's resolved observability instruments
	// (see metrics.go and OBSERVABILITY.md); all transaction-outcome
	// counters live there.
	metrics *clusterMetrics

	// slamon, when non-nil, is fed one observation per finished
	// transaction so declared SLAs are compared against delivered service
	// (see sla.Monitor; all its methods are nil-receiver safe).
	slamon *sla.Monitor

	// ctl is the control plane, the one editor of the database→replica map
	// above: every control mutation is decided by its state machine — in
	// place with one controller, through a consensus log across
	// Options.Controllers replicas with more — before it materializes into
	// the routing state (see controlplane.go).
	ctl *controlPlane
}

// dbState is the controller's bookkeeping for one client database.
type dbState struct {
	name     string
	replicas []string   // live machines hosting the database, head first
	copying  *copyState // non-nil while a new replica is being created
	// epoch uniquely identifies this incarnation of the namespace, so a
	// machine's failure-time marks from a since-dropped-and-recreated
	// database are never trusted.
	epoch uint64
	// writeSeq counts routed writes per table (lower-cased name), guarded by
	// the cluster mutex. A restarted machine compares its failure-time
	// snapshot of these counters against the current values: equal means the
	// table is unchanged and log replay alone recovered it.
	writeSeq map[string]uint64
	// pending counts in-flight write operations per table (lower-cased
	// name). The copy process drains a table's counter after marking it
	// in-flight; since rejections stop new arrivals, the wait is bounded
	// by the outstanding writes rather than starving under load.
	pending map[string]*drainCounter
	req     sla.Resources // per-replica SLA reservation (zero if unmanaged)
}

// bumpWrite advances a table's write sequence number. Called with the
// cluster mutex held, for every write the router sends to the replicas.
func (ds *dbState) bumpWrite(table string) {
	if ds.writeSeq == nil {
		ds.writeSeq = make(map[string]uint64)
	}
	ds.writeSeq[table]++
}

// pendingFor returns (creating if needed) the drain counter of a table.
// Called with the cluster mutex held.
func (ds *dbState) pendingFor(table string) *drainCounter {
	if ds.pending == nil {
		ds.pending = make(map[string]*drainCounter)
	}
	d, ok := ds.pending[table]
	if !ok {
		d = &drainCounter{}
		ds.pending[table] = d
	}
	return d
}

// copyState tracks an in-progress replica creation (Algorithm 1). copied and
// inFlight hold lower-cased table names; a database-granularity copy has
// every table still to be copied in flight at once.
type copyState struct {
	source   string
	target   string
	copied   map[string]bool
	inFlight map[string]bool
	// aborted is set by FailMachine when the copy's source or target dies
	// mid-copy, and when the leader controller driving it is killed: the copy
	// process abandons at its next step boundary, the router stops rejecting
	// writes, and the half-copied destination is never registered in the
	// replica set.
	aborted bool
}

// drainCounter counts in-flight write operations of a database so the copy
// process can wait for enqueued-but-unexecuted writes to drain before
// locking a table (closing the routing/execution race that Algorithm 1's
// proof assumes away).
type drainCounter struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    int
}

func (d *drainCounter) inc() {
	d.mu.Lock()
	if d.cond == nil {
		d.cond = sync.NewCond(&d.mu)
	}
	d.n++
	d.mu.Unlock()
}

func (d *drainCounter) dec() {
	d.mu.Lock()
	d.n--
	if d.n == 0 && d.cond != nil {
		d.cond.Broadcast()
	}
	d.mu.Unlock()
}

func (d *drainCounter) wait() {
	d.mu.Lock()
	if d.cond == nil {
		d.cond = sync.NewCond(&d.mu)
	}
	for d.n > 0 {
		d.cond.Wait()
	}
	d.mu.Unlock()
}

// NewCluster creates an empty cluster controller.
func NewCluster(name string, opts Options) *Cluster {
	opts = opts.withDefaults()
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if opts.EngineConfig.Spans == nil {
		// Engines record their per-statement and WAL-flush spans into the
		// same ring the controller uses, so one trace ID finds all layers.
		opts.EngineConfig.Spans = reg.Spans()
	}
	metrics := newClusterMetrics(reg)
	opts.EngineConfig.PoolWritebacks = metrics.poolWritebacks
	c := &Cluster{
		name:     name,
		opts:     opts,
		endpoint: "ctl:" + name,
		overlap: opts.AckMode == Aggressive || opts.Network != nil ||
			opts.EngineConfig.MissLatency > 0 ||
			(opts.EngineConfig.Workers > 0 && opts.EngineConfig.StmtServiceTime > 0) ||
			opts.WAL.FlushLatency > 0,
		machines:   make(map[string]*Machine),
		dbs:        make(map[string]*dbState),
		walMetrics: wal.NewMetrics(reg),
		stmts:      opts.Stmts,
		metrics:    metrics,
		slamon:     opts.SLAMonitor,
	}
	if c.stmts == nil {
		c.stmts = sqldb.NewStmtCache()
	}
	reg.OnSnapshot(c.bridgeStats)
	c.ctl = newControlPlane(c, opts.Controllers, reg)
	if c.slamon != nil {
		// Let the monitor resolve which machines host a violating
		// database's replicas (the re-placement hook).
		c.slamon.AddReplicaSource(func(db string) ([]string, bool) {
			ids, err := c.Replicas(db)
			if err != nil {
				return nil, false
			}
			return ids, true
		})
	}
	return c
}

// Name returns the cluster's name.
func (c *Cluster) Name() string { return c.name }

// Endpoint returns the controller's name on the simulated network — the
// `from` side of every controller→machine link. Fault schedules (tests, the
// chaos driver) use it to target specific links.
func (c *Cluster) Endpoint() string { return c.endpoint }

// Options returns the controller's configuration.
func (c *Cluster) Options() Options { return c.opts }

// AddMachine registers a new machine (from the colo's free pool) and returns
// it.
func (c *Cluster) AddMachine(id string) (*Machine, error) {
	cp := c.ctl
	cp.mu.Lock()
	defer cp.mu.Unlock()
	c.mu.Lock()
	_, dup := c.machines[id]
	c.mu.Unlock()
	if dup {
		return nil, fmt.Errorf("core: machine %s already in cluster %s", id, c.name)
	}
	var m *Machine
	err := cp.apply(ctlCmd{Op: ctlOpAddMachine, Machine: id}, func() {
		var rec sqldb.Recorder
		if c.opts.Recorder != nil {
			rec = c.opts.Recorder.ForSite(id)
		}
		m = newMachine(id, c.opts.EngineConfig, rec, c.opts.WAL, c.walMetrics)
		c.machines[id] = m
		c.order = append(c.order, id)
	})
	return m, err
}

// AddMachines registers n machines named m1..mn (continuing any existing
// numbering) and returns their IDs.
func (c *Cluster) AddMachines(n int) ([]string, error) {
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("m%d", len(c.MachineIDs())+1)
		if _, err := c.AddMachine(id); err != nil {
			return ids, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// Machine returns the machine with the given ID.
func (c *Cluster) Machine(id string) (*Machine, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.machines[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoMachine, id)
	}
	return m, nil
}

// MachineIDs lists all machine IDs in registration order.
func (c *Cluster) MachineIDs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}

// Replicas returns the machine IDs currently hosting db.
func (c *Cluster) Replicas(db string) ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ds, ok := c.dbs[db]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoDatabase, db)
	}
	out := make([]string, len(ds.replicas))
	copy(out, ds.replicas)
	return out, nil
}

// CreateDatabase creates a database without an SLA on Options.Replicas
// machines: the coldest ones, which with no load signal means those hosting
// the fewest databases.
func (c *Cluster) CreateDatabase(db string) error {
	c.mu.Lock()
	view, _ := c.liveMachinesLocked(nil)
	c.mu.Unlock()
	picked, _ := placement.Pick(view, sla.Resources{}, c.opts.Replicas, placement.Coldest)
	if len(picked) < c.opts.Replicas {
		return fmt.Errorf("%w: need %d machines for %s, have %d live", ErrNoReplicas, c.opts.Replicas, db, len(view))
	}
	ids := make([]string, len(picked))
	for i, idx := range picked {
		ids[i] = view[idx].ID
	}
	return c.CreateDatabaseOn(db, ids)
}

// CreateDatabaseOn creates a database hosted on the given machines.
func (c *Cluster) CreateDatabaseOn(db string, machineIDs []string) error {
	return c.createDatabaseOn(db, machineIDs, sla.Resources{})
}

// createDatabaseOn is CreateDatabaseOn for a database whose per-replica SLA
// reservation req the caller has already taken on every given machine.
func (c *Cluster) createDatabaseOn(db string, machineIDs []string, req sla.Resources) error {
	if len(machineIDs) == 0 {
		return fmt.Errorf("%w: no machines given for %s", ErrNoReplicas, db)
	}
	c.mu.Lock()
	if _, dup := c.dbs[db]; dup {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrDatabaseExists, db)
	}
	ms := make([]*Machine, 0, len(machineIDs))
	for _, id := range machineIDs {
		m, ok := c.machines[id]
		if !ok {
			c.mu.Unlock()
			return fmt.Errorf("%w: %s", ErrNoMachine, id)
		}
		if m.Failed() {
			c.mu.Unlock()
			return fmt.Errorf("%w: %s", ErrMachineFailed, id)
		}
		ms = append(ms, m)
	}
	c.mu.Unlock()

	var made []*Machine
	drop := func() {
		for _, m := range made {
			if m.Engine().DropDatabase(db) == nil {
				m.dbCount.Add(-1)
			}
		}
	}
	for _, m := range ms {
		if err := m.Engine().CreateDatabase(db); err != nil {
			drop()
			return err
		}
		m.dbCount.Add(1)
		made = append(made, m)
	}
	// The state machine decides the placement, the epoch and the head (it
	// rotates the list). A concurrent create of the same name loses there,
	// and its caller discards the copies it made.
	cp := c.ctl
	cp.mu.Lock()
	err := cp.apply(ctlCmd{Op: ctlOpCreateDB, DB: db, Replicas: machineIDs}, func() {
		c.dbs[db].req = req
	})
	cp.mu.Unlock()
	if err != nil {
		drop()
	}
	return err
}

// DropDatabase removes a database from every replica.
func (c *Cluster) DropDatabase(db string) error {
	cp := c.ctl
	cp.mu.Lock()
	c.mu.Lock()
	ds, ok := c.dbs[db]
	c.mu.Unlock()
	if !ok {
		cp.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNoDatabase, db)
	}
	var ms []*Machine
	err := cp.apply(ctlCmd{Op: ctlOpDropDB, DB: db}, func() {
		for _, id := range ds.replicas {
			m := c.machines[id]
			// ds.replicas holds live hosts only (FailMachine released a dead
			// one's share), so each gives back exactly what it holds.
			m.release(ds.req)
			ms = append(ms, m)
		}
	})
	cp.mu.Unlock()
	if err != nil {
		return err
	}
	for _, m := range ms {
		if m.Failed() {
			continue
		}
		if err := m.Engine().DropDatabase(db); err != nil {
			return err
		}
		m.dbCount.Add(-1)
	}
	return nil
}

// FailMachine marks a machine as failed, removes it from every database's
// replica set, and returns the names of the databases that lost a replica
// (the recovery work list). It models the paper's machine failure within a
// colo.
func (c *Cluster) FailMachine(id string) ([]string, error) {
	cp := c.ctl
	cp.mu.Lock()
	defer cp.mu.Unlock()
	c.mu.Lock()
	m, ok := c.machines[id]
	var hosted []*dbState
	for _, ds := range c.dbs {
		if contains(ds.replicas, id) {
			hosted = append(hosted, ds)
		}
	}
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoMachine, id)
	}
	var affected []string
	err := cp.apply(ctlCmd{Op: ctlOpFailMachine, Machine: id}, func() {
		for _, ds := range hosted {
			affected = append(affected, ds.name)
			m.release(ds.req)
			// Snapshot the database's write counters so a restart can
			// tell which tables changed while the machine was down.
			m.setMarks(ds.name, ds.epoch, ds.writeSeq)
		}
		// A machine hosting an in-flight Algorithm 1 copy (as source or
		// target) aborts the copy: the copy process abandons at its next
		// step, and the half-copied destination never joins the replica
		// set. The database is reported affected so the caller can requeue
		// the copy onto a live target.
		for _, ds := range c.dbs {
			if cs := ds.copying; cs != nil && !cs.aborted && (cs.target == id || cs.source == id) {
				cs.aborted = true
				affected = append(affected, ds.name)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(affected)
	affected = dedupSorted(affected)
	m.fail()
	c.metrics.reg.TraceEvent("recovery", id, "machine_failed", fmt.Sprintf("affected=%v", affected))
	return affected, nil
}

// dedupSorted removes adjacent duplicates from a sorted slice (a database
// can be affected both as a hosted replica and as an aborted copy).
func dedupSorted(xs []string) []string {
	out := xs[:0]
	for _, x := range xs {
		if len(out) == 0 || out[len(out)-1] != x {
			out = append(out, x)
		}
	}
	return out
}

// reachable reports whether the controller's link to machine id is open.
// Without a simulated network every machine is reachable.
func (c *Cluster) reachable(id string) bool {
	return !c.opts.Network.Partitioned(c.endpoint, id)
}

// pickReadMachine chooses the replica that serves a read for txn t,
// implementing the paper's three read-routing options. The copy target of an
// in-progress replica creation is never chosen because it only joins
// ds.replicas once the copy completes.
//
// Under a simulated network the read path degrades gracefully: replicas
// behind a partitioned controller link are routed around (the head keeps
// its role and resumes service when the partition heals), and
// only when every replica is unreachable does the read fail.
func (c *Cluster) pickReadMachine(t *Txn) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ds, ok := c.dbs[t.db]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrNoDatabase, t.db)
	}
	if len(ds.replicas) == 0 {
		return "", ErrNoReplicas
	}
	up := ds.replicas
	if c.opts.Network != nil {
		up = make([]string, 0, len(ds.replicas))
		for _, id := range ds.replicas {
			if c.reachable(id) {
				up = append(up, id)
			}
		}
		if len(up) == 0 {
			return "", fmt.Errorf("%w: %s", ErrUnreachable, t.db)
		}
	}
	c.metrics.readRouteCounter(c.opts.ReadOption).Inc()
	switch c.opts.ReadOption {
	case ReadOption1:
		// All reads of the database go to its head, where its writes take
		// their locks first. Head unreachable: serve from another live
		// replica without changing the head, so reads return once the
		// partition heals.
		if up[0] != ds.replicas[0] {
			c.metrics.readDegraded.Inc()
		}
		return up[0], nil
	case ReadOption2:
		// All reads of this transaction go to one replica, chosen once.
		if t.readHome != "" && contains(up, t.readHome) {
			return t.readHome, nil
		}
		if t.readHome != "" && contains(ds.replicas, t.readHome) {
			// The transaction's replica became unreachable mid-flight.
			c.metrics.readDegraded.Inc()
		}
		pick := up[int(c.rrSeq.Add(1))%len(up)]
		t.readHome = pick
		return pick, nil
	default: // ReadOption3
		if len(up) < len(ds.replicas) {
			c.metrics.readDegraded.Inc()
		}
		return up[int(c.rrSeq.Add(1))%len(up)], nil
	}
}

// writeRoute decides which machines a write on table must execute on,
// applying Algorithm 1 while a replica is being created. It returns the
// target machine IDs and a release function that must be called once the
// write has finished executing on all of them (the copy process drains
// in-flight writes before locking a table).
func (c *Cluster) writeRoute(db, table string) ([]string, func(), error) {
	table = lowerName(table)
	c.mu.Lock()
	defer c.mu.Unlock()
	ds, ok := c.dbs[db]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrNoDatabase, db)
	}
	if len(ds.replicas) == 0 {
		return nil, nil, ErrNoReplicas
	}
	targets := append([]string{}, ds.replicas...)
	if cs := ds.copying; cs != nil {
		switch {
		case cs.aborted:
			// The copy is being abandoned (its source or target failed):
			// stop rejecting and stop feeding the dead target.
		case cs.inFlight[table]:
			// Algorithm 1, line 11: write on a table being copied.
			c.metrics.rejected.Inc()
			return nil, nil, ErrRejected
		case cs.copied[table]:
			// Algorithm 1, line 9: table already copied — include target.
			targets = append(targets, cs.target)
		default:
			// Algorithm 1, line 13: not yet copied — exclude target.
		}
	}
	ds.bumpWrite(table)
	d := ds.pendingFor(table)
	d.inc()
	return targets, d.dec, nil
}

// Begin starts a distributed transaction on db.
func (c *Cluster) Begin(db string) (*Txn, error) {
	// The data path serves only under a leader's quorum lease: routes read
	// from materialized state are then guaranteed current (no competing
	// leader can have committed a conflicting placement). The check is two
	// atomic loads per live replica — no locks, no log round trip. The
	// transaction keeps the lease's term: it delivers a COMMIT only while
	// that lease holds.
	term := c.ctl.leaseTerm()
	if term == 0 {
		return nil, fmt.Errorf("%w: no controller holds the quorum lease", ErrNotLeader)
	}
	c.mu.Lock()
	_, ok := c.dbs[db]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoDatabase, db)
	}
	t := &Txn{c: c, db: db, gid: c.gidSeq.Add(1), term: term, start: time.Now()}
	t.sessions = t.sessionBuf[:0]
	return t, nil
}

// Exec runs a single statement in its own transaction (autocommit).
func (c *Cluster) Exec(db, sql string, params ...sqldb.Value) (*sqldb.Result, error) {
	t, err := c.Begin(db)
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

// DrainResolvers blocks until every background in-doubt resolution and
// ROLLBACK re-delivery (retried out of band after a network fault) has
// finished. Tests and the chaos driver call it before checking invariants
// such as lock counts and replica consistency.
func (c *Cluster) DrainResolvers() { c.resolvers.Wait() }

// Stats is a snapshot of cluster-level counters.
type Stats struct {
	Committed uint64
	Aborted   uint64
	Rejected  uint64 // proactive rejections (SLA availability metric)
	Deadlocks uint64 // summed over all machines
}

// Stats returns cluster counters, read back from the observability
// registry (the counters' single source of truth). Deadlocks are
// aggregated from every machine's engine.
func (c *Cluster) Stats() Stats {
	s := Stats{
		Committed: c.metrics.committed.Value(),
		Aborted:   c.metrics.aborted.Value(),
		Rejected:  c.metrics.rejected.Value(),
	}
	for _, m := range c.machinesInOrder() {
		s.Deadlocks += m.Engine().Stats().Deadlocks
	}
	return s
}

// machinesInOrder lists every machine, failed ones included, in registration
// order.
func (c *Cluster) machinesInOrder() []*Machine {
	c.mu.Lock()
	defer c.mu.Unlock()
	ms := make([]*Machine, len(c.order))
	for i, id := range c.order {
		ms[i] = c.machines[id]
	}
	return ms
}

func lowerName(s string) string {
	return strings.ToLower(s)
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
