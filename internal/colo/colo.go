// Package colo implements the paper's colo controller: the per-location
// coordinator that owns one or more machine clusters, routes client database
// connection requests to the cluster hosting the database, and manages a
// pool of free machines that it adds to clusters as workload demands. Like
// the system controller, it holds no per-connection state, so a hot-standby
// pair suffices for its fault tolerance (modelled by its state being a pure
// function of the clusters it references).
package colo

import (
	"errors"
	"fmt"
	"sync"

	"sdp/internal/core"
	"sdp/internal/obs"
	"sdp/internal/sla"
	"sdp/internal/sqldb"
)

// Sentinel errors.
var (
	// ErrNoDatabase is returned when routing a connection for an unknown
	// database.
	ErrNoDatabase = errors.New("colo: no such database")
	// ErrNoFreeMachines is returned when placement needs machines and the
	// free pool is empty.
	ErrNoFreeMachines = errors.New("colo: free machine pool exhausted")
)

// Options configures a colo controller.
type Options struct {
	// ClusterSize is the number of machines a newly formed cluster starts
	// with (the paper uses clusters of tens of machines on one rack). A
	// cluster grows to twice that; beyond it a new cluster is formed.
	ClusterSize int
	// Cluster configures every cluster controller this colo creates.
	Cluster core.Options
	// RecoveryThreads is the number of concurrent copy processes used when
	// recovering from a machine failure.
	RecoveryThreads int
	// Metrics, when non-nil, is the shared observability registry: the colo
	// reports into it and injects it into every cluster it creates, so one
	// snapshot covers the whole colo. Nil gives the colo a private registry.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.ClusterSize <= 0 {
		o.ClusterSize = 4
	}
	if o.RecoveryThreads <= 0 {
		o.RecoveryThreads = 2
	}
	return o
}

// Controller is one colo's controller.
type Controller struct {
	name    string
	opts    Options
	metrics *coloMetrics

	mu         sync.Mutex
	clusters   []*core.Cluster
	free       int // size of the free machine pool
	dbCluster  map[string]*core.Cluster
	machineSeq int
	clusterSeq int
}

// New creates a colo controller with an initially empty free pool.
func New(name string, opts Options) *Controller {
	opts = opts.withDefaults()
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	// Every cluster this colo creates reports into the same registry.
	opts.Cluster.Metrics = reg
	c := &Controller{
		name:      name,
		opts:      opts,
		metrics:   newColoMetrics(reg, name),
		dbCluster: make(map[string]*core.Cluster),
	}
	reg.OnSnapshot(func() { c.metrics.freeMachines.Set(float64(c.FreeMachines())) })
	return c
}

// Name returns the colo's name.
func (c *Controller) Name() string { return c.name }

// AddFreeMachines adds n machines to the free pool.
func (c *Controller) AddFreeMachines(n int) {
	c.mu.Lock()
	c.free += n
	c.mu.Unlock()
}

// FreeMachines returns the size of the free pool.
func (c *Controller) FreeMachines() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.free
}

// Clusters returns the clusters managed by this colo.
func (c *Controller) Clusters() []*core.Cluster {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*core.Cluster, len(c.clusters))
	copy(out, c.clusters)
	return out
}

// Databases lists the databases hosted in this colo.
func (c *Controller) Databases() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.dbCluster))
	for db := range c.dbCluster {
		out = append(out, db)
	}
	return out
}

// CreateDatabase places a new database with the given per-replica resource
// requirement somewhere in the colo: each existing cluster is tried with
// First-Fit placement; if none has capacity, machines from the free pool
// grow an existing cluster (up to twice ClusterSize) or form a new one.
func (c *Controller) CreateDatabase(db string, req sla.Resources, replicas int) error {
	c.mu.Lock()
	if _, dup := c.dbCluster[db]; dup {
		c.mu.Unlock()
		return fmt.Errorf("colo: database %s already exists", db)
	}
	clusters := append([]*core.Cluster{}, c.clusters...)
	c.mu.Unlock()

	for _, cl := range clusters {
		if _, err := cl.PlaceWithSLA(db, req, replicas); err == nil {
			c.mu.Lock()
			c.dbCluster[db] = cl
			c.mu.Unlock()
			c.metrics.placements.With(c.name, "placed").Inc()
			return nil
		} else if !errors.Is(err, core.ErrNoCapacity) {
			c.metrics.placements.With(c.name, "error").Inc()
			return err
		}
	}

	// No capacity anywhere: grow a cluster or form a new one, retrying
	// until the placement fits or the free pool runs dry (each
	// provisioning step consumes at least one free machine, so this
	// terminates).
	for {
		cl, err := c.provisionCluster(replicas)
		if err != nil {
			c.metrics.placements.With(c.name, "no_capacity").Inc()
			return err
		}
		_, perr := cl.PlaceWithSLA(db, req, replicas)
		if perr == nil {
			c.mu.Lock()
			c.dbCluster[db] = cl
			c.mu.Unlock()
			c.metrics.placements.With(c.name, "placed_after_growth").Inc()
			return nil
		}
		if !errors.Is(perr, core.ErrNoCapacity) {
			c.metrics.placements.With(c.name, "error").Inc()
			return perr
		}
	}
}

// provisionCluster grows the most recent cluster if below twice ClusterSize,
// else forms a new cluster, drawing machines from the free pool.
func (c *Controller) provisionCluster(minMachines int) (*core.Cluster, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	grow := c.opts.ClusterSize
	if grow < minMachines {
		grow = minMachines
	}
	// Grow the last cluster when allowed.
	if len(c.clusters) > 0 {
		last := c.clusters[len(c.clusters)-1]
		if n := len(last.MachineIDs()); n < 2*c.opts.ClusterSize {
			room := 2*c.opts.ClusterSize - n
			if grow > room {
				grow = room
			}
			if c.free < grow {
				return nil, fmt.Errorf("%w: need %d, have %d", ErrNoFreeMachines, grow, c.free)
			}
			for i := 0; i < grow; i++ {
				c.machineSeq++
				if _, err := last.AddMachine(fmt.Sprintf("%s-m%d", c.name, c.machineSeq)); err != nil {
					return nil, err
				}
			}
			c.free -= grow
			c.metrics.machinesProvisioned.Add(uint64(grow))
			return last, nil
		}
	}
	if c.free < grow {
		return nil, fmt.Errorf("%w: need %d, have %d", ErrNoFreeMachines, grow, c.free)
	}
	c.clusterSeq++
	cl := core.NewCluster(fmt.Sprintf("%s-c%d", c.name, c.clusterSeq), c.opts.Cluster)
	for i := 0; i < grow; i++ {
		c.machineSeq++
		if _, err := cl.AddMachine(fmt.Sprintf("%s-m%d", c.name, c.machineSeq)); err != nil {
			return nil, err
		}
	}
	c.free -= grow
	c.clusters = append(c.clusters, cl)
	c.metrics.clustersFormed.Inc()
	c.metrics.machinesProvisioned.Add(uint64(grow))
	return cl, nil
}

// Health summarises the colo's liveness for the admin plane: the free-pool
// size and every owned cluster's machine/copy state.
type Health struct {
	// Colo is the colo's name.
	Colo string `json:"colo"`
	// FreeMachines is the current free-pool size.
	FreeMachines int `json:"free_machines"`
	// Clusters lists the owned clusters' health, in formation order.
	Clusters []core.ClusterHealth `json:"clusters"`
}

// Health captures the colo's current liveness.
func (c *Controller) Health() Health {
	c.mu.Lock()
	h := Health{Colo: c.name, FreeMachines: c.free}
	clusters := append([]*core.Cluster{}, c.clusters...)
	c.mu.Unlock()
	for _, cl := range clusters {
		h.Clusters = append(h.Clusters, cl.Health())
	}
	return h
}

// Route returns the cluster hosting db — the colo controller's connection
// routing role.
func (c *Controller) Route(db string) (*core.Cluster, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl, ok := c.dbCluster[db]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoDatabase, db)
	}
	return cl, nil
}

// Begin opens a transaction on db via the hosting cluster.
func (c *Controller) Begin(db string) (*core.Txn, error) {
	cl, err := c.Route(db)
	if err != nil {
		return nil, err
	}
	return cl.Begin(db)
}

// clusterOf finds the cluster that owns machine id.
func (c *Controller) clusterOf(id string) (*core.Cluster, *core.Machine, error) {
	for _, cl := range c.Clusters() {
		if m, err := cl.Machine(id); err == nil {
			return cl, m, nil
		}
	}
	return nil, nil, fmt.Errorf("colo: machine %s not found in any cluster", id)
}

// fail fails machine id in whichever cluster owns it and records the event.
func (c *Controller) fail(id, event string) (*core.Cluster, []string, error) {
	cl, _, err := c.clusterOf(id)
	if err != nil {
		return nil, nil, err
	}
	affected, err := cl.FailMachine(id)
	if err != nil {
		return nil, nil, err
	}
	c.metrics.machineFailures.Inc()
	c.metrics.reg.TraceEvent("recovery", id, event, fmt.Sprintf("%d databases affected", len(affected)))
	return cl, affected, nil
}

// FailMachine fails a machine in whichever cluster owns it and immediately
// runs recovery (re-replication) with the configured number of recovery
// threads, drawing a replacement machine from the free pool into the
// cluster when one is available.
func (c *Controller) FailMachine(id string) (core.RecoveryReport, error) {
	cl, affected, err := c.fail(id, "machine_failed")
	if err != nil {
		return core.RecoveryReport{}, err
	}
	// Replace the dead machine from the free pool if possible.
	c.mu.Lock()
	if c.free > 0 {
		c.machineSeq++
		if _, err := cl.AddMachine(fmt.Sprintf("%s-m%d", c.name, c.machineSeq)); err == nil {
			c.free--
			c.metrics.machinesProvisioned.Inc()
		}
	}
	c.mu.Unlock()
	return cl.RecoverDatabases(affected, c.opts.RecoveryThreads), nil
}

// CrashMachine fails a machine without re-replicating its databases — the
// transient-outage model: the machine is expected back, so its replicas are
// left one short rather than rebuilt elsewhere. Pair with RestartMachine;
// use FailMachine when the machine is gone for good. Returns the affected
// databases.
func (c *Controller) CrashMachine(id string) ([]string, error) {
	_, affected, err := c.fail(id, "machine_crashed")
	return affected, err
}

// RestartMachine brings a crashed machine back: its engine recovers from its
// write-ahead log, and its databases rejoin their replica sets — by the fast
// log-replay-plus-delta path when the machine's recovered state is usable,
// by a full copy otherwise. Every machine logs, so any crashed machine can
// restart.
func (c *Controller) RestartMachine(id string) (*sqldb.RecoveryStats, core.RecoveryReport, error) {
	cl, m, err := c.clusterOf(id)
	if err != nil {
		return nil, core.RecoveryReport{}, err
	}
	stats, err := cl.RestartMachine(id)
	if err != nil {
		return nil, core.RecoveryReport{}, err
	}
	return stats, cl.RecoverDatabases(m.Engine().Databases(), c.opts.RecoveryThreads), nil
}
