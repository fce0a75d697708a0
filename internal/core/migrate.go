package core

import (
	"fmt"
	"slices"
)

// MigrateReplica moves one replica of db from one machine to another while
// the database keeps serving transactions: a new replica is created on the
// target with Algorithm 1 (so one-copy serializability is preserved
// throughout), and only once the target is fully synchronised is the source
// replica retired. This is the replica-movement primitive behind the
// paper's SLA-driven "database placement and migration within a cluster";
// the SLA model counts each move in reallocation_rate(j). The database's SLA
// reservation moves with the replica: CreateReplica takes it on the target
// before copying, RetireReplica gives it back on the source.
func (c *Cluster) MigrateReplica(db, fromID, toID string) error {
	c.mu.Lock()
	ds, ok := c.dbs[db]
	hosts := ok && slices.Contains(ds.replicas, fromID)
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoDatabase, db)
	}
	if !hosts {
		return fmt.Errorf("core: %s does not host %s", fromID, db)
	}
	if err := c.CreateReplica(db, toID); err != nil {
		return err
	}
	return c.RetireReplica(db, fromID)
}

// GrowReplica raises db's replica degree by one, copying onto the target
// with Algorithm 1. This is the adaptive provisioning controller's grow
// primitive.
func (c *Cluster) GrowReplica(db, targetID string) error {
	return c.CreateReplica(db, targetID)
}

// ShrinkReplica lowers db's replica degree by one, retiring the replica on
// the given machine and releasing its SLA reservation there. The retire is
// replicated; the last replica is never shrunk. This is the adaptive
// provisioning controller's shrink primitive.
func (c *Cluster) ShrinkReplica(db, fromID string) error {
	return c.RetireReplica(db, fromID)
}

// RetireReplica removes one replica of db from a machine: the state
// machine takes the machine out of the replica set, the machine gives back
// the replica's SLA reservation, and only then is its copy dropped, so a
// controller failover never resurrects the retired machine into the replica
// set after its data is gone. Until the drop returns the machine stays in
// the database's retiring list, so no copy targets the copy being dropped.
// Refuses to retire during an in-flight copy, and the state machine refuses
// to retire the last replica. Retryable with ErrNotLeader/ErrNoQuorum like
// every control mutation.
func (c *Cluster) RetireReplica(db, machineID string) error {
	cp := c.ctl
	cp.mu.Lock()
	c.mu.Lock()
	ds, ok := c.dbs[db]
	var err error
	switch {
	case !ok:
		err = fmt.Errorf("%w: %s", ErrNoDatabase, db)
	case ds.copying != nil:
		err = fmt.Errorf("%w: %s", ErrCopyInProgress, db)
	case !slices.Contains(ds.replicas, machineID):
		err = fmt.Errorf("core: %s does not host %s", machineID, db)
	}
	m := c.machines[machineID]
	c.mu.Unlock()
	retired := false
	if err == nil {
		err = cp.apply(ctlCmd{Op: ctlOpRetireReplica, DB: db, Machine: machineID}, func() {
			if retired = !slices.Contains(ds.replicas, machineID); retired {
				m.release(ds.req)
				ds.retiring = append(ds.retiring, machineID)
			}
		})
	}
	cp.mu.Unlock()
	if !retired {
		return err
	}
	defer func() {
		c.mu.Lock()
		ds.retiring = slices.DeleteFunc(ds.retiring, func(id string) bool { return id == machineID })
		c.mu.Unlock()
	}()
	if m.Failed() {
		return nil
	}
	// New transactions no longer route here, but those that began before
	// the retire may still hold branches on the machine: they complete
	// normally, since the drop waits for them to end — for at most the
	// engine's LockTimeout (not at all when it is zero), after which it
	// wounds what is left, as it would wound a DDL statement's blockers.
	eng := m.Engine()
	eng.AwaitBranches(db)
	if err := eng.DropDatabase(db); err != nil {
		return err
	}
	m.dbCount.Add(-1)
	return nil
}
