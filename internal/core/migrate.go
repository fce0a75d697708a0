package core

import "fmt"

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
	hosts := ok && contains(ds.replicas, fromID)
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

// RetireReplica removes one replica of db from a machine through the
// replicated control plane: the removal commits to the consensus log before
// the machine's copy is dropped, so a controller failover never resurrects
// the retired machine into the replica set after its data is gone. Refuses
// to retire during an in-flight copy or down to zero replicas. Retryable
// with ErrNotLeader/ErrNoQuorum like every control mutation.
func (c *Cluster) RetireReplica(db, machineID string) error {
	c.mu.Lock()
	ds, ok := c.dbs[db]
	switch {
	case !ok:
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNoDatabase, db)
	case ds.copying != nil:
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrCopyInProgress, db)
	case !contains(ds.replicas, machineID):
		c.mu.Unlock()
		return fmt.Errorf("core: %s does not host %s", machineID, db)
	case len(ds.replicas) <= 1:
		c.mu.Unlock()
		return fmt.Errorf("%w: cannot retire the last replica of %s", ErrNoReplicas, db)
	}
	c.mu.Unlock()

	if cp := c.ctl; cp != nil {
		// Hold cp.mu across propose and materialization (the
		// CreateDatabaseOn pattern) so no other proposal interleaves
		// between the log accepting the retire and the local state
		// reflecting it.
		cp.mu.Lock()
		defer cp.mu.Unlock()
		if _, err := cp.propose(ctlCmd{Op: ctlOpRetireReplica, DB: db, Machine: machineID}); err != nil {
			return err
		}
	}
	return c.retireReplica(db, machineID)
}

// retireReplica removes one replica of db from a machine: the machine stops
// receiving the database's operations, gives back the replica's SLA
// reservation, then drops its copy.
func (c *Cluster) retireReplica(db, machineID string) error {
	c.mu.Lock()
	ds, ok := c.dbs[db]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNoDatabase, db)
	}
	found := false
	for i, id := range ds.replicas {
		if id == machineID {
			ds.replicas = append(ds.replicas[:i], ds.replicas[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		c.mu.Unlock()
		return fmt.Errorf("core: %s does not host %s", machineID, db)
	}
	if len(ds.replicas) == 0 {
		// Never retire the last replica.
		ds.replicas = append(ds.replicas, machineID)
		c.mu.Unlock()
		return fmt.Errorf("%w: cannot retire the last replica of %s", ErrNoReplicas, db)
	}
	if ds.readHome == machineID {
		ds.readHome = ds.replicas[0]
	}
	m := c.machines[machineID]
	m.release(ds.req)
	c.mu.Unlock()

	if !m.Failed() {
		// In-flight transactions may still hold branches on the retiring
		// machine; they complete normally (their sessions were created
		// before removal). New transactions no longer route here. The
		// copy is dropped once the engine has no open transactions on it;
		// dropping immediately is safe for our engine because scans and
		// locks are per-table objects that survive catalog removal, but
		// we keep it simple and drop right away.
		if err := m.Engine().DropDatabase(db); err != nil {
			return err
		}
		m.dbCount.Add(-1)
	}
	return nil
}
