package core

import (
	"fmt"
	"time"

	"sdp/internal/sqldb"
)

// CreateReplica creates a new replica of db on the target machine while the
// database keeps serving transactions, implementing the paper's Algorithm 1:
//
//   - reads are never routed to the target (it only joins the replica set at
//     the end),
//   - writes to tables already copied execute on all machines including the
//     target,
//   - writes to a table currently being copied are rejected (and the
//     transaction aborted),
//   - writes to tables not yet copied execute on the old machines only.
//
// With database-granularity copying (Options.CopyGranularity), all tables
// are locked and in flight for the duration of the copy and every write to
// them is rejected — less bookkeeping, more rejections, as in the paper's
// recovery experiments. The database's SLA reservation, if it declares one,
// is taken on the target for the new replica.
func (c *Cluster) CreateReplica(db, targetID string) error {
	target, err := c.Machine(targetID)
	if err != nil {
		return err
	}
	return c.copyReplica(db, target, nil)
}

// copyReplica is the one driver of Algorithm 1: it brings target's copy of db
// up to date from the first current replica and then admits target to the
// replica set. marks are the per-table write counters recorded when a since
// restarted target failed (nil for any other target): a table whose counter
// has not moved was fully recovered by the target's own log replay, starts
// out copied, and is never dumped. The comparison happens in the critical
// section that installs the copy state, because counters advance at routing
// time under the same mutex — any write the target might have missed is
// visible in the delta, and any later one is routed to it.
//
// Whatever the target already holds of db is reconciled rather than trusted:
// tables the source no longer has are dropped, and each copied table replaces
// the target's version (sqldb.Engine.RestoreTable). On any failure the copy
// is abandoned and the target's copy of db dropped, so a target is either a
// registered replica or holds nothing.
func (c *Cluster) copyReplica(db string, target *Machine, marks map[string]uint64) error {
	targetID := target.ID()
	c.mu.Lock()
	ds, ok := c.dbs[db]
	var err error
	switch {
	case !ok:
		err = fmt.Errorf("%w: %s", ErrNoDatabase, db)
	case ds.copying != nil:
		err = fmt.Errorf("%w: %s", ErrCopyInProgress, db)
	case contains(ds.replicas, targetID):
		err = fmt.Errorf("core: %s already hosts %s", targetID, db)
	case target.Failed():
		err = fmt.Errorf("%w: %s", ErrMachineFailed, targetID)
	case len(ds.replicas) == 0:
		err = ErrNoReplicas
	case !target.reserve(ds.req):
		err = fmt.Errorf("%w: replica of %s on %s", ErrNoCapacity, db, targetID)
	}
	if err != nil {
		c.mu.Unlock()
		return err
	}
	req := ds.req
	sourceID := ds.replicas[0]
	source := c.machines[sourceID]
	cs := &copyState{
		source:   sourceID,
		target:   targetID,
		copied:   make(map[string]bool),
		inFlight: make(map[string]bool),
	}
	for tbl, seq := range marks {
		if ds.writeSeq[tbl] == seq {
			cs.copied[tbl] = true
		}
	}
	ds.copying = cs
	c.mu.Unlock()
	// Whatever marks the target held described the copy being replaced.
	target.clearMarks(db)

	m := c.metrics
	m.copyPhase.With("start").Inc()
	m.copiesRunning.Inc()
	defer m.copiesRunning.Dec()
	m.reg.TraceEvent("copy", db, "start", fmt.Sprintf("%s -> %s clean=%d", sourceID, targetID, len(cs.copied)))

	err = c.runCopy(ds, cs, source, target)
	if err != nil {
		// Best effort: a takeover's reconciliation retires orphaned copy
		// records anyway. The record goes first, so no next copy's record
		// is what this abort clears.
		cp := c.ctl
		cp.mu.Lock()
		_ = cp.apply(ctlCmd{Op: ctlOpCopyAbort, DB: db}, nil)
		c.mu.Lock()
		ds.copying = nil
		c.mu.Unlock()
		cp.mu.Unlock()
		target.dropDatabase(db)
		target.release(req)
		m.copyPhase.With("abandoned").Inc()
		m.reg.TraceEvent("copy", db, "abandoned", err.Error())
		return err
	}
	m.copyPhase.With("done").Inc()
	m.reg.TraceEvent("copy", db, "done", targetID)
	return nil
}

// runCopy performs the copy proper: the copy_begin/copy_complete command
// pair, the target's preparation, one copyTables step per table (or one for
// the whole database), and the registration of the new replica. The caller
// abandons the copy on error.
func (c *Cluster) runCopy(ds *dbState, cs *copyState, source, target *Machine) error {
	db := ds.name
	cp := c.ctl
	// The copy's existence is recorded before any data moves, so a
	// controller taking over mid-copy knows to abort it rather than leave
	// the router rejecting writes forever.
	cp.mu.Lock()
	err := cp.apply(ctlCmd{Op: ctlOpCopyBegin, DB: db, Source: cs.source, Target: cs.target}, nil)
	cp.mu.Unlock()
	if err != nil {
		return err
	}

	tables := source.Engine().Tables(db)
	err = c.netCall(c.endpoint, cs.target, "copy_create_db", func() error {
		eng := target.Engine()
		if !eng.HasDatabase(db) {
			if err := eng.CreateDatabase(db); err != nil {
				return err
			}
			target.dbCount.Add(1)
			return nil
		}
		// A table the target holds but the source does not was dropped
		// cluster-wide while the target was away, or belongs to a stale copy.
		for _, tbl := range eng.Tables(db) {
			if !contains(tables, tbl) {
				if _, err := eng.Exec(db, "DROP TABLE "+tbl); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	var pending []string
	for _, tbl := range tables {
		if !cs.copied[tbl] {
			pending = append(pending, tbl)
		}
	}
	step := 1
	if c.opts.CopyGranularity == sqldb.GranularityDatabase {
		step = len(pending)
	}
	for ; len(pending) > 0; pending = pending[step:] {
		if err := c.copyTables(ds, cs, source, target, pending[:step]); err != nil {
			return err
		}
	}

	// Registration is the state machine's: a takeover after it sees the
	// target as a full replica; before it, the copy is aborted and the
	// target discarded. Either way no controller ever routes to a
	// half-copied replica. cp.mu is held from the abort check to the
	// registration, so a machine failure (which takes it) falls entirely
	// before — and aborts the copy — or entirely after, and removes a
	// registered replica.
	cp.mu.Lock()
	defer cp.mu.Unlock()
	c.mu.Lock()
	err = cs.abortedErr(target)
	c.mu.Unlock()
	if err != nil {
		return err
	}
	return cp.apply(ctlCmd{Op: ctlOpCopyComplete, DB: db, Target: cs.target}, func() {
		ds.copying = nil
	})
}

// abortedErr is the copy's one abort check: a copy whose source or target
// failed mid-flight (FailMachine sets aborted), or whose controller died,
// must not register the half-copied destination. Called with the
// cluster mutex held.
func (cs *copyState) abortedErr(target *Machine) error {
	if cs.aborted || target.Failed() {
		return fmt.Errorf("%w: %s -> %s", ErrCopyAborted, cs.source, cs.target)
	}
	return nil
}

// copyTables is Algorithm 1's per-table step, for one table or — at database
// granularity — for every table at once: mark the tables in flight, drain
// the writes already routed to them, dump them under their read locks, apply
// each image on the target while the locks are held, mark them copied.
func (c *Cluster) copyTables(ds *dbState, cs *copyState, source, target *Machine, tables []string) error {
	// The tables go in flight *before* their locks are taken: from this
	// moment new writes to them are rejected, so once the in-flight writes
	// drain the lock acquisition races only with transactions that already
	// hold their locks (and strict 2PL orders the dump after them).
	c.mu.Lock()
	if err := cs.abortedErr(target); err != nil {
		c.mu.Unlock()
		return err
	}
	drains := make([]*drainCounter, len(tables))
	for i, tbl := range tables {
		cs.inFlight[tbl] = true
		drains[i] = ds.pendingFor(tbl)
	}
	c.mu.Unlock()
	for _, tbl := range tables {
		c.metrics.copyPhase.With("table_inflight").Inc()
		c.metrics.reg.TraceEvent("copy", ds.name, "table_inflight", tbl)
	}
	for _, d := range drains {
		d.wait()
	}

	dumpStart := time.Now()
	err := c.netCall(c.endpoint, cs.source, "copy_dump", func() error {
		return source.Engine().DumpTables(ds.name, tables, func(d sqldb.TableDump) error {
			return c.netCall(cs.source, cs.target, "copy_apply", func() error {
				return target.Engine().RestoreTable(ds.name, d)
			})
		})
	})
	c.metrics.copyDump.ObserveDuration(time.Since(dumpStart))
	if err != nil {
		return err
	}

	c.mu.Lock()
	for _, tbl := range tables {
		cs.copied[tbl] = true
		delete(cs.inFlight, tbl)
	}
	c.mu.Unlock()
	for _, tbl := range tables {
		c.metrics.copyPhase.With("table_copied").Inc()
		c.metrics.reg.TraceEvent("copy", ds.name, "table_copied", tbl)
	}
	return nil
}
