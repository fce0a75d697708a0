package core

import (
	"fmt"
	"slices"
	"time"

	"sdp/internal/replcopy"
	"sdp/internal/sqldb"
)

// CreateReplica creates a new replica of db on the target machine while the
// database keeps serving transactions: the paper's Algorithm 1 (copyReplica;
// internal/replcopy decides each step). Reads never reach the target before
// it registers. With database-granularity copying (Options.CopyGranularity)
// every table is in flight until the last image is taken and all its
// writes are rejected meanwhile — less bookkeeping, more rejections, as in
// the paper's recovery experiments. The database's SLA reservation, if it
// declares one, is taken on the target for the new replica.
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
// restarted target failed (nil for any other target); replcopy.Start reads
// them in the critical section that installs the copy state, because
// counters advance at routing time under the same mutex.
//
// Whatever the target already holds of db is reconciled rather than trusted:
// tables the source no longer has are dropped, and each copied table replaces
// the target's version (sqldb.Engine.RestoreTable). On any failure the copy
// is abandoned and the target's copy of db dropped, so a target is either a
// registered replica or holds nothing.
func (c *Cluster) copyReplica(db string, target *Machine, marks map[string]uint64) error {
	targetID := target.ID()
	c.mu.Lock()
	c.awaitCreates(db)
	ds, ok := c.dbs[db]
	var err error
	switch {
	case !ok:
		err = fmt.Errorf("%w: %s", ErrNoDatabase, db)
	case ds.creating > 0:
		err = fmt.Errorf("%w: a CREATE TABLE on %s is in flight", ErrCopyInProgress, db)
	case ds.copying != nil:
		err = fmt.Errorf("%w: %s", ErrCopyInProgress, db)
	case slices.Contains(ds.replicas, targetID):
		err = fmt.Errorf("core: %s already hosts %s", targetID, db)
	case slices.Contains(ds.retiring, targetID):
		err = fmt.Errorf("%w: %s still drops its retired copy of %s", ErrCopyInProgress, targetID, db)
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
	source := c.machines[ds.replicas[0]]
	cs := &copyState{
		Copy:   replcopy.Copy{Phase: replcopy.Running, Source: source.ID(), Target: targetID},
		tables: make(map[string]replcopy.Table),
	}
	for tbl := range marks {
		if replcopy.Start(marks, tbl, ds.writeSeq[tbl]) == replcopy.Copied {
			cs.tables[tbl] = replcopy.Copied
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
	m.reg.TraceEvent("copy", db, "start", fmt.Sprintf("%s -> %s clean=%d", cs.Source, targetID, len(cs.tables)))

	err = c.runCopy(ds, cs, source, target)
	if err != nil {
		// The copy aborts first, so writes stop reaching the target. The
		// record's abort is best effort (a takeover retires orphaned records
		// anyway). The record and the target's copy both go before the copy
		// state clears, so no next copy can start and lose either to this
		// abandon. The drop may wait for a prepared branch that only a
		// takeover, under cp.mu, settles: it runs outside cp.mu.
		c.mu.Lock()
		cs.Phase = replcopy.Aborted
		c.mu.Unlock()
		c.ctl.mu.Lock()
		_ = c.ctl.apply(ctlCmd{Op: ctlOpCopyAbort, DB: db}, nil)
		c.ctl.mu.Unlock()
		target.dropDatabase(db)
		c.mu.Lock()
		ds.copying = nil
		c.mu.Unlock()
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
	err := cp.apply(ctlCmd{Op: ctlOpCopyBegin, DB: db, Source: cs.Source, Target: cs.Target}, nil)
	cp.mu.Unlock()
	if err != nil {
		return err
	}

	// A copy aborted since copy_begin creates nothing for its abandon to
	// drop.
	c.mu.Lock()
	driven := replcopy.Driven(cs.Copy)
	c.mu.Unlock()
	if !driven {
		return fmt.Errorf("%w: %s -> %s", ErrCopyAborted, cs.Source, cs.Target)
	}
	tables := source.Engine().Tables(db)
	err = c.netCall(c.endpoint, cs.Target, "copy_create_db", func() error {
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
			if !slices.Contains(tables, tbl) {
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

	pending := slices.DeleteFunc(tables, func(tbl string) bool { return cs.tables[tbl] == replcopy.Copied })
	step := 1
	if c.opts.CopyGranularity == sqldb.GranularityDatabase {
		step = len(pending)
	}
	for ; len(pending) > 0; pending = pending[step:] {
		if err := c.copyTables(ds, cs, source, target, pending[:step]); err != nil {
			return err
		}
	}

	// cp.mu is held from the guard to the registration, so a machine
	// failure (which takes it) falls entirely before or entirely after.
	cp.mu.Lock()
	defer cp.mu.Unlock()
	c.mu.Lock()
	ok := replcopy.Register(cs.Copy, cs.Target, !target.Failed())
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s -> %s", ErrCopyAborted, cs.Source, cs.Target)
	}
	if !target.Engine().IndexesBuilt(db) {
		return fmt.Errorf("%w: %s -> %s: an index is not built", ErrCopyAborted, cs.Source, cs.Target)
	}
	return cp.apply(ctlCmd{Op: ctlOpCopyComplete, DB: db, Target: cs.Target}, func() {
		ds.copying = nil
	})
}

// stepTables moves each of tables one phase on (replcopy.Next) under the
// cluster mutex and counts each move as event.
func (c *Cluster) stepTables(ds *dbState, cs *copyState, tables []string, event string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, tbl := range tables {
		next, ok := replcopy.Next(cs.Phase, cs.tables[tbl])
		if !ok {
			return fmt.Errorf("%w: %s -> %s", ErrCopyAborted, cs.Source, cs.Target)
		}
		cs.tables[tbl] = next
		c.metrics.copyPhase.With(event).Inc()
		c.metrics.reg.TraceEvent("copy", ds.name, event, tbl)
	}
	return nil
}

// copyTables is Algorithm 1's per-table step, for one table or — at database
// granularity — for every table at once: in flight, imaged under the
// tables' read locks and copied, then applied on the target while the locks
// are still held, and then indexed on the target once they are released.
// Every write takes its locks at the head, the source, first, so the dump's
// lock acquisition orders the image after each write that holds the table's
// lock there (strict 2PL) and before every other.
func (c *Cluster) copyTables(ds *dbState, cs *copyState, source, target *Machine, tables []string) error {
	if err := c.stepTables(ds, cs, tables, "table_inflight"); err != nil {
		return err
	}
	dumpStart := time.Now()
	err := c.netCall(c.endpoint, cs.Source, "copy_dump", func() error {
		return source.Engine().DumpTables(ds.name, tables, func(images []sqldb.TableDump) error {
			// Every image is taken, so the tables are copied: a write's head
			// share waits at the source for these locks until the last
			// apply returns with its restore frame logged, and its rest
			// then goes to the target too.
			if err := c.stepTables(ds, cs, tables, "table_copied"); err != nil {
				return err
			}
			for _, d := range images {
				err := c.netCall(cs.Source, cs.Target, "copy_apply", func() error {
					return target.Engine().RestoreTable(ds.name, d)
				})
				if err != nil {
					return err
				}
			}
			return nil
		})
	})
	c.metrics.copyDump.ObserveDuration(time.Since(dumpStart))
	if err != nil {
		return err
	}
	// The source's locks are released: the target builds the indexes its
	// restores left pending while writes reach it (sqldb.BuildIndexes).
	err = c.netCall(c.endpoint, cs.Target, "copy_build", func() error {
		return target.Engine().BuildIndexes(ds.name, tables)
	})
	if err != nil {
		c.mu.Lock()
		driven := replcopy.Driven(cs.Copy)
		c.mu.Unlock()
		if !driven { // a target crash aborted the copy and closed its engine
			return fmt.Errorf("%w: %s -> %s: %v", ErrCopyAborted, cs.Source, cs.Target, err)
		}
		return err
	}
	for _, tbl := range tables {
		c.metrics.copyPhase.With("table_indexed").Inc()
		c.metrics.reg.TraceEvent("copy", ds.name, "table_indexed", tbl)
	}
	return nil
}
