package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"sdp/internal/placement"
	"sdp/internal/sqldb"
)

// RecoveryReport summarises one recovery run.
type RecoveryReport struct {
	Recovered []string         // databases successfully re-replicated
	Failed    map[string]error // databases whose recovery failed
}

// RecoverDatabases re-replicates each named database onto a fresh machine,
// running up to `threads` concurrent copy processes — the x-axis of the
// paper's Figure 8/9 recovery experiments. Targets are chosen
// least-loaded-first among live machines not already hosting the database.
func (c *Cluster) RecoverDatabases(dbs []string, threads int) RecoveryReport {
	if threads <= 0 {
		threads = 1
	}
	report := RecoveryReport{Failed: make(map[string]error)}
	var mu sync.Mutex

	work := make(chan string)
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for db := range work {
				start := time.Now()
				err := c.recoverOne(db)
				c.metrics.recoverySeconds.ObserveDuration(time.Since(start))
				mu.Lock()
				if err != nil {
					report.Failed[db] = err
					c.metrics.recoveryTotal.With("failed").Inc()
					c.metrics.reg.TraceEvent("recovery", db, "failed", err.Error())
				} else {
					report.Recovered = append(report.Recovered, db)
					c.metrics.recoveryTotal.With("recovered").Inc()
					c.metrics.reg.TraceEvent("recovery", db, "recovered", "")
				}
				mu.Unlock()
			}
		}()
	}
	for _, db := range dbs {
		work <- db
	}
	close(work)
	wg.Wait()
	sort.Strings(report.Recovered)
	return report
}

// recoverOne re-replicates one database. Its one decision is the copy's
// target: a restarted machine holding a log-recovered copy of the database
// plus usable failure-time marks is caught up (only the tables written while
// it was down are copied); otherwise, or if that fails, the least-loaded
// machine gets a copy of every table. Either way Algorithm 1 runs through
// copyReplica.
func (c *Cluster) recoverOne(db string) error {
	if target, marks := c.fastRecoveryCandidate(db); target != nil {
		err := c.copyReplica(db, target, marks)
		if err == nil {
			c.metrics.walRecovery.With("fast").Inc()
			c.metrics.reg.TraceEvent("recovery", db, "fast_path", target.ID())
			return nil
		}
		if errors.Is(err, ErrCopyInProgress) {
			return err
		}
		// Start over with a full copy: a copy that failed past its admission
		// checks has discarded the target's log-recovered state.
		c.metrics.reg.TraceEvent("recovery", db, "fast_path_failed", err.Error())
	}
	target, err := c.pickRecoveryTarget(db)
	if err != nil {
		return err
	}
	if err := c.copyReplica(db, target, nil); err != nil {
		return err
	}
	c.metrics.walRecovery.With("full").Inc()
	return nil
}

// fastRecoveryCandidate returns a live machine holding a log-recovered copy
// of db together with the failure-time marks needed to catch it up, or nil.
func (c *Cluster) fastRecoveryCandidate(db string) (*Machine, map[string]uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ds, ok := c.dbs[db]
	if !ok {
		return nil, nil
	}
	for _, id := range c.order {
		m := c.machines[id]
		if m.Failed() || slices.Contains(ds.replicas, id) {
			continue
		}
		if marks := m.usableMarks(db, ds.epoch); marks != nil && m.Engine().HasDatabase(db) {
			return m, marks
		}
	}
	return nil, nil
}

// CheckpointMachines writes a fuzzy checkpoint on every live machine,
// bounding each machine's restart replay to the log tail written since. A
// deployment runs this periodically (it blocks writers only per table, one
// table at a time) so that RestartMachine restores table images instead of
// replaying the machine's whole history statement by statement.
func (c *Cluster) CheckpointMachines() error {
	for _, m := range c.machinesInOrder() {
		if m.Failed() {
			continue
		}
		if err := m.Engine().Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint %s: %w", m.ID(), err)
		}
	}
	return nil
}

// RestartMachine brings a failed machine back into the cluster: the machine
// recovers its engine from its write-ahead log, the branches its log left in
// doubt are settled by the in-doubt rule (they commit iff some participant
// logged the commit), and databases dropped while the machine was down are
// discarded. The machine's databases rejoin their replica sets through
// RecoverDatabases, which prefers the fast log-replay path for them.
func (c *Cluster) RestartMachine(id string) (*sqldb.RecoveryStats, error) {
	c.mu.Lock()
	m, ok := c.machines[id]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoMachine, id)
	}
	stats, err := m.Restart()
	if err != nil {
		return nil, err
	}
	eng := m.Engine()
	// A settled branch ends as its transaction did everywhere else, so the
	// write counters snapshotted at the failure, which count its writes,
	// still say which tables changed while the machine was down. Its
	// coordinator may still be running; the resolver's claims refuse its
	// PREPAREs and COMMITs from then on.
	if gids := eng.PreparedGIDs(); len(gids) > 0 {
		_ = c.settle(gids, make([]bool, len(gids)))
	}
	c.mu.Lock()
	var orphans []string
	for _, db := range eng.Databases() {
		// A database dropped while the machine was down, or one it holds
		// but is no replica of without usable marks (replcopy.Usable).
		if ds, ok := c.dbs[db]; !ok || !slices.Contains(ds.replicas, id) && m.usableMarks(db, ds.epoch) == nil {
			orphans = append(orphans, db)
		}
	}
	c.mu.Unlock()
	for _, db := range orphans {
		m.dropDatabase(db)
	}
	// The liveness change commits after the physical restart: if the
	// proposal is lost with the machine already live, the replicated state
	// conservatively still says failed, and a takeover re-fails the machine
	// (the operator retries the restart) rather than ever trusting a
	// machine the log says is dead.
	c.ctl.mu.Lock()
	err = c.ctl.apply(ctlCmd{Op: ctlOpRestartMachine, Machine: id}, nil)
	c.ctl.mu.Unlock()
	if err != nil {
		return stats, err
	}
	c.metrics.reg.TraceEvent("recovery", id, "machine_restarted",
		fmt.Sprintf("replayed=%d in_doubt=%d", stats.Applied, stats.InDoubt))
	return stats, nil
}

// pickRecoveryTarget returns the coldest live machine — with no load signal
// here, the one hosting the fewest databases — that does not already host
// db, is not dropping a retired copy of it, and has room for its SLA
// reservation.
func (c *Cluster) pickRecoveryTarget(db string) (*Machine, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ds, ok := c.dbs[db]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoDatabase, db)
	}
	view, ms := c.liveMachinesLocked(slices.Concat(ds.replicas, ds.retiring))
	picked, _ := placement.Pick(view, ds.req, 1, placement.Coldest)
	if len(picked) == 0 {
		return nil, fmt.Errorf("%w: no machine can host a new replica of %s", ErrNoReplicas, db)
	}
	return ms[picked[0]], nil
}
