package core

import (
	"errors"
	"fmt"
	"time"

	"sdp/internal/netsim"
)

// The in-doubt rule. A prepared 2PC branch that has not received its COMMIT
// or ROLLBACK is decided by one rule, computed from the participants alone:
// it commits iff some participant committed the transaction — that
// participant's log holds a commit frame for the gid — and aborts otherwise.
// resolve applies it. A new leader (onLeader), a restarted machine
// (RestartMachine) and a coordinator that could not finish its commit phase
// all call it, and no controller memory enters the verdict, so a dead
// controller takes nothing with it that the verdict needs.

// resolveBackoffCap bounds the wait between two background attempts.
const resolveBackoffCap = 100 * time.Millisecond

// resolve decides every undecided prepared branch of gid by the in-doubt
// rule and returns the verdict. It first claims gid's branch on every live
// machine — a prepared branch then refuses its session's COMMIT and
// ROLLBACK, one not yet prepared refuses its PREPARE — and only then looks
// for a commit frame: after the claims none can appear that the lookups
// miss. committed says the caller knows some participant committed: it holds
// a COMMIT acknowledgment. A failed machine answers from its log, which
// survives it. A commit frame found decides commit even when some claim or
// lookup failed; abort needs them all. An error means a machine could not be
// reached, or could not log the verdict; the claims made stand, and a retry
// reaches the same verdict.
func (c *Cluster) resolve(gid uint64, committed bool) (bool, error) {
	ms := c.machinesInOrder()
	var claimed []*Machine
	var unreached error
	for _, m := range ms {
		if m.Failed() {
			continue
		}
		var ok bool
		if err := c.netCall(c.endpoint, m.ID(), "claim", func() error { ok = m.Engine().ClaimPrepared(gid); return nil }); err != nil {
			unreached = err
		} else if ok {
			claimed = append(claimed, m)
		}
	}
	for _, m := range ms {
		if committed {
			break
		}
		var found bool
		if err := c.netCall(c.endpoint, m.ID(), "lookup", func() (err error) { found, err = m.Engine().CommitLogged(gid); return err }); err != nil {
			unreached = err
		} else {
			committed = found
		}
	}
	if !committed && unreached != nil {
		return false, unreached
	}
	verdict := "resolve_abort"
	if committed {
		verdict = "resolve_commit"
		if rec := c.opts.Recorder; rec != nil {
			rec.Commit(gid)
		}
	}
	firstErr := unreached
	for _, m := range claimed {
		err := c.netCall(c.endpoint, m.ID(), "resolve", func() error { return m.Engine().ResolvePrepared(gid, committed) })
		if err != nil && !m.Failed() && firstErr == nil {
			firstErr = err
		}
	}
	c.metrics.reg.TraceEvent("2pc", gidString(gid), verdict, fmt.Sprintf("%d branches", len(claimed)))
	return committed, firstErr
}

// settle resolves gid now and, while a machine cannot be reached, again in
// the background until it can. It returns what resolve returned now.
func (c *Cluster) settle(gid uint64, committed bool) (bool, error) {
	verdict, err := c.resolve(gid, committed)
	if err != nil && netsim.IsTransient(err) {
		committed = committed || verdict
		c.later(gid, "resolve", func() error { _, err := c.resolve(gid, committed); return err })
	}
	return verdict, err
}

// resolveAll settles every prepared branch on the live machines whose gid
// is at most horizon: a new leader runs it with the last gid handed out
// before it won, since nothing the old leader's coordinators knew survives
// them. A coordinator still running meets the claims — its PREPAREs and
// COMMITs are refused from then on — so settling is safe whether the old
// leader died or merely lost its lease. A later gid began under the new
// leader, or stops at its own lease check and settles itself; claiming it
// would only abort a transaction nobody abandoned.
func (c *Cluster) resolveAll(horizon uint64) {
	seen := make(map[uint64]bool)
	for _, m := range c.machinesInOrder() {
		var gids []uint64
		if m.Failed() || c.netCall(c.endpoint, m.ID(), "prepared", func() error { gids = m.Engine().PreparedGIDs(); return nil }) != nil {
			continue // an unreachable branch is settled by its coordinator or its restart
		}
		for _, gid := range gids {
			if gid <= horizon && !seen[gid] {
				seen[gid] = true
				_, _ = c.settle(gid, false)
			}
		}
	}
}

// rollbackLater re-delivers an abort decision to one branch whose in-band
// ROLLBACK failed on network faults. The branch may never have prepared, so
// the resolver cannot reach it; and since the coordinator that decided abort
// delivered no COMMIT, rolling it back agrees with the in-doubt rule.
func (c *Cluster) rollbackLater(s *replicaSession, gid uint64) {
	c.later(gid, "resolve_rollback", func() error {
		if s.machine.Failed() {
			return ErrMachineFailed
		}
		return callLink(s.link, "resolve_rollback", true, s.txn.Rollback)
	})
}

// later retries fn on a tracked goroutine (see DrainResolvers), with capped
// exponential backoff, until the network no longer refuses it. A machine that
// stays unreachable without failing keeps its goroutine waiting; a failed one
// is decided at its restart.
func (c *Cluster) later(gid uint64, op string, fn func() error) {
	c.resolvers.Add(1)
	go func() {
		defer c.resolvers.Done()
		backoff := c.opts.RetryBackoff
		for {
			err := fn()
			if err == nil || !netsim.IsTransient(err) {
				result := "delivered"
				if errors.Is(err, ErrMachineFailed) {
					result = "machine_failed"
				}
				c.metrics.bgResolved.With(result).Inc()
				c.metrics.reg.TraceEvent("2pc", gidString(gid), op, result)
				return
			}
			time.Sleep(backoff)
			if backoff < resolveBackoffCap {
				backoff *= 2
			}
		}
	}()
}

// netCall delivers fn across the simulated link from→to, or runs it
// directly when the cluster has no network. The Algorithm 1 copy path uses
// it for its dump (controller→source) and apply (source→target) steps; a
// faulted step fails the copy, which abandons cleanly and is requeued by
// recovery rather than retried in place. The in-doubt resolver's calls take
// it too, and a faulted one is retried by the whole resolution.
func (c *Cluster) netCall(from, to, op string, fn func() error) error {
	if c.opts.Network == nil {
		return fn()
	}
	return c.opts.Network.Link(from, to).Call(op, false, fn)
}
