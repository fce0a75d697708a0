package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"sdp/internal/netsim"
	"sdp/internal/twopc"
)

// The in-doubt rule. A prepared 2PC branch that has not received its COMMIT
// or ROLLBACK is decided by one rule, computed from the participants alone:
// it commits iff some participant committed the transaction — that
// participant's log holds a commit frame for the gid — and aborts otherwise.
// resolveSet applies it, and twopc decides each of its steps. A new leader
// (resolveAll), a restarted machine (RestartMachine) and a coordinator that
// could not finish its commit phase (resolve) all call it, and no
// controller memory enters the verdict, so a dead controller takes nothing
// with it that the verdict needs.

// resolveBackoffCap bounds the wait between two background attempts.
const resolveBackoffCap = 100 * time.Millisecond

// resolve settles gid (settle) and returns the verdict. committed says the
// caller knows some participant committed: it holds a COMMIT
// acknowledgment.
func (c *Cluster) resolve(gid uint64, committed bool) (bool, error) {
	known := []bool{committed}
	err := c.settle([]uint64{gid}, known)
	return known[0], err
}

// settle resolves gids now (resolveSet) and, while a machine cannot be
// reached, again in the background until it can.
func (c *Cluster) settle(gids []uint64, known []bool) error {
	err := c.resolveSet(gids, known)
	if err != nil && netsim.IsTransient(err) {
		known := slices.Clone(known)
		c.later(gids[0], "resolve", func() error { return c.resolveSet(gids, known) })
	}
	return err
}

// resolveSet decides every undecided prepared branch of gids, in ascending
// order, by the in-doubt rule. known[i] says gids[i] is known committed, and
// on return whether it committed. It first claims the gids' branches on
// every live machine — a prepared branch then refuses its session's COMMIT
// and ROLLBACK, one not yet prepared refuses its PREPARE; a failed machine's
// branch died with it, and its restart settles what its log left in doubt —
// and only then reads each machine's log, a failed one's too since its log
// survives it, once for all the gids: after the claims no commit frame can
// appear that the lookups miss. twopc.Verdict decides each gid. An error
// means a machine could not be reached, or could not log a verdict; the
// claims made stand, and a retry reaches the same verdicts.
func (c *Cluster) resolveSet(gids []uint64, known []bool) error {
	ms := c.machinesInOrder()
	claimed := make([][]*Machine, len(gids)) // the machines whose claim found each gid prepared
	var unreached error
	for _, m := range ms {
		if m.Failed() {
			continue
		}
		var prepared []int
		err := c.netCall(c.endpoint, m.ID(), "claim", func() error {
			for i, gid := range gids {
				if m.Engine().ClaimPrepared(gid) {
					prepared = append(prepared, i)
				}
			}
			return nil
		})
		if err != nil {
			unreached = err
			continue // a claim whose answer was lost binds the branch all the same
		}
		for _, i := range prepared {
			claimed[i] = append(claimed[i], m)
		}
	}
	for _, m := range ms {
		if !slices.Contains(known, false) {
			break
		}
		var found []bool
		err := c.netCall(c.endpoint, m.ID(), "lookup", func() (err error) { found, err = m.Engine().CommitsLogged(gids); return err })
		for i := range found {
			known[i] = known[i] || err == nil && found[i]
		}
		unreached = cmp.Or(err, unreached)
	}
	firstErr := unreached
	for i, gid := range gids {
		v := twopc.Verdict(known[i], unreached != nil)
		if v == twopc.Prepared {
			continue // still in doubt
		}
		verdict := "resolve_abort"
		if v == twopc.Committed {
			verdict = "resolve_commit"
			if rec := c.opts.Recorder; rec != nil {
				rec.Commit(gid)
			}
		}
		for _, m := range claimed[i] {
			err := c.netCall(c.endpoint, m.ID(), "resolve", func() error { return m.Engine().ResolvePrepared(gid, known[i]) })
			if err != nil && !m.Failed() {
				firstErr = cmp.Or(firstErr, err)
			}
		}
		c.metrics.reg.TraceEvent("2pc", gidString(gid), verdict, fmt.Sprintf("%d branches", len(claimed[i])))
	}
	return firstErr
}

// resolveAll settles every prepared branch on the live machines whose gid
// is at most horizon, in one resolution: a new leader runs it with the last
// gid handed out before it won, since nothing the old leader's coordinators
// knew survives them. A coordinator still running meets the claims — its
// PREPAREs and COMMITs are refused from then on — so settling is safe
// whether the old leader died or merely lost its lease. A later gid began
// under the new leader, or stops at its own lease check and settles itself;
// claiming it would only abort a transaction nobody abandoned.
func (c *Cluster) resolveAll(horizon uint64) {
	var all []uint64
	for _, m := range c.machinesInOrder() {
		var gids []uint64
		if m.Failed() || c.netCall(c.endpoint, m.ID(), "prepared", func() error { gids = m.Engine().PreparedGIDs(); return nil }) != nil {
			continue // an unreachable branch is settled by its coordinator or its restart
		}
		for _, gid := range gids {
			if gid <= horizon {
				all = append(all, gid)
			}
		}
	}
	slices.Sort(all)
	if all = slices.Compact(all); len(all) > 0 {
		_ = c.settle(all, make([]bool, len(all)))
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
