package core

import (
	"sync"

	"sdp/internal/netsim"
)

// The cluster controller runs as a process pair in the paper: the backup
// tracks the primary's state with respect to committing transactions and,
// on takeover, cleans up the transactions in transit. This file implements
// that commit-in-transit mirror. The mirror is updated synchronously at
// each 2PC phase change (modelling the backup's state tracking), and
// TakeOver drives every in-transit transaction to a safe conclusion:
// transactions that had reached the commit decision are committed on all
// participants, everything else is rolled back.

// CommitStage identifies where in the commit protocol a transaction is.
type CommitStage int

// Commit stages mirrored to the backup controller.
const (
	// StagePreparing: prepares have been issued, no decision yet.
	StagePreparing CommitStage = iota
	// StageCommitting: all participants voted yes; the commit decision is
	// logged and must survive a controller failure.
	StageCommitting
)

// inTransit is the mirrored record of one committing transaction.
type inTransit struct {
	gid      uint64
	stage    CommitStage
	sessions []*replicaSession

	// done is closed when the committing client's goroutine stops driving
	// the sessions — either because the commit ran to completion or because
	// the primary "died" at a crash point and the driver parked. TakeOver
	// waits on it before resolving a record so it never fights a live
	// driver for the sessions.
	done chan struct{}
	// parked is true when the driver halted at a crash point and the
	// record still needs takeover processing; false when the driver
	// finished the transaction itself. Written before done is closed.
	parked bool
}

// pairMirror is the backup controller's view of commits in transit.
type pairMirror struct {
	mu      sync.Mutex
	records map[uint64]*inTransit

	// crashHook, when set, is consulted at each stage transition; returning
	// true makes the primary "die" at that point (the commit path stops,
	// leaving cleanup to TakeOver). Used by failure-injection tests.
	crashHook func(stage CommitStage, gid uint64) bool
}

func (p *pairMirror) init() {
	p.mu.Lock()
	if p.records == nil {
		p.records = make(map[uint64]*inTransit)
	}
	p.mu.Unlock()
}

func (p *pairMirror) begin(t *Txn) *inTransit {
	p.init()
	rec := &inTransit{gid: t.gid, stage: StagePreparing, sessions: t.sessions, done: make(chan struct{})}
	p.mu.Lock()
	p.records[t.gid] = rec
	p.mu.Unlock()
	return rec
}

func (p *pairMirror) advance(rec *inTransit, stage CommitStage) {
	p.mu.Lock()
	rec.stage = stage
	p.mu.Unlock()
}

// finish removes a record whose transaction the driver resolved itself
// (committed or aborted); takeover processing, if any, will skip it.
func (p *pairMirror) finish(rec *inTransit) {
	p.mu.Lock()
	delete(p.records, rec.gid)
	p.mu.Unlock()
	close(rec.done)
}

// park marks a record whose driver halted at a crash point: the sessions are
// no longer being driven and TakeOver owns the record's resolution.
func (p *pairMirror) park(rec *inTransit) {
	p.mu.Lock()
	rec.parked = true
	p.mu.Unlock()
	close(rec.done)
}

// dead reports whether a primary failure is installed — the commit path is
// (or will be) halted and a takeover has in-transit work to resolve.
func (p *pairMirror) dead() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.crashHook != nil
}

// crashed reports whether the injected primary failure triggers here.
func (p *pairMirror) crashed(stage CommitStage, gid uint64) bool {
	p.mu.Lock()
	hook := p.crashHook
	p.mu.Unlock()
	return hook != nil && hook(stage, gid)
}

// SetCrashHook installs a primary-failure injection point for tests and
// experiments: when the hook returns true the commit path halts at that
// stage, as if the primary controller process died.
func (c *Cluster) SetCrashHook(hook func(stage CommitStage, gid uint64) bool) {
	c.pair.mu.Lock()
	c.pair.crashHook = hook
	c.pair.mu.Unlock()
}

// InTransit returns the number of commits currently in transit (visible to
// the backup controller).
func (c *Cluster) InTransit() int {
	c.pair.init()
	c.pair.mu.Lock()
	defer c.pair.mu.Unlock()
	return len(c.pair.records)
}

// TakeOver performs the backup controller's takeover processing: every
// transaction recorded as having reached the commit decision is committed on
// all its participants, and every transaction still in the prepare phase is
// rolled back. It returns how many transactions were committed and rolled
// back. Client connections are assumed re-established by the application
// layer, as in the paper.
func (c *Cluster) TakeOver() (committed, rolledBack int) {
	c.pair.init()
	c.pair.mu.Lock()
	recs := make([]*inTransit, 0, len(c.pair.records))
	for _, r := range c.pair.records {
		recs = append(recs, r)
	}
	c.pair.records = make(map[uint64]*inTransit)
	c.pair.crashHook = nil
	c.pair.mu.Unlock()

	for _, rec := range recs {
		// Wait for the committing client's goroutine to hand the record
		// over: it either parks at a crash point (takeover resolves the
		// transaction) or finishes the commit itself (nothing to do). The
		// wait is what keeps takeover from rolling back — and closing the
		// sessions of — a transaction whose driver is still live.
		<-rec.done
		if !rec.parked {
			continue
		}
		// A delivery that fails on transient network faults is handed to a
		// background resolver, exactly as on the normal commit path: the
		// decision must still reach the participant or its branch would
		// hold locks indefinitely.
		if rec.stage == StageCommitting {
			for _, s := range rec.sessions {
				if r := s.do((*replicaSession).commitPrepared); r.err != nil && netsim.IsTransient(r.err) {
					c.resolveOutcome(s, rec.gid, true)
				}
			}
			c.metrics.committed.Inc()
			c.metrics.reg.TraceEvent("2pc", gidString(rec.gid), "takeover_commit", "")
			if recd := c.opts.Recorder; recd != nil {
				recd.Commit(rec.gid)
			}
			committed++
		} else {
			for _, s := range rec.sessions {
				if r := s.do((*replicaSession).rollback); r.err != nil && netsim.IsTransient(r.err) {
					c.resolveOutcome(s, rec.gid, false)
				}
			}
			c.metrics.aborted.Inc()
			c.metrics.reg.TraceEvent("2pc", gidString(rec.gid), "takeover_rollback", "")
			rolledBack++
		}
		for _, s := range rec.sessions {
			s.close()
		}
	}
	return committed, rolledBack
}
