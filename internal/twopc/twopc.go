// Package twopc decides every step of the platform's two-phase commit: a
// branch's answer to each event, recovery's classification of a logged
// transaction, a coordinator's moves from its votes and COMMIT answers, and
// a resolver's verdict from its claims and log lookups. It is pure — no
// goroutines, no clock, no allocation — so the engine (sqldb) and the
// cluster controller (core) keep only transport, locks and log I/O around
// it, and a test drives the same functions over every interleaving of a
// transaction's participants, coordinator and resolvers (explore_test.go).
//
// The in-doubt rule the functions implement: a prepared branch commits iff
// some participant's log holds the transaction's commit frame. A claim hands
// a branch to the resolver before the resolver reads any log, so no commit
// frame can appear that its lookups miss.
package twopc

import (
	"cmp"
	"errors"
)

// A branch's refusals. The engine exports them under its own names
// (sqldb.ErrTxnAborted and the rest), so their text names the engine.
var (
	ErrAborted     = errors.New("sqldb: transaction has been aborted")
	ErrDone        = errors.New("sqldb: transaction has already committed")
	ErrPrepared    = errors.New("sqldb: transaction is prepared; only commit or abort allowed")
	ErrNotPrepared = errors.New("sqldb: transaction is not prepared")
	ErrClaimed     = errors.New("sqldb: prepared branch claimed by the in-doubt resolver")
)

// State is a branch's lifecycle state. A branch moves Active → (Prepared →)
// Committed, or to Aborted from Active or Prepared.
type State uint8

// Branch states.
const (
	Active State = iota
	Prepared
	Committed
	Aborted
)

// String returns the state name.
func (s State) String() string {
	if s > Aborted {
		return "unknown"
	}
	return [...]string{"active", "prepared", "committed", "aborted"}[s]
}

// Branch is one participant's branch of a transaction, as the protocol
// sees it.
type Branch struct {
	State State
	// Claimed marks a branch handed to the in-doubt resolver: it refuses
	// PREPARE and COMMIT, and once prepared ROLLBACK; only the resolver's
	// verdict decides it.
	Claimed bool
	// Doomed marks an active branch that DDL or a restore wounded, or whose
	// database was dropped: it can only abort.
	Doomed bool
}

// Event is what reaches a branch.
type Event uint8

// Branch events.
const (
	Exec           Event = iota // a statement starts
	Prepare                     // 2PC's PREPARE
	CommitPrepared              // 2PC's COMMIT
	Commit                      // a one-phase COMMIT
	Rollback                    // the session's ROLLBACK
	Abort                       // the engine's own rollback: a deadlock victim, a lock time-out, a wound
	Wound                       // DDL or a restore preempts a lock the branch holds
	Claim                       // the in-doubt resolver's claim
	ResolveCommit               // the resolver's verdict: commit
	ResolveAbort                // the resolver's verdict: abort
)

// Action is the log and lock work a step asks of the engine; it also names
// the branch's next state.
type Action uint8

// Actions.
const (
	None         Action = iota
	ForcePrepare        // → Prepared: force the prepare frame before any lock moves; abort if the log fails
	ForceCommit         // → Committed: force the commit frame, then release every lock; abort if the log fails
	Undo                // → Aborted: append the abort frame unforced, undo, release every lock
	ForceUndo           // → Aborted: Undo with the abort frame forced, so no recovery re-instates the branch
	Doom                // → Doomed: roll the branch back (Abort) once its running statement ends
)

// rule is a branch's answer to one event in one state.
type rule struct {
	act Action
	err error
}

// rules[ev][state] is a branch's answer to ev in state unless its claim or
// its wound overrides it (Step). A refusal changes nothing.
var rules = [...][4]rule{
	// Each row's answers in state order: Active, Prepared, Committed, Aborted.
	Exec:           {{None, nil}, {None, ErrPrepared}, {None, ErrDone}, {None, ErrAborted}},
	Prepare:        {{ForcePrepare, nil}, {None, nil}, {None, ErrDone}, {None, ErrAborted}},
	CommitPrepared: {{None, ErrNotPrepared}, {ForceCommit, nil}, {None, ErrDone}, {None, ErrAborted}},
	Commit:         {{ForceCommit, nil}, {ForceCommit, nil}, {None, ErrDone}, {None, ErrAborted}},
	Rollback:       {{Undo, nil}, {Undo, nil}, {None, ErrDone}, {None, nil}},
	Abort:          {{Undo, nil}, {Undo, nil}, {None, nil}, {None, nil}},
	Wound:          {{Doom, nil}, {None, nil}, {None, nil}, {None, nil}},
	Claim:          {{None, ErrNotPrepared}, {None, nil}, {None, ErrNotPrepared}, {None, ErrNotPrepared}},
	ResolveCommit:  {{None, nil}, {ForceCommit, nil}, {None, nil}, {None, nil}},
	ResolveAbort:   {{None, nil}, {ForceUndo, nil}, {None, nil}, {None, nil}},
}

// Step is a branch's answer to ev: its next state, the work the engine does
// for it, and the error its caller hears. A claimed branch refuses a
// one-phase COMMIT, a live one's 2PC COMMIT and a prepared one's ROLLBACK,
// and votes no; a doomed active branch aborts at its next statement,
// PREPARE or COMMIT. Claim marks a live branch claimed and answers nil iff
// it is prepared, so the resolver must decide it.
func Step(b Branch, ev Event) (Branch, Action, error) {
	r := rules[ev][b.State]
	live := b.State == Active || b.State == Prepared
	switch {
	case b.Claimed && (ev == Commit || ev == CommitPrepared && live || ev == Rollback && b.State == Prepared):
		return b, None, ErrClaimed
	case b.State == Active && b.Claimed && ev == Prepare:
		r = rule{Undo, ErrClaimed}
	case b.State == Active && b.Doomed && (ev == Exec || ev == Prepare || ev == Commit):
		r = rule{Undo, ErrAborted}
	case b.Doomed && ev == Wound:
		r = rule{None, nil}
	}
	b.Claimed = b.Claimed || ev == Claim && live
	switch r.act {
	case ForcePrepare:
		b.State = Prepared
	case ForceCommit:
		b.State = Committed
	case Undo, ForceUndo:
		b.State = Aborted
	case Doom:
		b.Doomed = true
	}
	return b, r.act, r.err
}

// Recovered classifies a logged transaction at restart from its log: own
// is the outcome frame logged under its engine-local ID, byGID one logged
// under its global ID by a resolution that ran after an earlier recovery
// (Active where there is none), prepared whether its prepare frame is
// durable, and global whether it has a global ID. A committed one is
// replayed, a prepared one is re-instated in doubt for the resolver, and
// every other one is presumed aborted.
func Recovered(own, byGID State, prepared, global bool) State {
	switch {
	case own != Active:
		return own
	case byGID != Active:
		return byGID
	case prepared && global:
		return Prepared
	}
	return Aborted
}

// Move is what a coordinator does once a phase's answers are in: at most one
// decision for its branches and, once it knows, what its client hears. A
// client that hears neither Acknowledge nor Unsure hears "aborted": retry.
type Move uint8

// Moves, combined with |.
const (
	SendCommit   Move = 1 << iota // COMMIT to every branch
	SendRollback                  // ROLLBACK to every branch
	Resolve                       // the in-doubt rule decides the branches the coordinator did not reach
	Acknowledge                   // the client hears "committed"
	Unsure                        // the client hears that either outcome is possible
)

// Coordinator is one coordinator's tally of a transaction's commit round.
// It folds each phase's answers (Vote, Ack), and once they are all in says
// the next move (Voted, Acked, Settled).
type Coordinator struct {
	Err    error // the phase's first refusal or failure: why the client was not acknowledged
	acked  bool  // a COMMIT was acknowledged
	unsure bool  // a COMMIT may have run with its answer lost
}

// Vote folds one answer to PREPARE: nil is yes; an error is no — a refusal,
// a failure, a vote lost or late (presumed abort).
func (c *Coordinator) Vote(err error) { c.Err = cmp.Or(c.Err, err) }

// Voted is the move once every vote is in: COMMIT everywhere if every vote
// is yes, else abort, with no log read, since no COMMIT ran.
func (c *Coordinator) Voted() Move {
	if c.Err != nil {
		return SendRollback
	}
	return SendCommit
}

// Ack folds one answer to COMMIT: nil is acknowledged; with an error, ran
// says whether the COMMIT may have run with its answer lost.
func (c *Coordinator) Ack(err error, ran bool) {
	c.acked = c.acked || err == nil
	c.unsure = c.unsure || ran
	c.Err = cmp.Or(c.Err, err)
}

// Redelivered is a branch's answer to a COMMIT that may have reached it
// before: ErrDone says an earlier delivery committed it, which acknowledges
// this one.
func Redelivered(err error) error {
	if errors.Is(err, ErrDone) {
		return nil
	}
	return err
}

// Acked is the move once every COMMIT is answered. All acknowledged:
// committed. Some acknowledged: committed, and the in-doubt rule commits the
// branches this coordinator did not reach. Some may have run: the in-doubt
// rule decides them. None ran: abort.
func (c *Coordinator) Acked() Move {
	switch {
	case c.Err == nil:
		return Acknowledge
	case c.acked:
		return Resolve | Acknowledge
	case c.unsure:
		return Resolve
	}
	return SendRollback
}

// Settled is the last move, from the in-doubt rule's verdict (commit: a
// COMMIT was acknowledged or a log holds the commit frame; unreached: it
// could not read every log it needed, or deliver its verdict everywhere):
// the client hears "committed" only on commit.
func (c *Coordinator) Settled(commit, unreached bool) Move {
	switch {
	case commit:
		return Acknowledge
	case c.unsure && unreached:
		return Unsure
	}
	return 0
}

// Verdict applies the in-doubt rule to a resolution's claims and lookups:
// known says a commit is known — a COMMIT was acknowledged, or a lookup
// found the commit frame — and unreached that some claim or lookup failed.
// Committed if a commit is known, Aborted if every claim and lookup was
// made and found none, else Prepared: still in doubt, to retry, since a
// commit frame decides even when some machine was unreachable but abort
// needs them all.
func Verdict(known, unreached bool) State {
	switch {
	case known:
		return Committed
	case unreached:
		return Prepared
	}
	return Aborted
}
