// Package replcopy decides every step of online replica creation, the
// paper's Algorithm 1: where a write goes while a copy runs, how each table
// moves through the copy, what aborts a copy, when a copy may register its
// target, and what a restarted machine's failure-time marks are worth. It is
// pure — no goroutines, no clock, no allocation — so the cluster controller
// (core) keeps only transport, locks and the dump around it, and a test
// drives the same functions over every interleaving of a copy, its writers
// and its faults (explore_test.go).
package replcopy

import "slices"

// Phase is a copy's phase as one controller view holds it.
type Phase uint8

// Copy phases. The zero Copy names no copy.
const (
	Idle    Phase = iota // no copy runs
	Running              // the copy runs
	Aborted              // an end failed or its controller died: the copy abandons at its next step
)

// Table is one table's phase in a copy: Pending → InFlight → Copied. A
// database-granularity copy moves every table it copies at once.
type Table uint8

// Table phases.
const (
	Pending  Table = iota // not copied yet
	InFlight              // being imaged: the dump waits at the head for the writes that hold the table's lock there
	Copied                // imaged: the dump's read lock holds its writes at the head until the target has the image
)

// Copy is one copy of a database: its phase and its two ends.
type Copy struct {
	Phase          Phase
	Source, Target string
}

// Route is where a write goes.
type Route uint8

// Routes.
const (
	Replicas   Route = iota // the replica set alone
	WithTarget              // the replica set and the copy's target
	Reject                  // nowhere: the transaction aborts, and may retry
)

// routes[t] is Algorithm 1's route for a write on a table in phase t while
// a copy runs: line 13, line 11, line 9.
var routes = [...]Route{Pending: Replicas, InFlight: Reject, Copied: WithTarget}

// WriteRoute is where a write on a table in phase t goes while the
// database's copy is in phase p. A copy that is not running rejects nothing
// and feeds nothing to a target that is failed or about to be dropped.
func WriteRoute(p Phase, t Table) Route {
	if p != Running {
		return Replicas
	}
	return routes[t]
}

// Next is a table's phase after one step of a copy in phase p: a pending
// table goes in flight, and an in-flight one is copied as soon as its image
// is taken. The dump still holds the table's read lock at the source, the
// head, and lets go of it only once the image is applied on the target. A
// write takes its locks at the head first, so one that reaches the table
// from then on waits there, and Rest sends it to the target after the
// image. ok is false if the copy no longer runs: it moves no table and
// abandons.
func Next(p Phase, t Table) (next Table, ok bool) {
	switch {
	case p != Running:
		return t, false
	case t == Copied:
		return t, true
	}
	return t + 1, true
}

// Stale says whether a write whose head share ran on head must abort, as a
// retryable stale route, before it goes anywhere else: head is no longer
// the replica set's head. Only the head is a copy's source, so only a lock
// held there orders the write against a copy's image.
func Stale[M comparable](head M, replicas []M) bool {
	return len(replicas) == 0 || replicas[0] != head
}

// Rest appends to dst where a write on a table in phase t goes once its head
// share, route[0], holds the table's lock at the head, while the database's
// copy to target is in phase p. route is the replica set when the write was
// routed, head first; replicas is the set now. A machine in either gets the
// write: one that has left since fails it or is dropped, one that joined
// since holds the table. The target gets it if the table is copied: the
// image was taken before the head share, which waited for the dump's lock
// until the image was applied. A table not yet copied cannot be imaged
// while the share holds the lock, so its image will hold the write.
func Rest[M comparable](dst, route, replicas []M, p Phase, t Table, target M) []M {
	add := func(m M) {
		if m != route[0] && !slices.Contains(dst, m) {
			dst = append(dst, m)
		}
	}
	for _, m := range route[1:] {
		add(m)
	}
	for _, m := range replicas {
		add(m)
	}
	if WriteRoute(p, t) == WithTarget {
		add(target)
	}
	return dst
}

// Fails says whether machine's failure aborts copy c: it does if c runs
// and machine is either of its ends.
func Fails(c Copy, machine string) bool {
	return c.Phase == Running && (machine == c.Source || machine == c.Target)
}

// Driven says whether copy c has a live driver. The death of the controller
// driving a copy aborts the copy if it is driven, and a new leader retires
// the replicated record of any copy that is not: nobody would finish it.
// The driver asks it before it creates the target's database, so a copy
// aborted since copy_begin makes nothing there for its abandon to drop.
func Driven(c Copy) bool { return c.Phase == Running }

// Register is the registration guard: copy c may admit target to the
// replica set iff it still runs, it copies to target, and target is live.
// The copy's driver asks it of its own copy state before it proposes
// copy_complete; the control state machine asks it of the replicated copy
// record when it applies copy_complete.
func Register(c Copy, target string, live bool) bool {
	return c.Phase == Running && c.Target == target && live
}

// Start is a table's phase when a copy starts, from the target's
// failure-time marks (nil: none usable) and the table's routed-write
// counter now: a table whose counter has not moved since the target failed
// was recovered by the target's own log replay and starts copied.
func Start(marks map[string]uint64, table string, seq uint64) Table {
	if mark, ok := marks[table]; ok && mark == seq {
		return Copied
	}
	return Pending
}

// Usable says whether a machine's failure-time marks, taken at markEpoch,
// describe the database now at epoch (a dropped and re-created namespace's
// do not). A live machine holding a copy of a database it is not a replica
// of is caught up by a copy if its marks are usable, and its copy is
// dropped if not: it is what an abandoned copy left behind.
func Usable(marked bool, markEpoch, epoch uint64) bool { return marked && markEpoch == epoch }
