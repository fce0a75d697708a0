package core

import (
	"errors"
	"fmt"
)

// Sentinel errors surfaced by the cluster controller.
var (
	// ErrRejected marks a proactive rejection: a write hit a table that is
	// currently being copied to a new replica (Algorithm 1, line 11), or a
	// database being copied at database granularity. These rejections are
	// the availability metric of the paper's SLA model.
	ErrRejected = errors.New("core: operation rejected during replica creation")

	// ErrMachineFailed is returned when an operation was routed to a
	// machine that has failed; the transaction is aborted and the client
	// should retry.
	ErrMachineFailed = errors.New("core: machine failed")

	// ErrNoDatabase is returned for operations on an unknown database.
	ErrNoDatabase = errors.New("core: no such database")

	// ErrDatabaseExists is returned when creating a database that exists.
	ErrDatabaseExists = errors.New("core: database already exists")

	// ErrNoMachine is returned when a named machine does not exist.
	ErrNoMachine = errors.New("core: no such machine")

	// ErrNoReplicas is returned when no live replica can serve a request.
	ErrNoReplicas = errors.New("core: no live replicas available")

	// ErrTxnDone is returned for operations on a finished transaction.
	ErrTxnDone = errors.New("core: transaction already finished")

	// ErrCopyInProgress is returned when a second replica creation is
	// requested for a database that is already being copied, and to a
	// CREATE TABLE on a database while a copy of it runs (the copy would
	// miss the table). Retryable: the copy ends.
	ErrCopyInProgress = errors.New("core: replica creation already in progress")

	// ErrCopyAborted is returned by CreateReplica when the copy was
	// abandoned because a participating machine (source or target) failed
	// mid-copy; the caller may requeue the copy onto a live target.
	ErrCopyAborted = errors.New("core: replica copy aborted by machine failure")

	// ErrPrepareTimeout is returned when a 2PC PREPARE vote did not arrive
	// within the coordinator's call deadline. The coordinator presumes
	// abort: the transaction rolls back on every participant.
	ErrPrepareTimeout = errors.New("core: 2PC prepare vote timed out; presumed abort")

	// ErrUnreachable is returned when every replica of a database is behind
	// a partitioned controller link; the client should retry after the
	// partition heals.
	ErrUnreachable = errors.New("core: all replicas unreachable from the controller")

	// ErrStaleRoute is returned when the controller routed an operation to a
	// machine whose engine no longer holds the database — the route was
	// computed concurrently with an aborted replica copy discarding its
	// half-copied destination. The transaction aborts; a retry re-routes.
	ErrStaleRoute = errors.New("core: replica route went stale")

	// ErrNotLeader is returned by a replicated control plane when the
	// addressed controller replica is not the leaseholding leader (or, on
	// the shared data path, when no replica currently holds the quorum
	// lease — the failover window between a leader's death and its
	// successor's first majority-acknowledged heartbeat). Retryable: the
	// client redirects to the leader hint or simply retries into the new
	// term.
	ErrNotLeader = errors.New("core: controller replica is not the leader")

	// ErrNoQuorum is returned when a control-plane mutation cannot commit
	// because no controller leader emerged within the proposal deadline — a
	// majority of controller replicas are dead or partitioned. The data
	// path keeps serving under existing routes; only control mutations are
	// unavailable. Retryable once quorum is restored.
	ErrNoQuorum = errors.New("core: controller quorum lost")
)

// ErrOutcomeUnknown is returned by a COMMIT that no participant
// acknowledged while one of them may have executed it, when no log could yet
// be read to say whether it did. The in-doubt rule settles the transaction
// in the background; the client must not retry it blindly, since it may
// have committed.
var ErrOutcomeUnknown = errors.New("core: commit outcome unknown")

// errDeposed is a COMMIT a coordinator did not deliver because the lease it
// began under had ended: the in-doubt rule settles the branch instead.
var errDeposed = fmt.Errorf("%w: the transaction's coordinator was deposed before COMMIT", ErrNotLeader)
