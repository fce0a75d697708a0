package wire

import (
	"errors"

	"sdp/internal/core"
	"sdp/internal/sqldb"
)

// codeFor classifies a server-side error into the wire error code the
// client will see. The mapping is the inverse of sentinelFor: every
// retryable in-process condition lands on a code >= ErrCodeRejected so the
// client's retry loop and the in-process sdp.IsRetryable agree.
func codeFor(err error) uint16 {
	var pe *sqldb.ParseError
	switch {
	case errors.As(err, &pe):
		return ErrCodeParse
	case core.IsRejection(err):
		return ErrCodeRejected
	case errors.Is(err, sqldb.ErrDeadlock):
		return ErrCodeDeadlock
	case errors.Is(err, sqldb.ErrLockTimeout):
		return ErrCodeLockTimeout
	case errors.Is(err, core.ErrStaleRoute):
		return ErrCodeStaleRoute
	case errors.Is(err, core.ErrMachineFailed):
		return ErrCodeMachineFailed
	case errors.Is(err, core.ErrNotLeader), errors.Is(err, core.ErrNoQuorum):
		return ErrCodeNotLeader
	case core.IsRetryable(err):
		// Remaining transient conditions: 2PC prepare timeout, replicas
		// unreachable behind a partition, simulated network faults, a
		// branch abort surfacing through a vote.
		return ErrCodeUnavailable
	case errors.Is(err, core.ErrNoDatabase):
		return ErrCodeDatabase
	default:
		return ErrCodeExec
	}
}

// sentinelFor maps a wire error code back to the canonical in-process
// sentinel, so errors.Is works identically on both sides of the socket.
func sentinelFor(code uint16) error {
	switch code {
	case ErrCodeRejected:
		return core.ErrRejected
	case ErrCodeDeadlock:
		return sqldb.ErrDeadlock
	case ErrCodeLockTimeout:
		return sqldb.ErrLockTimeout
	case ErrCodeOptimisticConflict:
		return sqldb.ErrOptimisticConflict
	case ErrCodeStaleRoute:
		return core.ErrStaleRoute
	case ErrCodeMachineFailed:
		return core.ErrMachineFailed
	case ErrCodeNotLeader:
		return core.ErrNotLeader
	case ErrCodeUnavailable:
		return core.ErrUnreachable
	case ErrCodeShutdown:
		return ErrServerShutdown
	case ErrCodeProtocol:
		return errProtocol
	case ErrCodeDatabase:
		return core.ErrNoDatabase
	default:
		return nil
	}
}
