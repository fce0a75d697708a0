package sqldb

import (
	"errors"
	"fmt"

	"sdp/internal/twopc"
)

// Sentinel errors returned by the engine. Callers (in particular the cluster
// controller) use errors.Is to distinguish retryable conditions such as
// deadlock aborts from hard failures.
var (
	// ErrDeadlock is returned when the transaction was chosen as a deadlock
	// victim and rolled back. The paper's SLA model explicitly excludes
	// deadlock aborts from proactive rejections.
	ErrDeadlock = errors.New("sqldb: deadlock detected, transaction aborted")

	// ErrTxnAborted is returned by operations on a transaction that has
	// already been rolled back.
	ErrTxnAborted = twopc.ErrAborted

	// ErrTxnDone is returned by operations on a committed transaction.
	ErrTxnDone = twopc.ErrDone

	// ErrTxnPrepared is returned when a data operation is attempted on a
	// transaction that has entered the PREPARED state of 2PC.
	ErrTxnPrepared = twopc.ErrPrepared

	// ErrNotPrepared is returned by CommitPrepared on a transaction that
	// never entered the PREPARED state.
	ErrNotPrepared = twopc.ErrNotPrepared

	// ErrClaimed is returned by COMMIT and ROLLBACK on a prepared branch the
	// in-doubt resolver has claimed (Engine.ClaimPrepared): its outcome is no
	// longer the preparing session's to decide.
	ErrClaimed = twopc.ErrClaimed

	// ErrTableExists is returned by CREATE TABLE for a duplicate name.
	ErrTableExists = errors.New("sqldb: table already exists")

	// ErrNoTable is returned when a statement references an unknown table.
	ErrNoTable = errors.New("sqldb: no such table")

	// ErrNoColumn is returned when an expression references an unknown column.
	ErrNoColumn = errors.New("sqldb: no such column")

	// ErrDuplicateKey is returned by INSERT when the primary key or a unique
	// index already contains the key.
	ErrDuplicateKey = errors.New("sqldb: duplicate key")

	// ErrTypeMismatch is returned when a value cannot be stored in or
	// compared with a column of an incompatible type.
	ErrTypeMismatch = errors.New("sqldb: type mismatch")

	// ErrEngineClosed is returned by operations on a closed engine. The
	// cluster controller treats this (and any I/O with a down machine) as a
	// machine failure.
	ErrEngineClosed = errors.New("sqldb: engine is closed")

	// ErrLockTimeout is returned when a lock request waited longer than the
	// engine's configured lock wait timeout.
	ErrLockTimeout = errors.New("sqldb: lock wait timeout exceeded")

	// ErrOptimisticConflict is reserved: no engine code returns it since the
	// lock-free read path was deleted. The name stays only because the
	// benchmark's error classifier (bench/) still refers to it.
	ErrOptimisticConflict = errors.New("sqldb: optimistic read validation failed, transaction aborted")
)

// ParseError describes a syntax error with its byte offset in the statement.
type ParseError struct {
	Pos int
	Msg string
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	return fmt.Sprintf("sqldb: parse error at offset %d: %s", e.Pos, e.Msg)
}
