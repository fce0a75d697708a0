// Package core implements the paper's cluster controller: the component
// that manages a set of single-node DBMS machines, replicates each client
// database across two or more of them with read-one-write-all + two-phase
// commit, routes reads according to the paper's Options 1/2/3, acknowledges
// writes conservatively or aggressively, keeps replicas consistent during
// online replica creation (Algorithm 1), and re-replicates databases when a
// machine fails.
package core

import (
	"time"

	"sdp/internal/history"
	"sdp/internal/netsim"
	"sdp/internal/obs"
	"sdp/internal/sla"
	"sdp/internal/sqldb"
	"sdp/internal/wal"
)

// ReadOption selects how the controller routes read operations among the
// replicas of a database (Section 3.1 of the paper).
type ReadOption int

// Read-routing options.
const (
	// ReadOption1 routes all reads of a database, regardless of
	// transaction, to the same replica. Best cache locality; serializable
	// under both acknowledgement modes.
	ReadOption1 ReadOption = 1
	// ReadOption2 routes all reads of one transaction to the same replica,
	// chosen per transaction. Serializable only with a conservative
	// controller.
	ReadOption2 ReadOption = 2
	// ReadOption3 routes each read operation independently. Most
	// load-balancing freedom; serializable only with a conservative
	// controller.
	ReadOption3 ReadOption = 3
)

// String names the option as in the paper.
func (o ReadOption) String() string {
	switch o {
	case ReadOption1:
		return "option1"
	case ReadOption2:
		return "option2"
	case ReadOption3:
		return "option3"
	default:
		return "option?"
	}
}

// AckMode selects when the controller acknowledges a write to the client.
type AckMode int

// Write-acknowledgement modes.
const (
	// Conservative waits for the write to complete on every replica before
	// returning to the client. Serializable under all read options.
	Conservative AckMode = iota
	// Aggressive returns as soon as one replica completes the write,
	// tracking the remaining replicas asynchronously and aborting the
	// transaction later if any of them failed. Not serializable under
	// Options 2 and 3 (Table 1).
	Aggressive
)

// String names the mode.
func (m AckMode) String() string {
	if m == Aggressive {
		return "aggressive"
	}
	return "conservative"
}

// Options configures a cluster controller.
type Options struct {
	// ReadOption is the read-routing policy (default ReadOption1).
	ReadOption ReadOption
	// AckMode is the write-acknowledgement policy (default Conservative).
	AckMode AckMode
	// Replicas is the number of machines each database is hosted on
	// (default 2, as in the paper's evaluation).
	Replicas int
	// CopyGranularity selects table- or database-level locking during
	// replica creation (default table-level).
	CopyGranularity sqldb.DumpGranularity
	// EngineConfig configures every machine's DBMS instance.
	EngineConfig sqldb.Config
	// Recorder, when non-nil, captures all data operations for offline
	// serializability checking.
	Recorder *history.Recorder
	// Metrics, when non-nil, is the observability registry the controller
	// reports into; the colo controller injects a shared registry so every
	// cluster, the colo, and the system controller feed one snapshot. Nil
	// gives the cluster a private registry (see Cluster.Metrics).
	Metrics *obs.Registry
	// SLAMonitor, when non-nil, receives one observation per finished
	// transaction (commit with latency, abort, or proactive rejection) and
	// a replica-location source, so declared SLAs are checked against what
	// this cluster actually delivers (see sla.Monitor).
	SLAMonitor *sla.Monitor
	// Stmts, when non-nil, is the text→AST statement cache the controller
	// parses through; the platform hands one cache to every cluster, its
	// wire server and its connections, so a statement that repeats is parsed
	// once for all of them. Nil gives the cluster a private cache.
	Stmts *sqldb.StmtCache
	// WAL configures every machine's write-ahead log, kept on a simulated
	// durable disk that survives the machine's failures: commits are forced
	// (with group commit) before acknowledgement, the in-doubt rule reads
	// the participants' logs, and a failed machine restarts by log replay
	// instead of a full Algorithm-1 copy. The zero value is an in-memory
	// device with no added flush latency.
	WAL wal.Config
	// Network, when non-nil, interposes a simulated network on every
	// controller→machine call (statement execution, 2PC phases, Algorithm 1
	// dump/apply): faults injected on its links surface as call errors, and
	// the controller becomes failure-aware — per-call deadlines, bounded
	// retries of idempotent phases, presumed abort on prepare timeouts, and
	// read routing around partitioned replicas. Nil keeps calls as direct
	// in-process invocations with zero overhead.
	Network *netsim.Network
	// CallTimeout bounds how long the coordinator waits for one machine's
	// 2PC PREPARE vote before presuming abort. Zero defaults to 2 seconds
	// when a Network is set and disables the deadline otherwise (an
	// in-process call cannot stall indefinitely; lock waits are bounded by
	// the engine's own lock timeout).
	CallTimeout time.Duration
	// RetryLimit is the maximum number of retries of one faulted machine
	// call (idempotent phases retry on any transient fault; non-idempotent
	// calls only when the request provably never executed). Default 4.
	RetryLimit int
	// RetryBackoff is the initial retry backoff, doubling per attempt.
	// Default 1ms.
	RetryBackoff time.Duration
	// Controllers is the number of cluster controller replicas. Every
	// control mutation — machine membership, database placement, Algorithm 1
	// copy lifecycle — is decided by the controller's state machine before
	// it takes effect. Zero or one (the default) runs one controller that
	// applies each decision in place, with no failover. From two on the
	// decisions commit to a consensus log across this many replicas (see
	// internal/consensus), the leader serves the data path under a quorum
	// lease, and killing the leader fails over to a surviving replica; the
	// in-doubt rule that settles a failover reads the machines' logs.
	Controllers int
	// ControllerSeed seeds the controller replicas' election-timeout
	// randomization, for reproducible failover schedules.
	ControllerSeed int64
	// ControllerElectionTimeout is the consensus base election timeout
	// (default 60ms; see consensus.Config.ElectionTimeout).
	ControllerElectionTimeout time.Duration
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.ReadOption == 0 {
		o.ReadOption = ReadOption1
	}
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	zero := sqldb.Config{}
	if o.EngineConfig == zero {
		o.EngineConfig = sqldb.DefaultConfig()
	}
	if o.Network != nil && o.CallTimeout == 0 {
		o.CallTimeout = 2 * time.Second
	}
	if o.RetryLimit <= 0 {
		o.RetryLimit = 4
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = time.Millisecond
	}
	return o
}
