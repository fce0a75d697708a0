package core

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"

	"sdp/internal/replcopy"
)

// This file defines the controller's deterministic state machine, the one
// editor of the control decisions: a cluster with one controller applies
// each command to it in place, a replicated one applies the consensus log to
// one instance per controller replica. It holds exactly the decisions that
// must survive a controller crash: machine membership and liveness, each
// database's replica list (its first machine, the head, orders the
// database's conflicts) and namespace epoch, and the begin/abort/complete
// lifecycle of Algorithm 1 replica copies. Everything else the controller
// tracks — per-table write sequence counters, the
// statement cache, SLA reservations — is leader-local soft state that a new
// leader rebuilds or conservatively discards at failover (see
// controlplane.go).

// Control-plane command opcodes.
const (
	ctlOpAddMachine     = "add_machine"
	ctlOpFailMachine    = "fail_machine"
	ctlOpRestartMachine = "restart_machine"
	ctlOpCreateDB       = "create_db"
	ctlOpDropDB         = "drop_db"
	ctlOpCopyBegin      = "copy_begin"
	ctlOpCopyAbort      = "copy_abort"
	ctlOpCopyComplete   = "copy_complete"
	ctlOpRetireReplica  = "retire_replica"
)

// ctlCmd is one control-plane command, JSON-encoded into the consensus log
// of a replicated controller. Every command is idempotent: a proposal whose
// outcome was lost to a timeout can be re-proposed safely.
type ctlCmd struct {
	Op       string   `json:"op"`
	DB       string   `json:"db,omitempty"`
	Machine  string   `json:"machine,omitempty"`
	Replicas []string `json:"replicas,omitempty"`
	Source   string   `json:"source,omitempty"`
	Target   string   `json:"target,omitempty"`
}

// ctlDB is the replicated record of one database.
type ctlDB struct {
	// Replicas are the machines hosting the database: the head first, then
	// the rest in join order. Every write takes its locks at the head before
	// any other replica sees it, and Option 1 reads there.
	Replicas []string `json:"replicas"`
	// Epoch is the namespace incarnation (see dbState.epoch).
	Epoch uint64 `json:"epoch"`
	// Copy records an Algorithm 1 copy in flight; the zero Copy, none.
	Copy replcopy.Copy `json:"copy"`
}

// dropReplica takes machine out of the replica set; dropping the head makes
// the next replica the head.
func (db *ctlDB) dropReplica(machine string) {
	if i := slices.Index(db.Replicas, machine); i >= 0 {
		db.Replicas = slices.Delete(db.Replicas, i, i+1)
	}
}

// ctlState is the controller state machine. It implements
// consensus.StateMachine; every controller replica holds one instance and
// applies the identical committed command sequence, so any replica can be
// promoted and reconstruct the cluster's control decisions.
type ctlState struct {
	mu sync.Mutex
	s  ctlStateData
}

// ctlStateData is the serializable body of ctlState (also its snapshot
// format).
type ctlStateData struct {
	// Machines lists registered machine IDs in registration order.
	Machines []string `json:"machines"`
	// Failed marks machines currently failed.
	Failed map[string]bool `json:"failed"`
	// DBs maps database name to its replicated record.
	DBs map[string]*ctlDB `json:"dbs"`
	// EpochSeq is the deterministic epoch counter.
	EpochSeq uint64 `json:"epoch_seq"`
	// HomeSeq rotates heads across create_db commands.
	HomeSeq uint64 `json:"home_seq"`
}

// newCtlState returns an empty control-plane state machine.
func newCtlState() *ctlState {
	return &ctlState{s: ctlStateData{
		Failed: make(map[string]bool),
		DBs:    make(map[string]*ctlDB),
	}}
}

// Apply decodes one committed command from the consensus log and applies it.
func (st *ctlState) Apply(index uint64, data []byte) any {
	var cmd ctlCmd
	if err := json.Unmarshal(data, &cmd); err != nil {
		return err
	}
	return st.apply(cmd)
}

// apply applies one command and returns the state machine's refusal, if it
// refuses it. All mutations are deterministic functions of the command and
// current state (map iteration is sorted), and every command is idempotent.
func (st *ctlState) apply(cmd ctlCmd) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	db := st.s.DBs[cmd.DB]
	switch cmd.Op {
	case ctlOpAddMachine:
		if !slices.Contains(st.s.Machines, cmd.Machine) {
			st.s.Machines = append(st.s.Machines, cmd.Machine)
		}
		delete(st.s.Failed, cmd.Machine)
	case ctlOpFailMachine:
		st.s.Failed[cmd.Machine] = true
		for _, name := range sortedKeys(st.s.DBs) {
			rec := st.s.DBs[name]
			rec.dropReplica(cmd.Machine)
			if replcopy.Fails(rec.Copy, cmd.Machine) {
				rec.Copy = replcopy.Copy{}
			}
		}
	case ctlOpRestartMachine:
		delete(st.s.Failed, cmd.Machine)
	case ctlOpCreateDB:
		if db != nil {
			// A retried proposal re-applies; another create of the name
			// loses. The record holds the machines rotated, so a retry is
			// known by its machine set.
			other := func(id string) bool { return !slices.Contains(cmd.Replicas, id) }
			if len(db.Replicas) != len(cmd.Replicas) || slices.ContainsFunc(db.Replicas, other) {
				return fmt.Errorf("%w: %s", ErrDatabaseExists, cmd.DB)
			}
			return nil
		}
		st.s.EpochSeq++
		// Rotate the list so heads, and with them Option 1's reads and the
		// first lock of every write, spread over the machines.
		var reps []string
		if n := uint64(len(cmd.Replicas)); n > 0 {
			k := st.s.HomeSeq % n
			reps = append(slices.Clone(cmd.Replicas[k:]), cmd.Replicas[:k]...)
			st.s.HomeSeq++
		}
		st.s.DBs[cmd.DB] = &ctlDB{Replicas: reps, Epoch: st.s.EpochSeq}
	case ctlOpDropDB:
		delete(st.s.DBs, cmd.DB)
	case ctlOpCopyBegin:
		if db != nil {
			db.Copy = replcopy.Copy{Phase: replcopy.Running, Source: cmd.Source, Target: cmd.Target}
		}
	case ctlOpCopyAbort:
		if db != nil {
			db.Copy = replcopy.Copy{}
		}
	case ctlOpCopyComplete:
		// The target counts as live: fail_machine retires the record of a
		// copy whose end fails.
		switch {
		case db != nil && replcopy.Register(db.Copy, cmd.Target, true):
			if !slices.Contains(db.Replicas, cmd.Target) {
				db.Replicas = append(db.Replicas, cmd.Target)
			}
			db.Copy = replcopy.Copy{}
		case db == nil || !slices.Contains(db.Replicas, cmd.Target):
			// A machine failure or a takeover retired the copy record.
			return fmt.Errorf("%w: %s -> %s", ErrCopyAborted, cmd.DB, cmd.Target)
		}
	case ctlOpRetireReplica:
		// Replica retirement (adaptive shrink, migration tail) must be
		// replicated: the retired machine's engine copy is dropped, so a
		// failover that resurrected the machine into the replica set from
		// an older record would route reads to a machine without the data.
		// Idempotent, and never drops the last replica — a retire racing a
		// machine failure must not empty the set.
		if db == nil || !slices.Contains(db.Replicas, cmd.Machine) {
			return nil
		}
		if len(db.Replicas) == 1 {
			return fmt.Errorf("%w: cannot retire the last replica of %s", ErrNoReplicas, cmd.DB)
		}
		db.dropReplica(cmd.Machine)
	}
	return nil
}

// Snapshot encodes the full state for log compaction.
func (st *ctlState) Snapshot() []byte {
	st.mu.Lock()
	defer st.mu.Unlock()
	data, _ := json.Marshal(&st.s)
	return data
}

// Restore replaces the state from a snapshot.
func (st *ctlState) Restore(data []byte) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.s = ctlStateData{Failed: make(map[string]bool), DBs: make(map[string]*ctlDB)}
	_ = json.Unmarshal(data, &st.s)
	if st.s.Failed == nil {
		st.s.Failed = make(map[string]bool)
	}
	if st.s.DBs == nil {
		st.s.DBs = make(map[string]*ctlDB)
	}
}

// Fingerprint renders the state canonically, for convergence checks across
// controller replicas (chaos invariants, tests).
func (st *ctlState) Fingerprint() string {
	st.mu.Lock()
	defer st.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "machines=%s;epoch=%d;home=%d", strings.Join(st.s.Machines, ","), st.s.EpochSeq, st.s.HomeSeq)
	fmt.Fprintf(&b, ";failed=%s", strings.Join(sortedKeys(st.s.Failed), ","))
	for _, name := range sortedKeys(st.s.DBs) {
		db := st.s.DBs[name]
		fmt.Fprintf(&b, ";db=%s{replicas=%s,epoch=%d", name, strings.Join(db.Replicas, ","), db.Epoch)
		if cpy := db.Copy; cpy.Phase != replcopy.Idle {
			fmt.Fprintf(&b, ",copy=%s->%s", cpy.Source, cpy.Target)
		}
		b.WriteString("}")
	}
	return b.String()
}

// sortedKeys returns m's keys sorted, for deterministic iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
