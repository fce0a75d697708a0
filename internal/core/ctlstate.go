package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// This file defines the deterministic state machine the replicated control
// plane applies from the consensus log. The consensus domain holds exactly
// the controller decisions that must survive a controller crash: machine
// membership and liveness, each database's replica placement, read home and
// namespace epoch, and the begin/abort/complete lifecycle of Algorithm 1
// replica copies. Everything else the controller tracks — per-table write
// sequence counters, in-flight write drains, the statement cache, SLA
// reservations — is leader-local soft state that a new leader rebuilds or
// conservatively discards at failover (see controlplane.go).

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

// ctlCmd is one replicated control-plane command, JSON-encoded into the
// consensus log. Every command is idempotent: a proposal whose outcome was
// lost to a timeout can be re-proposed safely.
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
	// Replicas are the machines hosting the database, in join order.
	Replicas []string `json:"replicas"`
	// ReadHome is Option 1's designated read replica.
	ReadHome string `json:"read_home"`
	// Epoch is the namespace incarnation (see dbState.epoch).
	Epoch uint64 `json:"epoch"`
	// Copy, when non-nil, records an Algorithm 1 copy in flight.
	Copy *ctlCopy `json:"copy,omitempty"`
}

// dropReplica takes machine out of the replica set, moving the read home off
// it onto the first replica left.
func (db *ctlDB) dropReplica(machine string) {
	for i, rid := range db.Replicas {
		if rid == machine {
			db.Replicas = append(db.Replicas[:i], db.Replicas[i+1:]...)
			if db.ReadHome == machine && len(db.Replicas) > 0 {
				db.ReadHome = db.Replicas[0]
			}
			return
		}
	}
}

// ctlCopy is the replicated record of an in-flight replica copy.
type ctlCopy struct {
	Source string `json:"source"`
	Target string `json:"target"`
}

// ctlCreateResult is the Apply result of a create_db command, carrying the
// decisions the state machine made deterministically.
type ctlCreateResult struct {
	Epoch    uint64
	ReadHome string
}

// ctlState is the replicated controller state machine. It implements
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
	// HomeSeq rotates Option-1 read homes across create_db commands.
	HomeSeq uint64 `json:"home_seq"`
}

// newCtlState returns an empty control-plane state machine.
func newCtlState() *ctlState {
	return &ctlState{s: ctlStateData{
		Failed: make(map[string]bool),
		DBs:    make(map[string]*ctlDB),
	}}
}

// Apply applies one committed command. All mutations are deterministic
// functions of the command and current state (map iteration is sorted).
func (st *ctlState) Apply(index uint64, data []byte) any {
	var cmd ctlCmd
	if err := json.Unmarshal(data, &cmd); err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	switch cmd.Op {
	case ctlOpAddMachine:
		if !contains(st.s.Machines, cmd.Machine) {
			st.s.Machines = append(st.s.Machines, cmd.Machine)
		}
		delete(st.s.Failed, cmd.Machine)
	case ctlOpFailMachine:
		st.s.Failed[cmd.Machine] = true
		for _, name := range st.dbNamesLocked() {
			db := st.s.DBs[name]
			db.dropReplica(cmd.Machine)
			if cp := db.Copy; cp != nil && (cp.Source == cmd.Machine || cp.Target == cmd.Machine) {
				db.Copy = nil
			}
		}
	case ctlOpRestartMachine:
		delete(st.s.Failed, cmd.Machine)
	case ctlOpCreateDB:
		if db, ok := st.s.DBs[cmd.DB]; ok {
			// Idempotent re-apply of a retried proposal.
			return ctlCreateResult{Epoch: db.Epoch, ReadHome: db.ReadHome}
		}
		st.s.EpochSeq++
		home := ""
		if len(cmd.Replicas) > 0 {
			home = cmd.Replicas[int(st.s.HomeSeq)%len(cmd.Replicas)]
			st.s.HomeSeq++
		}
		st.s.DBs[cmd.DB] = &ctlDB{
			Replicas: append([]string(nil), cmd.Replicas...),
			ReadHome: home,
			Epoch:    st.s.EpochSeq,
		}
		return ctlCreateResult{Epoch: st.s.EpochSeq, ReadHome: home}
	case ctlOpDropDB:
		delete(st.s.DBs, cmd.DB)
	case ctlOpCopyBegin:
		if db, ok := st.s.DBs[cmd.DB]; ok {
			db.Copy = &ctlCopy{Source: cmd.Source, Target: cmd.Target}
		}
	case ctlOpCopyAbort:
		if db, ok := st.s.DBs[cmd.DB]; ok {
			db.Copy = nil
		}
	case ctlOpCopyComplete:
		if db, ok := st.s.DBs[cmd.DB]; ok {
			if db.Copy != nil && !contains(db.Replicas, db.Copy.Target) {
				db.Replicas = append(db.Replicas, db.Copy.Target)
			}
			db.Copy = nil
		}
	case ctlOpRetireReplica:
		// Replica retirement (adaptive shrink, migration tail) must be
		// replicated: the retired machine's engine copy is dropped, so a
		// failover that resurrected the machine into the replica set from
		// an older record would route reads to a machine without the data.
		// Idempotent, and never drops the last replica — a retried retire
		// racing a machine failure must not empty the set.
		if db, ok := st.s.DBs[cmd.DB]; ok && len(db.Replicas) > 1 {
			db.dropReplica(cmd.Machine)
		}
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
	failed := make([]string, 0, len(st.s.Failed))
	for id := range st.s.Failed {
		failed = append(failed, id)
	}
	sort.Strings(failed)
	fmt.Fprintf(&b, ";failed=%s", strings.Join(failed, ","))
	for _, name := range st.dbNamesLocked() {
		db := st.s.DBs[name]
		fmt.Fprintf(&b, ";db=%s{replicas=%s,home=%s,epoch=%d", name, strings.Join(db.Replicas, ","), db.ReadHome, db.Epoch)
		if cp := db.Copy; cp != nil {
			fmt.Fprintf(&b, ",copy=%s->%s", cp.Source, cp.Target)
		}
		b.WriteString("}")
	}
	return b.String()
}

// view returns a deep copy of the state for failover reconciliation.
func (st *ctlState) view() ctlStateData {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := ctlStateData{
		Machines: append([]string(nil), st.s.Machines...),
		Failed:   make(map[string]bool, len(st.s.Failed)),
		DBs:      make(map[string]*ctlDB, len(st.s.DBs)),
		EpochSeq: st.s.EpochSeq,
		HomeSeq:  st.s.HomeSeq,
	}
	for id, v := range st.s.Failed {
		out.Failed[id] = v
	}
	for name, db := range st.s.DBs {
		cp := *db
		cp.Replicas = append([]string(nil), db.Replicas...)
		if db.Copy != nil {
			c := *db.Copy
			cp.Copy = &c
		}
		out.DBs[name] = &cp
	}
	return out
}

// dbNamesLocked returns database names sorted, for deterministic iteration.
// Caller holds st.mu.
func (st *ctlState) dbNamesLocked() []string {
	names := make([]string, 0, len(st.s.DBs))
	for n := range st.s.DBs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
