package sqldb

import (
	"sync"
	"time"
)

// LockMode is a multi-granularity lock mode.
type LockMode int

// Lock modes, weakest to strongest. IS/IX are intention modes taken on a
// table before locking individual rows; S/X are taken on rows, and on whole
// tables by scans, DDL, and the dump tool.
const (
	LockIS LockMode = iota
	LockIX
	LockS
	LockX
)

// String returns the conventional name of the mode.
func (m LockMode) String() string {
	switch m {
	case LockIS:
		return "IS"
	case LockIX:
		return "IX"
	case LockS:
		return "S"
	case LockX:
		return "X"
	default:
		return "?"
	}
}

// shared reports whether the mode is a read-side mode (released early when
// the 2PC prepare optimisation is enabled).
func (m LockMode) shared() bool { return m == LockIS || m == LockS }

// lockCompat[held][requested] reports whether the two modes are compatible.
var lockCompat = [4][4]bool{
	LockIS: {LockIS: true, LockIX: true, LockS: true, LockX: false},
	LockIX: {LockIS: true, LockIX: true, LockS: false, LockX: false},
	LockS:  {LockIS: true, LockIX: false, LockS: true, LockX: false},
	LockX:  {LockIS: false, LockIX: false, LockS: false, LockX: false},
}

// lockID names a lockable resource: a whole table, or one row of it
// identified by its primary key's key (appendKey). Keying row locks by the
// logical key (rather than a physical row ID) makes lock identity stable
// across replicas and across delete/re-insert of the same key.
type lockID struct {
	Table string // qualified "db/table" name
	Key   string // the row's primary-key key; "" for a table-level lock
}

// lockRequest is a queued lock acquisition.
type lockRequest struct {
	txn  *Txn
	mode LockMode
	// granted requests are in entry.granted; waiting ones in entry.queue.
	ready chan error // closed with nil on grant; receives error on abort
}

// holder is one transaction's grant on a resource.
type holder struct {
	txn  *Txn
	mode LockMode
}

// lockEntry is the state of one lockable resource. Its holders are few, so a
// slice searched linearly serves where a map would hash. A transaction's held
// list points at the entries it holds, which stay in the manager's table
// while held.
type lockEntry struct {
	id      lockID
	granted []holder
	queue   []*lockRequest
}

// find returns the position of txn among e's holders, or -1.
func (e *lockEntry) find(txn *Txn) int {
	for i := range e.granted {
		if e.granted[i].txn == txn {
			return i
		}
	}
	return -1
}

// lockManager implements strict two-phase locking with multi-granularity
// modes, FIFO wait queues, and wait-for-graph deadlock detection. The victim
// policy aborts the requester whose wait would close a cycle, which matches
// the immediate-detection behaviour the paper's TPC-W runs observed in MySQL
// (InnoDB also aborts the requesting transaction).
type lockManager struct {
	mu      sync.Mutex
	locks   map[lockID]*lockEntry
	waitFor map[*Txn]map[*Txn]bool // edges: waiter -> holders blocking it
	timeout time.Duration

	// free recycles lockEntry values (and their holder slices) so the hot
	// path of short transactions — a handful of uncontended locks acquired
	// and released per statement — does not allocate. Guarded by mu.
	free []*lockEntry

	deadlocks, timeouts uint64 // guarded by mu
}

// lockEntryFreeMax bounds the entry freelist.
const lockEntryFreeMax = 1024

func newLockManager(timeout time.Duration) *lockManager {
	return &lockManager{
		locks:   make(map[lockID]*lockEntry),
		waitFor: make(map[*Txn]map[*Txn]bool),
		timeout: timeout,
	}
}

// acquire obtains id in mode for txn, blocking until granted, deadlock,
// timeout, or transaction abort. Re-acquisitions and upgrades (e.g. S→X,
// IS→IX) are handled.
func (lm *lockManager) acquire(txn *Txn, id lockID, mode LockMode) error {
	lm.mu.Lock()

	e := lm.locks[id]
	if e == nil {
		if n := len(lm.free); n > 0 {
			e = lm.free[n-1]
			lm.free = lm.free[:n-1]
		} else {
			e = &lockEntry{granted: make([]holder, 0, 2)}
		}
		e.id = id
		lm.locks[id] = e
	}

	if i := e.find(txn); i >= 0 {
		target := upgradeMode(e.granted[i].mode, mode)
		if target == e.granted[i].mode {
			lm.mu.Unlock()
			return nil
		}
		// Upgrade: compatible with every *other* holder? The entry is already
		// in the transaction's held list from the original grant.
		if lm.compatibleWithHolders(e, txn, target) {
			e.granted[i].mode = target
			lm.mu.Unlock()
			return nil
		}
		// Conflicting upgrade: wait at the front of the queue (upgrades get
		// priority so two upgraders deadlock promptly rather than starve).
		req := &lockRequest{txn: txn, mode: target, ready: make(chan error, 1)}
		e.queue = append([]*lockRequest{req}, e.queue...)
		return lm.block(txn, e, req)
	}

	if len(e.queue) == 0 && lm.compatibleWithHolders(e, txn, mode) {
		e.granted = append(e.granted, holder{txn, mode})
		txn.noteLock(e)
		lm.mu.Unlock()
		return nil
	}
	req := &lockRequest{txn: txn, mode: mode, ready: make(chan error, 1)}
	e.queue = append(e.queue, req)
	return lm.block(txn, e, req)
}

// block parks txn on req after installing wait-for edges and checking for a
// deadlock cycle. Called with lm.mu held; always releases it.
func (lm *lockManager) block(txn *Txn, e *lockEntry, req *lockRequest) error {
	lm.refreshEdges(txn, e)
	if lm.cycleFrom(txn) {
		lm.deadlocks++
		lm.removeRequest(e, req)
		lm.clearEdges(txn)
		lm.mu.Unlock()
		return ErrDeadlock
	}
	lm.mu.Unlock()

	var timeoutC <-chan time.Time
	if lm.timeout > 0 {
		t := time.NewTimer(lm.timeout)
		defer t.Stop()
		timeoutC = t.C
	}
	select {
	case err := <-req.ready:
		return err
	case <-timeoutC:
		lm.mu.Lock()
		// The grant may have raced the timeout.
		select {
		case err := <-req.ready:
			lm.mu.Unlock()
			return err
		default:
		}
		lm.timeouts++
		lm.removeRequest(e, req)
		lm.clearEdges(txn)
		lm.grantWaiters(e)
		lm.mu.Unlock()
		return ErrLockTimeout
	}
}

// releaseAll drops every lock txn holds and cancels its pending waits.
func (lm *lockManager) releaseAll(txn *Txn) {
	lm.release(txn, func(LockMode) bool { return true })
}

// releaseShared drops only the read-side (S/IS) locks of txn. This is the
// 2PC optimisation — releasing read locks at PREPARE — that the paper
// identifies as the cause of non-serializable executions under read-routing
// Options 2 and 3 with an aggressive controller.
func (lm *lockManager) releaseShared(txn *Txn) {
	lm.release(txn, LockMode.shared)
}

func (lm *lockManager) release(txn *Txn, drop func(LockMode) bool) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	lm.clearEdges(txn)
	held := txn.locks
	kept := held[:0]
	for _, e := range held {
		if i := e.find(txn); i >= 0 {
			if drop(e.granted[i].mode) {
				// Clear the vacated slot: the entry keeps no txn alive.
				last := len(e.granted) - 1
				e.granted[i], e.granted[last] = e.granted[last], holder{}
				e.granted = e.granted[:last]
			} else {
				kept = append(kept, e)
			}
		}
		// Cancel any waits by this transaction (abort path).
		if drop(LockX) {
			for _, req := range e.queue {
				if req.txn == txn {
					lm.removeRequest(e, req)
					req.ready <- ErrTxnAborted
					break
				}
			}
		}
		lm.grantWaiters(e)
		if len(e.granted) == 0 && len(e.queue) == 0 {
			delete(lm.locks, e.id)
			if len(lm.free) < lockEntryFreeMax {
				*e = lockEntry{granted: e.granted}
				lm.free = append(lm.free, e)
			}
		}
	}
	clear(held[len(kept):]) // the released entries may be recycled
	txn.locks = kept
}

// grantWaiters admits queued requests in FIFO order while they are
// compatible. Called with lm.mu held.
func (lm *lockManager) grantWaiters(e *lockEntry) {
	for len(e.queue) > 0 {
		req := e.queue[0]
		if !lm.compatibleWithHolders(e, req.txn, req.mode) {
			break
		}
		e.queue = e.queue[1:]
		if i := e.find(req.txn); i >= 0 {
			e.granted[i].mode = upgradeMode(e.granted[i].mode, req.mode)
		} else {
			e.granted = append(e.granted, holder{req.txn, req.mode})
			req.txn.noteLock(e)
		}
		lm.clearEdges(req.txn)
		req.ready <- nil
	}
	// Re-point wait-for edges of the remaining waiters at current holders.
	for _, req := range e.queue {
		lm.refreshEdges(req.txn, e)
	}
}

// compatibleWithHolders reports whether txn may hold mode on e alongside all
// *other* current holders. Called with lm.mu held.
func (lm *lockManager) compatibleWithHolders(e *lockEntry, txn *Txn, mode LockMode) bool {
	for _, h := range e.granted {
		if h.txn != txn && !lockCompat[h.mode][mode] {
			return false
		}
	}
	return true
}

// refreshEdges sets txn's wait-for edges to the holders of e that block it.
// Called with lm.mu held.
func (lm *lockManager) refreshEdges(txn *Txn, e *lockEntry) {
	// Find txn's queued request to know the mode it wants.
	var want LockMode
	found := false
	for _, req := range e.queue {
		if req.txn == txn {
			want = req.mode
			found = true
			break
		}
	}
	if !found {
		return
	}
	edges := make(map[*Txn]bool)
	for _, h := range e.granted {
		if h.txn != txn && !lockCompat[h.mode][want] {
			edges[h.txn] = true
		}
	}
	// Also wait for earlier incompatible waiters (FIFO fairness).
	for _, req := range e.queue {
		if req.txn == txn {
			break
		}
		if !lockCompat[req.mode][want] || !lockCompat[want][req.mode] {
			edges[req.txn] = true
		}
	}
	lm.waitFor[txn] = edges
}

// clearEdges removes txn's outgoing wait-for edges. Called with lm.mu held.
func (lm *lockManager) clearEdges(txn *Txn) { delete(lm.waitFor, txn) }

// cycleFrom reports whether start can reach itself in the wait-for graph.
// Called with lm.mu held.
func (lm *lockManager) cycleFrom(start *Txn) bool {
	seen := make(map[*Txn]bool)
	var dfs func(t *Txn) bool
	dfs = func(t *Txn) bool {
		for next := range lm.waitFor[t] {
			if next == start {
				return true
			}
			if !seen[next] {
				seen[next] = true
				if dfs(next) {
					return true
				}
			}
		}
		return false
	}
	return dfs(start)
}

// removeRequest deletes req from e's queue. Called with lm.mu held.
func (lm *lockManager) removeRequest(e *lockEntry, req *lockRequest) {
	for i, r := range e.queue {
		if r == req {
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			return
		}
	}
}

// failedWaits returns the number of deadlocks detected and of lock waits
// timed out so far.
func (lm *lockManager) failedWaits() (deadlocks, timeouts uint64) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return lm.deadlocks, lm.timeouts
}

// heldCount returns the number of (transaction, resource) lock holds
// currently granted. A quiescent engine must report zero — the invariant
// the 2PC timeout tests assert to prove no coordinator failure path leaks
// locks.
func (lm *lockManager) heldCount() uint64 {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	var n uint64
	for _, e := range lm.locks {
		n += uint64(len(e.granted))
	}
	return n
}

// upgradeMode returns the weakest mode at least as strong as both a and b.
func upgradeMode(a, b LockMode) LockMode {
	if a == b {
		return a
	}
	// X dominates everything.
	if a == LockX || b == LockX {
		return LockX
	}
	// S+IX (and IX+S) needs SIX; we approximate with X, which is strictly
	// stronger and therefore safe (may cost some concurrency, never
	// correctness).
	if (a == LockS && b == LockIX) || (a == LockIX && b == LockS) {
		return LockX
	}
	if a == LockS || b == LockS {
		return LockS
	}
	if a == LockIX || b == LockIX {
		return LockIX
	}
	return LockIS
}
