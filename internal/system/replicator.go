package system

import (
	"sync"
	"time"

	"sdp/internal/colo"
)

// replicator ships committed write batches to the DR colos of each
// database, asynchronously but in commit order per database (one worker per
// database drains a FIFO). A batch that fails to apply at a DR colo is
// dropped and the error recorded as a "repl" trace event; cross-colo
// replication is best-effort by design.
type replicator struct {
	sys *Controller

	mu      sync.Mutex
	queues  map[string][]([]capturedWrite)
	running map[string]bool
	pending map[string]int
	cond    *sync.Cond
}

func newReplicator(s *Controller) *replicator {
	r := &replicator{
		sys:     s,
		queues:  make(map[string][]([]capturedWrite)),
		running: make(map[string]bool),
		pending: make(map[string]int),
	}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// enqueue adds a committed batch for db and ensures its worker runs.
func (r *replicator) enqueue(db string, batch []capturedWrite) {
	r.mu.Lock()
	r.queues[db] = append(r.queues[db], batch)
	r.pending[db]++
	if !r.running[db] {
		r.running[db] = true
		go r.drain(db)
	}
	r.mu.Unlock()
}

// drain applies queued batches for db until the queue empties.
func (r *replicator) drain(db string) {
	for {
		r.mu.Lock()
		q := r.queues[db]
		if len(q) == 0 {
			r.running[db] = false
			r.cond.Broadcast()
			r.mu.Unlock()
			return
		}
		batch := q[0]
		q[0] = nil // the backing array outlives the reslice; the batch must not
		r.queues[db] = q[1:]
		r.mu.Unlock()

		r.apply(db, batch)

		r.mu.Lock()
		r.pending[db]--
		r.cond.Broadcast()
		r.mu.Unlock()
	}
}

// apply replays one batch at every DR colo, transactionally per colo.
func (r *replicator) apply(db string, batch []capturedWrite) {
	m := r.sys.metrics
	start := time.Now()
	var firstErr error
	for _, co := range r.sys.drTargets(db) {
		if err := applyAt(co, db, batch, m); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	m.replApply.ObserveDuration(time.Since(start))
	if firstErr == nil {
		m.replBatches.With("applied").Inc()
	} else {
		m.replBatches.With("failed").Inc()
		m.reg.TraceEvent("repl", db, "failed", firstErr.Error())
	}
}

// applyAt replays one batch at one DR colo in one transaction.
func applyAt(co *colo.Controller, db string, batch []capturedWrite, m *systemMetrics) error {
	tx, err := co.Begin(db)
	if err != nil {
		return err
	}
	for _, w := range batch {
		if _, err := tx.Exec(w.sql, w.params...); err != nil {
			_ = tx.Rollback()
			return err
		}
		m.replStatements.Inc()
	}
	return tx.Commit()
}

// flush blocks until db's queue is fully applied.
func (r *replicator) flush(db string) {
	r.mu.Lock()
	for r.pending[db] > 0 {
		r.cond.Wait()
	}
	r.mu.Unlock()
}

// totalPending returns the number of unapplied batches across all
// databases; the snapshot hook exposes it as the replication-lag gauge.
func (r *replicator) totalPending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, p := range r.pending {
		n += p
	}
	return n
}
