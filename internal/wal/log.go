package wal

import (
	"errors"
	"sync"
	"time"

	"sdp/internal/obs"
)

// ErrSealed is the sticky error of a log that has been sealed by a machine
// crash: the store it wrote to is no longer its to touch.
var ErrSealed = errors.New("wal: log sealed by crash")

// Config tunes a Log.
type Config struct {
	// FlushLatency is an optional simulated fsync duration added to every
	// flush, mirroring the buffer pool's MissLatency knob. With a non-zero
	// latency the benefit of group commit — many committers amortising one
	// flush — becomes measurable.
	FlushLatency time.Duration

	// NoGroupCommit disables the group-commit pipeline: every Sync performs
	// its own flush instead of piggybacking on an in-flight one. Used as the
	// baseline in the -bench-wal experiment.
	NoGroupCommit bool

	// Compact enables log-head truncation after full checkpoints: once a
	// checkpoint covering every database has a durable end frame, everything
	// before its begin frame is unreachable by recovery and Compact drops it
	// (see Log.Compact). Keeps log size — and restart scan cost — bounded by
	// the data written since the last checkpoint instead of total history.
	Compact bool
}

// Metrics holds the log's resolved observability instruments. All fields are
// optional; NewMetrics resolves the wal_* families documented in
// OBSERVABILITY.md on a registry.
type Metrics struct {
	// Flushes counts physical flushes (simulated fsyncs).
	Flushes *obs.Counter
	// FlushBatch observes, per flush, how many committers it satisfied.
	FlushBatch *obs.Histogram
	// AppendedBytes counts bytes appended to the log.
	AppendedBytes *obs.Counter
	// TornTruncations counts torn tails truncated during recovery scans.
	TornTruncations *obs.Counter
	// Compactions counts dead log heads dropped after full checkpoints.
	Compactions *obs.Counter
	// ReplaySeconds observes log-replay durations during engine recovery.
	ReplaySeconds *obs.Histogram
}

// BatchBuckets are the flush batch-size histogram bounds (committers per
// flush).
var BatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// NewMetrics resolves the wal_* instrument families on reg. Machines of one
// cluster share the registry, so the families aggregate over all engines.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		Flushes: reg.Counter("wal_flush_total",
			"Physical log flushes (simulated fsyncs); with group commit, many commits share one flush"),
		FlushBatch: reg.Histogram("wal_flush_batch_size",
			"Committers satisfied per flush (group-commit batch size)", BatchBuckets),
		AppendedBytes: reg.Counter("wal_appended_bytes_total",
			"Bytes appended to write-ahead logs"),
		TornTruncations: reg.Counter("wal_torn_truncations_total",
			"Torn log tails detected and truncated during recovery"),
		Compactions: reg.Counter("wal_compactions_total",
			"Dead log heads dropped after full checkpoints (log compaction)"),
		ReplaySeconds: reg.Histogram("wal_replay_seconds",
			"Duration of checkpoint-restore plus log replay during engine recovery", nil),
	}
}

// Log is a write-ahead log over a Store. Append buffers a record; Sync
// forces everything appended so far, batching all concurrently syncing
// committers into a single store flush (group commit). A Log is safe for
// concurrent use.
type Log struct {
	store   Store
	cfg     Config
	metrics *Metrics

	mu       sync.Mutex
	cond     *sync.Cond
	size     int64  // bytes appended (== store size while healthy)
	syncedTo int64  // bytes known durable
	syncing  bool   // a flush is in flight
	waiting  int    // Sync calls currently batched or waiting
	gen      uint64 // bumped by Compact; invalidates waiters' byte targets
	err      error  // sticky store error
	frame    []byte // Append encodes each frame here; the store copies it
}

// maxKeptFrame is the largest frame buffer Append keeps for the next frame:
// a table image can be megabytes, and a statement frame is a few hundred
// bytes.
const maxKeptFrame = 64 << 10

// New creates a log over store. Existing store contents are retained:
// appends continue at the current end. metrics may be nil.
func New(store Store, cfg Config, metrics *Metrics) *Log {
	l := &Log{store: store, cfg: cfg, metrics: metrics, size: store.Size(), syncedTo: store.Size()}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Config returns the log's configuration.
func (l *Log) Config() Config { return l.cfg }

// Append encodes rec as a frame and appends it, buffered: the record is not
// durable until a later Sync covers it. It returns the record's LSN.
func (l *Log) Append(rec Record) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	lsn := l.size
	frame := encodeFrame(l.frame[:0], lsn, rec)
	l.frame = frame
	if cap(frame) > maxKeptFrame {
		l.frame = nil
	}
	if _, err := l.store.Append(frame); err != nil {
		l.err = err
		return 0, err
	}
	l.size += int64(len(frame))
	if l.metrics != nil {
		l.metrics.AppendedBytes.Add(uint64(len(frame)))
	}
	return lsn, nil
}

// AppendSync appends rec and forces it (and everything before it) to durable
// storage via the group-commit pipeline.
func (l *Log) AppendSync(rec Record) (int64, error) {
	lsn, err := l.Append(rec)
	if err != nil {
		return 0, err
	}
	return lsn, l.Sync()
}

// Sync makes every byte appended so far durable. Concurrent callers form a
// commit group: one of them (the leader) performs the physical flush — paying
// the configured FlushLatency once — and the rest return when the flush that
// covers their bytes completes. With NoGroupCommit set, every caller flushes
// individually.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	target := l.size
	if l.cfg.NoGroupCommit {
		// Serial flushes: wait for any in-flight flush, then do our own even
		// if a concurrent flush already covered our bytes — this is what a
		// commit path without group commit pays.
		for l.syncing && l.err == nil {
			l.cond.Wait()
		}
		if l.err != nil {
			return l.err
		}
		l.flushLocked(l.size, 1)
		return l.err
	}
	l.waiting++
	gen := l.gen
	// A generation bump means Compact rewrote and synced the whole store
	// while this caller waited: its record is durable, and its byte target is
	// meaningless in the rewritten log's coordinates.
	for l.syncedTo < target && l.err == nil && l.gen == gen {
		if l.syncing {
			l.cond.Wait()
			continue
		}
		// Become the leader: flush everything appended so far on behalf of
		// every waiter that arrived before this moment.
		l.flushLocked(l.size, l.waiting)
	}
	l.waiting--
	return l.err
}

// flushLocked performs one physical flush covering the first flushTo bytes,
// recording batch committers against it. Called with l.mu held; the mutex is
// released for the store call so appends (not syncs) proceed during the
// flush.
func (l *Log) flushLocked(flushTo int64, batch int) {
	l.syncing = true
	l.mu.Unlock()
	if l.cfg.FlushLatency > 0 {
		time.Sleep(l.cfg.FlushLatency)
	}
	err := l.store.Sync()
	l.mu.Lock()
	l.syncing = false
	if err != nil {
		l.err = err
	} else if flushTo > l.syncedTo {
		l.syncedTo = flushTo
	}
	if l.metrics != nil {
		l.metrics.Flushes.Inc()
		l.metrics.FlushBatch.Observe(float64(batch))
	}
	l.cond.Broadcast()
}

// Seal permanently fails the log: every later Append or Sync returns
// ErrSealed. A machine crash seals the dying engine's log before truncating
// the store's unsynced tail. Without the seal, a statement still executing on
// the dead engine could append a frame afterwards: its embedded LSN (taken
// from this log's stale size) would disagree with its store offset, and the
// next recovery scan would mistake the displaced frame for a torn tail —
// truncating durable commits and checkpoints behind it. Seal serialises with
// in-flight appends on the log mutex, so once it returns nothing more reaches
// the store through this log.
func (l *Log) Seal() {
	l.mu.Lock()
	if l.err == nil {
		l.err = ErrSealed
	}
	l.mu.Unlock()
	l.cond.Broadcast()
}

// Compact drops the log's dead head. After a checkpoint covering every
// database has a durable end frame, no record before its begin frame can
// influence recovery: every table's state is in the checkpoint's images,
// namespace history up to each marker is reflected in the marker itself, and
// (because table images are taken under table locks) no transaction that was
// still unresolved when the checkpoint completed has statements before it.
// Compact verifies those conditions from the records themselves and, when
// they hold, rewrites the store to contain only the frames from the begin
// frame onward — re-encoded, since frames embed their own offset — and syncs
// it. When any condition fails (a database dropped mid-checkpoint, an
// unresolved prepared transaction, no complete checkpoint yet) it leaves the
// log untouched and reports false.
//
// The rewrite models a checkpoint-truncated log on a simulated disk with
// truncate-then-append; a production file store would write the surviving
// tail to a fresh file and atomically swap it in.
func (l *Log) Compact() (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return false, l.err
	}
	for l.syncing {
		// Let any in-flight flush finish: it captured byte offsets of the
		// pre-compaction log.
		l.cond.Wait()
		if l.err != nil {
			return false, l.err
		}
	}
	data, err := l.store.Contents()
	if err != nil {
		l.err = err
		return false, err
	}
	recs, _, torn := Scan(data)
	if torn {
		return false, nil // never written by this log; leave repair to Recover
	}

	// Find the last complete checkpoint.
	begin, end := -1, -1
	open := -1
	for i, r := range recs {
		switch r.Type {
		case RecCheckpointBegin:
			open = i
		case RecCheckpointEnd:
			if open >= 0 {
				begin, end = open, i
				open = -1
			}
		}
	}
	if begin <= 0 {
		return false, nil // no complete checkpoint, or nothing before it
	}
	beginLSN := recs[begin].LSN

	// Every database with records before the checkpoint must be covered by
	// one of its namespace markers — or have been dropped before it, leaving
	// nothing to lose.
	markers := make(map[string]bool)
	for _, r := range recs[begin+1 : end] {
		if r.Type == RecCheckpointTable && r.Table == "" {
			markers[r.DB] = true
		}
	}
	lastNS := make(map[string]RecordType)
	referenced := make(map[string]bool)
	for _, r := range recs[:begin] {
		if r.DB == "" {
			continue
		}
		referenced[r.DB] = true
		if r.Type == RecCreateDB || r.Type == RecDropDB {
			lastNS[r.DB] = r.Type
		}
	}
	for db := range referenced {
		if !markers[db] && lastNS[db] != RecDropDB {
			return false, nil
		}
	}

	// No transaction with records before the begin frame may still matter:
	// its outcome must not live past the checkpoint (a resolution there may
	// need the compacted statements on a later recovery), and a prepared
	// transaction must not be unresolved (in doubt).
	headTxns := make(map[uint64]uint64) // txn id -> gid, for txns with head records
	prepared := make(map[uint64]bool)
	outcomeTxn := make(map[uint64]int64)
	outcomeGID := make(map[uint64]int64)
	for _, r := range recs {
		switch r.Type {
		case RecBegin, RecStatement:
			if r.Txn != 0 && r.LSN < beginLSN {
				headTxns[r.Txn] = r.GID
			}
		case RecPrepare:
			if r.LSN < beginLSN {
				prepared[r.Txn] = true
			}
		case RecCommit, RecAbort:
			if r.Txn != 0 {
				outcomeTxn[r.Txn] = r.LSN
			}
			if r.GID != 0 {
				outcomeGID[r.GID] = r.LSN
			}
		}
	}
	for txn, gid := range headTxns {
		lsn, decided := outcomeTxn[txn]
		if !decided && gid != 0 {
			lsn, decided = outcomeGID[gid]
		}
		if decided && lsn >= beginLSN {
			return false, nil
		}
		if !decided && prepared[txn] {
			return false, nil
		}
	}

	// Rebuild the store from the begin frame onward. Frames embed their own
	// offset, so each surviving record is re-encoded at its new position.
	var buf []byte
	for _, r := range recs[begin:] {
		buf = encodeFrame(buf, int64(len(buf)), r.Record)
	}
	if err := l.store.Truncate(0); err != nil {
		l.err = err
		return false, err
	}
	if _, err := l.store.Append(buf); err != nil {
		l.err = err
		return false, err
	}
	if err := l.store.Sync(); err != nil {
		l.err = err
		return false, err
	}
	l.size = int64(len(buf))
	l.syncedTo = l.size
	l.gen++
	if l.metrics != nil {
		l.metrics.Compactions.Inc()
	}
	l.cond.Broadcast()
	return true, nil
}

// Recover scans the durable contents of the log, truncating any torn tail
// (incomplete, corrupt, or displaced final frames) from the store, and
// returns the surviving records in log order along with whether a truncation
// happened. It also re-aligns the log's append position with the store, so a
// Log can keep appending after recovery.
func (l *Log) Recover() ([]RecordAt, bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := l.store.Contents()
	if err != nil {
		return nil, false, err
	}
	recs, goodEnd, torn := Scan(data)
	if torn {
		if err := l.store.Truncate(goodEnd); err != nil {
			return nil, true, err
		}
		if l.metrics != nil {
			l.metrics.TornTruncations.Inc()
		}
	}
	l.size = goodEnd
	l.syncedTo = goodEnd
	l.err = nil
	return recs, torn, nil
}
