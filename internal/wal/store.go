package wal

import (
	"fmt"
	"sync"
)

// Store is the byte-level persistence a Log writes to. Append buffers bytes
// (they are not durable until Sync); Sync makes everything appended so far
// durable; Truncate discards everything at and after off (torn-tail repair
// during recovery). Implementations must be safe for concurrent use.
type Store interface {
	// Append appends p and returns the offset its first byte was written at.
	// It must not keep p: the Log reuses p's array for its next frame.
	Append(p []byte) (int64, error)
	// Sync makes all appended bytes durable.
	Sync() error
	// Size returns the total number of appended bytes (durable or not).
	Size() int64
	// Contents returns the store's current bytes, durable and buffered. A
	// recovery scan after a crash sees only what survived the crash.
	Contents() ([]byte, error)
	// Truncate discards the bytes at and after off.
	Truncate(off int64) error
}

// ErrStoreFailed is returned by a MemStore whose fault injection point has
// been reached.
var ErrStoreFailed = fmt.Errorf("wal: simulated store failure")

// MemStore is the in-memory simulated-disk Store used by default: appends
// land in a buffer, Sync advances a durability watermark, and Crash discards
// everything past it. Fault hooks make crash scenarios scriptable: FailAfter
// makes appends error once the store holds n bytes, DuplicateLast re-appends
// the bytes of the most recent append (a doubled final frame), and Chop
// drops the last n durable bytes (a truncation mid-record).
//
// The buffer is a list of fixed-size chunks, not one slice: a log grows to
// hundreds of megabytes, and re-allocating and copying a slice that size
// stalls the append that triggers it for tens to hundreds of milliseconds —
// a cost of the simulation, not of any disk.
type MemStore struct {
	mu        sync.Mutex
	chunks    [][]byte // every chunk but the last holds memChunk bytes
	size      int
	durable   int
	lastOff   int
	failAfter int64 // <0 disabled
}

// memChunk is the MemStore's allocation unit.
const memChunk = 1 << 20

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{failAfter: -1}
}

// write appends p to the chunk list. Caller holds s.mu.
func (s *MemStore) write(p []byte) {
	s.size += len(p)
	for len(p) > 0 {
		n := len(s.chunks)
		if n == 0 || len(s.chunks[n-1]) == memChunk {
			s.chunks = append(s.chunks, make([]byte, 0, memChunk))
			n++
		}
		k := min(len(p), memChunk-len(s.chunks[n-1]))
		s.chunks[n-1] = append(s.chunks[n-1], p[:k]...)
		p = p[k:]
	}
}

// read copies out the bytes from off to the end. Caller holds s.mu.
func (s *MemStore) read(off int) []byte {
	out := make([]byte, 0, s.size-off)
	for i := off / memChunk; i < len(s.chunks); i++ {
		c := s.chunks[i]
		if i == off/memChunk {
			c = c[off%memChunk:]
		}
		out = append(out, c...)
	}
	return out
}

// cut discards the bytes at and after keep, clamping the durability
// watermark and the last-append offset with it. Caller holds s.mu.
func (s *MemStore) cut(keep int) {
	n := (keep + memChunk - 1) / memChunk
	clear(s.chunks[n:]) // or the dropped chunks stay reachable through the array
	s.chunks = s.chunks[:n]
	if rem := keep % memChunk; rem != 0 {
		s.chunks[len(s.chunks)-1] = s.chunks[len(s.chunks)-1][:rem]
	}
	s.size = keep
	s.durable = min(s.durable, keep)
	s.lastOff = min(s.lastOff, keep)
}

// Append implements Store.
func (s *MemStore) Append(p []byte) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failAfter >= 0 && int64(s.size)+int64(len(p)) > s.failAfter {
		// Model a disk that dies partway: the bytes up to the failure point
		// are kept (unsynced), the rest is lost, and the write errors.
		if room := s.failAfter - int64(s.size); room > 0 {
			s.write(p[:room])
		}
		return 0, ErrStoreFailed
	}
	s.lastOff = s.size
	s.write(p)
	return int64(s.lastOff), nil
}

// Sync implements Store.
func (s *MemStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failAfter >= 0 && int64(s.size) > s.failAfter {
		return ErrStoreFailed
	}
	s.durable = s.size
	return nil
}

// Size implements Store.
func (s *MemStore) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(s.size)
}

// Contents implements Store.
func (s *MemStore) Contents() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.read(0), nil
}

// Truncate implements Store.
func (s *MemStore) Truncate(off int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if off < 0 || off > int64(s.size) {
		return fmt.Errorf("wal: truncate offset %d out of range", off)
	}
	s.cut(int(off))
	return nil
}

// Crash simulates a process or machine crash: unsynced bytes are dropped,
// except the first tornBytes of the unsynced tail, which survive as a write
// torn mid-frame by the failure.
func (s *MemStore) Crash(tornBytes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cut(min(s.durable+tornBytes, s.size))
	s.durable = s.size
}

// SetFailAfter arms the byte-budget fault: any append that would grow the
// store past n bytes keeps the prefix that fits and fails. Pass a negative n
// to disarm.
func (s *MemStore) SetFailAfter(n int64) {
	s.mu.Lock()
	s.failAfter = n
	s.mu.Unlock()
}

// DuplicateLast re-appends the bytes of the most recent append and marks
// them durable — the classic doubled-final-frame corruption after a partial
// block rewrite. Recovery must detect the duplicate (its self-LSN disagrees
// with its position) and truncate there.
func (s *MemStore) DuplicateLast() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.write(s.read(s.lastOff))
	s.durable = s.size
}

// Chop drops the last n bytes of the store and marks the remainder durable —
// a truncation landing mid-record.
func (s *MemStore) Chop(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cut(max(s.size-n, 0))
	s.durable = s.size
}
