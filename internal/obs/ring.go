package obs

import "sync"

// Ring capacities. No ring grows: a full one overwrites its oldest entry.
const (
	// SpanRingCapacity bounds the sampled request spans a registry keeps.
	SpanRingCapacity = 4096
	// ControlRingCapacity bounds the control events a registry keeps. Only
	// controller actions record one, never a transaction, so the ring holds
	// a long run's copies, recoveries, elections and verdicts.
	ControlRingCapacity = 4096
	// SlowLogCapacity bounds the slow-query log. Slow queries are rare; a
	// few hundred cover an investigation window.
	SlowLogCapacity = 256
)

// ring is the one bounded overwrite-oldest buffer behind the span ring, the
// control ring and the slow-query log. Recording takes one short
// mutex-guarded store; a full ring overwrites its oldest entry and counts the
// overwrite on dropped, so overflow is visible; reads walk it oldest first.
type ring[T any] struct {
	mu   sync.Mutex
	buf  []T
	next int // index in buf to write next
	full bool

	// total and dropped, when set, count every entry recorded and every
	// entry overwritten before it was read out.
	total, dropped *Counter
}

func newRing[T any](capacity int, total, dropped *Counter) ring[T] {
	return ring[T]{buf: make([]T, capacity), total: total, dropped: dropped}
}

// record stores v, overwriting the oldest entry when the ring is full.
func (r *ring[T]) record(v T) {
	r.mu.Lock()
	if r.full && r.dropped != nil {
		r.dropped.Inc()
	}
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
	r.mu.Unlock()
	if r.total != nil {
		r.total.Inc()
	}
}

// filter returns the buffered entries match accepts (every entry when match
// is nil), oldest first. A counting pass sizes the result exactly, so the
// only allocation is the returned slice (nil when nothing matches): polling
// a full ring makes no garbage proportional to its size.
func (r *ring[T]) filter(match func(*T) bool) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	var older []T
	if r.full {
		older = r.buf[r.next:]
	}
	parts := [2][]T{older, r.buf[:r.next]}
	n := 0
	for _, part := range parts {
		for i := range part {
			if match == nil || match(&part[i]) {
				n++
			}
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	for _, part := range parts {
		for i := range part {
			if match == nil || match(&part[i]) {
				out = append(out, part[i])
			}
		}
	}
	return out
}
