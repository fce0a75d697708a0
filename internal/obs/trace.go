package obs

import (
	"sync"
	"time"
)

// DefaultTraceCapacity is the ring size of a registry's tracer: large
// enough to hold the full 2PC and copy-phase history of an experiment run,
// small enough to be dumped whole.
const DefaultTraceCapacity = 4096

// Event is one structured span event. Events carry a correlation ID —
// "gid:<n>" for the branches and phases of one distributed transaction,
// or a database name for replica-copy and DR-replication spans — so an
// operator can reassemble the timeline of one transaction or one copy from
// the interleaved ring.
type Event struct {
	// Seq is a tracer-wide monotonically increasing sequence number; it
	// orders events exactly even when timestamps collide.
	Seq uint64 `json:"seq"`
	// Time is the wall-clock instant the event was recorded.
	Time time.Time `json:"time"`
	// Scope names the subsystem: "2pc", "copy", "recovery", "repl".
	Scope string `json:"scope"`
	// ID is the correlation ID tying this event to its peers.
	ID string `json:"id"`
	// Phase is the span transition: "prepare", "commit", "abort",
	// "table_inflight", "table_copied", "enqueue", "apply", ...
	Phase string `json:"phase"`
	// Detail is optional free-form context (target machine, error text).
	Detail string `json:"detail,omitempty"`
}

// Tracer is a bounded ring buffer of span events. Recording takes one
// short mutex-guarded append; when the ring is full the oldest events are
// overwritten, so the tracer holds the most recent window of activity and
// never grows. A nil Tracer is valid and discards events.
type Tracer struct {
	mu   sync.Mutex
	buf  []Event
	next int // index in buf to write next
	full bool
	seq  uint64

	// dropped, when set, counts events overwritten before being read out.
	dropped *Counter
}

// NewTracer creates a tracer holding up to capacity events; capacity <= 0
// selects DefaultTraceCapacity.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{buf: make([]Event, capacity)}
}

// Record appends one event to the ring.
func (t *Tracer) Record(scope, id, phase, detail string) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	if t.full && t.dropped != nil {
		t.dropped.Inc()
	}
	t.seq++
	t.buf[t.next] = Event{Seq: t.seq, Time: now, Scope: scope, ID: id, Phase: phase, Detail: detail}
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// Events returns the buffered events in recording order (oldest first).
func (t *Tracer) Events() []Event { return t.EventsFiltered("", "") }

// eventMatches is the one filter predicate shared by EventsFiltered,
// FilterEvents, and the admin plane's /tracez endpoint: an empty scope or id
// is a wildcard.
func eventMatches(e *Event, scope, id string) bool {
	return (scope == "" || e.Scope == scope) && (id == "" || e.ID == id)
}

// FilterEvents returns the events matching scope and id (empty = any),
// preserving order. It filters an already-captured slice (e.g.
// Snapshot.Trace); EventsFiltered filters the live ring.
func FilterEvents(events []Event, scope, id string) []Event {
	var out []Event
	for i := range events {
		if eventMatches(&events[i], scope, id) {
			out = append(out, events[i])
		}
	}
	return out
}

// EventsFiltered returns the buffered events matching scope and id (empty =
// any), oldest first. Unlike filtering the result of Events, it never copies
// the whole ring: a counting pass sizes the result exactly, so the only
// allocation is the returned slice (nil when nothing matches) — the /tracez
// endpoint can be polled without generating garbage proportional to the ring
// size.
func (t *Tracer) EventsFiltered(scope, id string) []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	t.eachLocked(func(e *Event) {
		if eventMatches(e, scope, id) {
			n++
		}
	})
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	t.eachLocked(func(e *Event) {
		if eventMatches(e, scope, id) {
			out = append(out, *e)
		}
	})
	return out
}

// eachLocked visits the buffered events oldest first. Caller holds t.mu.
func (t *Tracer) eachLocked(fn func(*Event)) {
	if t.full {
		for i := t.next; i < len(t.buf); i++ {
			fn(&t.buf[i])
		}
	}
	for i := 0; i < t.next; i++ {
		fn(&t.buf[i])
	}
}
