package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// DefaultSlowLogCapacity bounds the slow-query log when no explicit size is
// given. Slow queries are by definition rare; a few hundred entries cover
// an investigation window without unbounded growth.
const DefaultSlowLogCapacity = 256

// SlowEntry is one captured slow query: what ran, for which tenant, how it
// executed, and — when the call was traced — its span breakdown, so an
// operator can go from "this was slow" to "this is the layer that spent the
// time" without reproducing the call.
type SlowEntry struct {
	// Seq is a monotonically increasing capture sequence number.
	Seq uint64 `json:"seq"`
	// Time is when the slow call completed.
	Time time.Time `json:"time"`
	// DB is the tenant database the statement ran against.
	DB string `json:"db"`
	// SQL is the statement text.
	SQL string `json:"sql"`
	// Duration is the server-side execution time.
	Duration time.Duration `json:"duration_ns"`
	// TraceID is the call's trace, 0 when the call was not sampled.
	TraceID uint64 `json:"trace_id,omitempty"`
	// Mode is how the bound plan ran ("compiled"), "-" when unknown.
	Mode string `json:"mode"`
	// Spans is the span breakdown captured at record time for traced
	// calls.
	Spans []Span `json:"spans,omitempty"`
}

// SlowLog is a bounded ring of slow-query captures. Like the span ring it
// overwrites oldest-first when full; unlike it, entries are expected to be
// rare, so Record also snapshots the trace's spans eagerly — by the time an
// operator looks, the span ring may have wrapped past them. A nil SlowLog
// is valid and discards entries.
type SlowLog struct {
	mu   sync.Mutex
	buf  []SlowEntry
	next int
	full bool
	seq  uint64

	// recorded, when set, counts every slow query captured.
	recorded *Counter
}

// NewSlowLog creates a slow-query log holding up to capacity entries;
// capacity <= 0 selects DefaultSlowLogCapacity. recorded may be nil.
func NewSlowLog(capacity int, recorded *Counter) *SlowLog {
	if capacity <= 0 {
		capacity = DefaultSlowLogCapacity
	}
	return &SlowLog{buf: make([]SlowEntry, capacity), recorded: recorded}
}

// Record captures one slow query. spans should be the call's span
// breakdown (nil for untraced calls); the entry keeps its own copy.
func (l *SlowLog) Record(e SlowEntry) {
	if l == nil {
		return
	}
	if e.Mode == "" {
		e.Mode = "-"
	}
	l.mu.Lock()
	l.seq++
	e.Seq = l.seq
	l.buf[l.next] = e
	l.next++
	if l.next == len(l.buf) {
		l.next = 0
		l.full = true
	}
	l.mu.Unlock()
	if l.recorded != nil {
		l.recorded.Inc()
	}
}

// Entries returns the buffered slow queries, oldest first.
func (l *SlowLog) Entries() []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowEntry, 0, len(l.buf))
	if l.full {
		out = append(out, l.buf[l.next:]...)
	}
	out = append(out, l.buf[:l.next]...)
	return out
}

// WriteText renders the slow-query log for terminals: one header line per
// entry followed by its span tree when the call was traced.
func (l *SlowLog) WriteText(w io.Writer) {
	entries := l.Entries()
	if len(entries) == 0 {
		fmt.Fprintln(w, "(slow-query log empty)")
		return
	}
	for i := range entries {
		e := &entries[i]
		trace := "-"
		if e.TraceID != 0 {
			trace = TraceIDString(e.TraceID)
		}
		fmt.Fprintf(w, "#%d %s db=%s dur=%s mode=%s trace=%s sql=%q\n",
			e.Seq, e.Time.Format(time.RFC3339Nano), e.DB, e.Duration, e.Mode, trace, e.SQL)
		if len(e.Spans) > 0 {
			WriteSpanTree(w, e.Spans)
		}
	}
}
