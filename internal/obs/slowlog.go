package obs

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

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
	// Spans is the span breakdown captured at record time for traced
	// calls.
	Spans []Span `json:"spans,omitempty"`
}

// SlowLog is a bounded ring of slow-query captures. Like the span ring it
// overwrites oldest-first when full; unlike it, entries are expected to be
// rare, so a capture carries its trace's spans eagerly — by the time an
// operator looks, the span ring may have wrapped past them. A nil SlowLog
// is valid and discards entries.
type SlowLog struct {
	ring[SlowEntry]
	seq atomic.Uint64
}

// Record captures one slow query. e.Spans should be the call's span
// breakdown (nil for untraced calls).
func (l *SlowLog) Record(e SlowEntry) {
	if l == nil {
		return
	}
	e.Seq = l.seq.Add(1)
	l.record(e)
}

// Entries returns the buffered slow queries, oldest first.
func (l *SlowLog) Entries() []SlowEntry {
	if l == nil {
		return nil
	}
	return l.filter(nil)
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
		fmt.Fprintf(w, "#%d %s db=%s dur=%s trace=%s sql=%q\n",
			e.Seq, e.Time.Format(time.RFC3339Nano), e.DB, e.Duration, trace, e.SQL)
		if len(e.Spans) > 0 {
			WriteSpanTree(w, e.Spans)
		}
	}
}
