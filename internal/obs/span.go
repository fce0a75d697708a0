package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanIDs hands out trace and span IDs. It is seeded from the wall clock at
// process start so IDs minted by different processes (a pooled wire client
// and the server it talks to) land in disjoint ranges with overwhelming
// probability, letting both sides contribute spans to one trace without
// coordination.
var spanIDs atomic.Uint64

func init() {
	spanIDs.Store(uint64(time.Now().UnixNano()))
}

// NewTraceID mints a process-unique non-zero trace or span ID.
func NewTraceID() uint64 {
	for {
		if id := spanIDs.Add(1); id != 0 {
			return id
		}
	}
}

// SpanContext is the trace position a request carries across layer (and
// process) boundaries: which trace it belongs to, which span is its parent
// on the far side, and whether the trace was head-sampled. The zero value
// means "not traced"; every recording site checks Sampled first, so an
// unsampled request pays one branch and nothing else.
type SpanContext struct {
	// TraceID ties all spans of one client call together.
	TraceID uint64
	// SpanID is the current span — the parent of any span started under
	// this context.
	SpanID uint64
	// Sampled is the head-sampling decision, made once at the edge and
	// propagated; downstream layers never re-decide.
	Sampled bool
}

// Traced reports whether the context carries a sampled trace.
func (c SpanContext) Traced() bool { return c.Sampled && c.TraceID != 0 }

// TraceIDString renders a trace or span ID the way operators see it in
// /tracez, the slow-query log, and Prometheus exemplars.
func TraceIDString(id uint64) string { return fmt.Sprintf("%016x", id) }

// Span is the one trace record. A sampled request span is a completed timed
// operation inside a trace: where the request spent part of its time,
// recorded at completion (start + measured duration), so a ring holds only
// finished work. A control event — a controller action such as a copy phase,
// a recovery or an election — is a span with TraceID 0 and Duration 0.
type Span struct {
	// TraceID ties the span to its trace; 0 for a control event.
	TraceID uint64 `json:"trace_id"`
	// SpanID identifies this span within the trace.
	SpanID uint64 `json:"span_id"`
	// Parent is the enclosing span's ID, 0 for a root span.
	Parent uint64 `json:"parent,omitempty"`
	// Scope names the layer or subsystem that recorded the span: "client",
	// "wire", "system", "core", "sql", "wal" for request spans; "copy",
	// "recovery", "consensus", "sla", "dr", "repl", "2pc" for control
	// events.
	Scope string `json:"scope"`
	// Name is the operation within the scope (statement kind, 2PC phase) or
	// the control event's phase ("start", "machine_failed").
	Name string `json:"name"`
	// ID is the correlation ID: the tenant database for request spans and
	// copy, recovery, SLA and DR events; a machine, cluster or "gid:<n>"
	// for the events of those.
	ID string `json:"id,omitempty"`
	// Start is when the operation began, or when the event happened.
	Start time.Time `json:"start"`
	// Duration is how long it took; 0 for a control event.
	Duration time.Duration `json:"duration_ns"`
	// Detail is optional free-form context (exec mode, target machine,
	// error text).
	Detail string `json:"detail,omitempty"`
}

// SpanRing is a bounded ring of spans: a registry keeps one of sampled
// request spans and one of control events, so sampled traffic never evicts
// a controller's record. A nil SpanRing is valid and discards spans.
type SpanRing struct{ ring[Span] }

func newSpanRing(capacity int, total, dropped *Counter) *SpanRing {
	return &SpanRing{newRing[Span](capacity, total, dropped)}
}

// Record appends one span to the ring.
func (r *SpanRing) Record(sp Span) {
	if r != nil {
		r.record(sp)
	}
}

// Select returns the buffered spans of one trace, scope and correlation ID,
// oldest first; a zero trace or an empty scope or id matches any. It
// allocates only its result, nil when nothing matches.
func (r *SpanRing) Select(trace uint64, scope, id string) []Span {
	if r == nil {
		return nil
	}
	return r.filter(func(s *Span) bool {
		return (trace == 0 || s.TraceID == trace) && (scope == "" || s.Scope == scope) && (id == "" || s.ID == id)
	})
}

// spanNode is one tree position during rendering.
type spanNode struct {
	span     *Span
	children []*spanNode
}

// buildSpanTree links spans into parent→child trees. A span whose parent is
// 0 or absent from the set (evicted from the ring, or recorded by a process
// whose ring we cannot see) becomes a root, so partial traces still render;
// a control event (span ID 0) is always a root.
func buildSpanTree(spans []Span) []*spanNode {
	all := make([]spanNode, len(spans))
	nodes := make(map[uint64]*spanNode, len(spans))
	for i := range spans {
		all[i].span = &spans[i]
		if spans[i].SpanID != 0 {
			nodes[spans[i].SpanID] = &all[i]
		}
	}
	var roots []*spanNode
	for i := range all {
		if p, ok := nodes[spans[i].Parent]; ok && p != &all[i] {
			p.children = append(p.children, &all[i])
		} else {
			roots = append(roots, &all[i])
		}
	}
	byStart := func(ns []*spanNode) {
		sort.SliceStable(ns, func(i, j int) bool { return ns[i].span.Start.Before(ns[j].span.Start) })
	}
	byStart(roots)
	for _, n := range nodes {
		byStart(n.children)
	}
	return roots
}

// WriteSpanTree renders spans as an indented tree, children under parents,
// each line carrying the span's scope:name, correlation ID, duration, and
// detail — the "where did these microseconds go" view of one request. A
// control event shows when it happened in place of a duration.
func WriteSpanTree(w io.Writer, spans []Span) {
	if len(spans) == 0 {
		fmt.Fprintln(w, "(no spans)")
		return
	}
	head := "trace " + TraceIDString(spans[0].TraceID)
	if spans[0].TraceID == 0 {
		head = "control events"
	}
	fmt.Fprintf(w, "%s (%d spans)\n", head, len(spans))
	var walk func(n *spanNode, depth int)
	walk = func(n *spanNode, depth int) {
		sp := n.span
		detail := ""
		if sp.Detail != "" {
			detail = "  " + sp.Detail
		}
		id := ""
		if sp.ID != "" {
			id = " id=" + sp.ID
		}
		took := sp.Duration.String()
		if sp.TraceID == 0 {
			took = sp.Start.Format(time.StampMicro)
		}
		fmt.Fprintf(w, "%*s%s:%s%s %s%s\n", 2*depth+2, "", sp.Scope, sp.Name, id, took, detail)
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	for _, root := range buildSpanTree(spans) {
		walk(root, 0)
	}
}

// Sampler makes head-based per-tenant sampling decisions: an interval
// derived from the configured fraction, counted separately per tenant
// database, so a chatty tenant cannot crowd every other tenant out of the
// span ring. The first call for a tenant always samples (rate-1 visibility
// for rarely-seen tenants); thereafter every interval-th call does.
// Decisions are deterministic, which keeps tests and demos reproducible.
// A nil Sampler never samples.
type Sampler struct {
	interval uint64
	mu       sync.Mutex
	counts   map[string]uint64
}

// NewSampler creates a sampler from a sampling fraction: <= 0 never
// samples, >= 1 always samples, and an intermediate fraction f samples
// roughly one in round(1/f) calls per tenant.
func NewSampler(fraction float64) *Sampler {
	switch {
	case fraction <= 0:
		return &Sampler{interval: 0}
	case fraction >= 1:
		return &Sampler{interval: 1, counts: make(map[string]uint64)}
	default:
		n := uint64(1/fraction + 0.5)
		if n < 1 {
			n = 1
		}
		return &Sampler{interval: n, counts: make(map[string]uint64)}
	}
}

// Sample decides whether the next request of the given tenant is traced.
func (s *Sampler) Sample(tenant string) bool {
	if s == nil || s.interval == 0 {
		return false
	}
	if s.interval == 1 {
		return true
	}
	s.mu.Lock()
	n := s.counts[tenant]
	s.counts[tenant] = n + 1
	s.mu.Unlock()
	return n%s.interval == 0
}
