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

// Span is one completed timed operation inside a trace: where the request
// spent part of its time. Spans are recorded at completion (start + measured
// duration), so a ring holds only finished work.
type Span struct {
	// TraceID ties the span to its trace.
	TraceID uint64 `json:"trace_id"`
	// SpanID identifies this span within the trace.
	SpanID uint64 `json:"span_id"`
	// Parent is the enclosing span's ID, 0 for a root span.
	Parent uint64 `json:"parent,omitempty"`
	// Scope names the layer that recorded the span: "client", "wire",
	// "txn", "2pc", "read", "sql", "wal".
	Scope string `json:"scope"`
	// Name is the operation within the scope (statement kind, machine ID,
	// 2PC phase).
	Name string `json:"name"`
	// DB is the tenant database the span worked for.
	DB string `json:"db,omitempty"`
	// Start is when the operation began.
	Start time.Time `json:"start"`
	// Duration is how long it took.
	Duration time.Duration `json:"duration_ns"`
	// Detail is optional free-form context (exec mode, participant count).
	Detail string `json:"detail,omitempty"`
}

// SpanRing is a bounded ring of completed spans, the span-tree counterpart
// of the event Tracer: recording takes one short mutex-guarded append, a
// full ring overwrites its oldest span (counting the overwrite on the
// dropped counter so overflow is visible), and reads are wrap-aware. A nil
// SpanRing is valid and discards spans.
type SpanRing struct {
	mu   sync.Mutex
	buf  []Span
	next int
	full bool

	// total and dropped, when set, count every span recorded and every
	// span overwritten before it was read out (ring overflow).
	total   *Counter
	dropped *Counter
}

// NewSpanRing creates a ring holding up to capacity spans; capacity <= 0
// selects DefaultTraceCapacity. total and dropped may be nil.
func NewSpanRing(capacity int, total, dropped *Counter) *SpanRing {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &SpanRing{buf: make([]Span, capacity), total: total, dropped: dropped}
}

// Record appends one completed span to the ring.
func (r *SpanRing) Record(sp Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.full && r.dropped != nil {
		r.dropped.Inc()
	}
	r.buf[r.next] = sp
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
	if r.total != nil {
		r.total.Inc()
	}
}

// eachLocked visits the buffered spans oldest first. Caller holds r.mu.
func (r *SpanRing) eachLocked(fn func(*Span)) {
	if r.full {
		for i := r.next; i < len(r.buf); i++ {
			fn(&r.buf[i])
		}
	}
	for i := 0; i < r.next; i++ {
		fn(&r.buf[i])
	}
}

// Spans returns the buffered spans in recording order (oldest first).
func (r *SpanRing) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.buf))
	r.eachLocked(func(s *Span) { out = append(out, *s) })
	return out
}

// ByTrace returns the buffered spans of one trace, oldest first. Like
// Tracer.EventsFiltered, a counting pass sizes the result exactly so the
// only allocation is the returned slice (nil when the trace is unknown).
func (r *SpanRing) ByTrace(traceID uint64) []Span {
	if r == nil || traceID == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	r.eachLocked(func(s *Span) {
		if s.TraceID == traceID {
			n++
		}
	})
	if n == 0 {
		return nil
	}
	out := make([]Span, 0, n)
	r.eachLocked(func(s *Span) {
		if s.TraceID == traceID {
			out = append(out, *s)
		}
	})
	return out
}

// spanNode is one tree position during rendering.
type spanNode struct {
	span     *Span
	children []*spanNode
}

// buildSpanTree links spans into parent→child trees. A span whose parent is
// 0 or absent from the set (evicted from the ring, or recorded by a process
// whose ring we cannot see) becomes a root, so partial traces still render.
func buildSpanTree(spans []Span) []*spanNode {
	nodes := make(map[uint64]*spanNode, len(spans))
	for i := range spans {
		nodes[spans[i].SpanID] = &spanNode{span: &spans[i]}
	}
	var roots []*spanNode
	for i := range spans {
		n := nodes[spans[i].SpanID]
		if p, ok := nodes[spans[i].Parent]; ok && spans[i].Parent != spans[i].SpanID {
			p.children = append(p.children, n)
		} else {
			roots = append(roots, n)
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
// each line carrying the span's scope:name, tenant database, duration, and
// detail — the "where did these microseconds go" view of one request.
func WriteSpanTree(w io.Writer, spans []Span) {
	if len(spans) == 0 {
		fmt.Fprintln(w, "(no spans)")
		return
	}
	fmt.Fprintf(w, "trace %s (%d spans)\n", TraceIDString(spans[0].TraceID), len(spans))
	var walk func(n *spanNode, depth int)
	walk = func(n *spanNode, depth int) {
		sp := n.span
		detail := ""
		if sp.Detail != "" {
			detail = "  " + sp.Detail
		}
		db := ""
		if sp.DB != "" {
			db = " db=" + sp.DB
		}
		fmt.Fprintf(w, "%*s%s:%s%s %s%s\n", 2*depth+2, "", sp.Scope, sp.Name, db, sp.Duration, detail)
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
