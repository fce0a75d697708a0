// Package obs is the platform's observability layer: a dependency-free
// metrics registry plus one trace record, the span, kept in bounded rings.
// Every controller tier (cluster, colo, system) and the embedded DBMS feed
// one shared Registry, so a single Snapshot answers the paper's quantitative
// questions — 2PC outcome counts and phase latencies (Table 1, Figures 2–4),
// Algorithm 1 copy phases and rejected writes (Figures 8–9), First-Fit
// placement probes and machine utilization (Table 2, Algorithm 2) — without
// attaching a debugger to any layer.
//
// Design constraints, in order:
//
//  1. Hot-path instruments are wait-free: counters and histograms are plain
//     atomics, never a mutex, so instrumenting the 2PC commit path or the
//     buffer pool does not serialise the workload being measured.
//  2. Snapshots are consistent where it matters: counters that form ratios
//     (hits/misses) are packed into one word (Pair) so a concurrent reader
//     can never observe one side of the pair without the other.
//  3. Zero dependencies: stdlib only, importable from every layer including
//     internal/sqldb without cycles.
//
// Instruments are created through a Registry and identified by a family
// name plus optional label values (e.g. core_read_route_total{option=
// "option1"}). Creating the same family twice returns the same instrument,
// so packages may look instruments up lazily without coordination.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Registry holds named metric families and the trace rings. All methods are
// safe for concurrent use. Instrument lookups take the registry mutex, so
// callers on hot paths should resolve instruments once and keep the
// returned pointer; updates on the instruments themselves are lock-free.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	vecs       map[string]*familyVec
	help       map[string]string
	hooks      []func()

	spans   *SpanRing // sampled request spans
	control *SpanRing // control events
	slow    *SlowLog
	qstats  *QueryStats
}

// familyVec is a labeled family: a map from joined label values to an
// instrument of one kind.
type familyVec struct {
	kind   string // "counter" or "gauge"
	labels []string
	mu     sync.RWMutex
	byKey  map[string]any
}

// NewRegistry creates an empty registry with its trace rings. The trace_*
// and slowlog_* meta-counters are registered eagerly so ring overflow is
// visible in every snapshot, even one taken before the first span is
// recorded.
func NewRegistry() *Registry {
	r := &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		vecs:       make(map[string]*familyVec),
		help:       make(map[string]string),
	}
	dropped := r.Counter("trace_dropped_total",
		"Trace ring entries (events or spans) overwritten before being read out.")
	total := r.Counter("trace_spans_total",
		"Spans recorded into the registry's span ring.")
	recorded := r.Counter("slowlog_recorded_total",
		"Slow queries captured into the slow-query log.")
	r.spans = newSpanRing(SpanRingCapacity, total, dropped)
	r.control = newSpanRing(ControlRingCapacity, nil, dropped)
	r.slow = &SlowLog{ring: newRing[SlowEntry](SlowLogCapacity, recorded, nil)}
	r.qstats = NewQueryStats()
	return r
}

// setHelp records a family's help string the first time it is seen.
func (r *Registry) setHelp(name, help string) {
	if _, ok := r.help[name]; !ok && help != "" {
		r.help[name] = help
	}
}

// Counter returns (creating if needed) the unlabeled counter family name.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		r.checkFree(name, "counter")
		c = &Counter{}
		r.counters[name] = c
		r.setHelp(name, help)
	}
	return c
}

// Gauge returns (creating if needed) the unlabeled gauge family name.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		r.checkFree(name, "gauge")
		g = &Gauge{}
		r.gauges[name] = g
		r.setHelp(name, help)
	}
	return g
}

// Histogram returns (creating if needed) the unlabeled histogram family
// name. buckets are the upper bounds of the histogram's buckets, in
// increasing order; nil selects LatencyBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		r.checkFree(name, "histogram")
		h = NewHistogram(buckets)
		r.histograms[name] = h
		r.setHelp(name, help)
	}
	return h
}

// CounterVec returns (creating if needed) a counter family labeled by the
// given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.vec(name, help, "counter", labels)}
}

// GaugeVec returns (creating if needed) a gauge family labeled by the given
// label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.vec(name, help, "gauge", labels)}
}

// vec returns (creating if needed) the labeled family name of a kind.
func (r *Registry) vec(name, help, kind string, labels []string) *familyVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.vecs[name]
	if !ok {
		r.checkFree(name, kind)
		v = &familyVec{kind: kind, labels: labels, byKey: make(map[string]any)}
		r.vecs[name] = v
		r.setHelp(name, help)
	} else if v.kind != kind {
		panic(fmt.Sprintf("obs: family %s is a %s vec, requested as %s vec", name, v.kind, kind))
	}
	return v
}

// checkFree panics if name is already registered as a different instrument
// shape — a programming error, caught loudly rather than silently aliased.
// Called with the registry mutex held.
func (r *Registry) checkFree(name, kind string) {
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("obs: family %s already registered as counter, requested as %s", name, kind))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("obs: family %s already registered as gauge, requested as %s", name, kind))
	}
	if _, ok := r.histograms[name]; ok {
		panic(fmt.Sprintf("obs: family %s already registered as histogram, requested as %s", name, kind))
	}
	if v, ok := r.vecs[name]; ok {
		panic(fmt.Sprintf("obs: family %s already registered as %s vec, requested as %s", name, v.kind, kind))
	}
}

// OnSnapshot registers a hook run at the start of every Snapshot call.
// Layers use hooks to bridge externally-maintained statistics (e.g. each
// machine's engine counters) into registry gauges just in time, so derived
// values like hit rates are computed from one coherent pull.
func (r *Registry) OnSnapshot(hook func()) {
	r.mu.Lock()
	r.hooks = append(r.hooks, hook)
	r.mu.Unlock()
}

// Spans returns the registry's ring of sampled request spans.
func (r *Registry) Spans() *SpanRing { return r.spans }

// Control returns the registry's ring of control events.
func (r *Registry) Control() *SpanRing { return r.control }

// SlowLog returns the registry's slow-query log.
func (r *Registry) SlowLog() *SlowLog { return r.slow }

// QueryStats returns the registry's per-tenant query-stats accumulator.
func (r *Registry) QueryStats() *QueryStats { return r.qstats }

// Families returns every registered metric family name mapped to its kind
// ("counter", "gauge", "histogram"). Unlike Snapshot, a labeled family with
// no children yet still appears — this is the registration view, which is
// what documentation drift checks need.
func (r *Registry) Families() map[string]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]string, len(r.counters)+len(r.gauges)+len(r.histograms)+len(r.vecs))
	for name := range r.counters {
		out[name] = "counter"
	}
	for name := range r.gauges {
		out[name] = "gauge"
	}
	for name := range r.histograms {
		out[name] = "histogram"
	}
	for name, v := range r.vecs {
		out[name] = v.kind
	}
	return out
}

// TraceEvent records a control event — a controller action an operator
// reconstructs afterwards: a copy phase, a recovery, an election or leader
// kill, an SLA violation, a DR promotion, an in-doubt verdict — on the
// control ring, as a span with TraceID 0 and Duration 0. scope names the
// subsystem, id the correlation ID, phase the transition. No transaction
// records one: per-transaction facts are counters, histograms and sampled
// spans.
func (r *Registry) TraceEvent(scope, id, phase, detail string) {
	r.control.Record(Span{Scope: scope, ID: id, Name: phase, Start: time.Now(), Detail: detail})
}

// sortedKeys returns the keys of a string-keyed map in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
