package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// LatencyBuckets are the default histogram bounds, in seconds: exponential
// from one microsecond to ten seconds. They cover everything this platform
// times, from a buffer-pool hit to a whole-database copy.
var LatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5,
	1, 2.5, 5, 10,
}

// Histogram is a lock-free bounded histogram: a fixed set of buckets with
// atomic counts, plus an exact sum. Recording is
// wait-free except for the sum, which uses a CAS loop (uncontended in
// practice because concurrent recorders rarely collide on the same family).
// Quantiles are estimated by linear interpolation within the bucket that
// holds the requested rank, the standard bounded-histogram estimate; the
// error is bounded by the bucket width.
type Histogram struct {
	bounds []float64       // upper bounds, increasing
	counts []atomic.Uint64 // len(bounds)+1; last is the overflow bucket
	sum    atomic.Uint64   // float64 bits

	// exemplars holds one recent traced observation per bucket (see
	// ObserveWithExemplar). Guarded by emu; only traced observations —
	// a small sampled minority — ever touch it, so the wait-free
	// guarantee of Observe is preserved for the common path.
	emu       sync.Mutex
	exemplars []Exemplar
}

// Exemplar ties a histogram bucket to a concrete traced request: a recent
// observation that landed in the bucket and the trace that explains it.
// Rendered as OpenMetrics exemplars, it turns "p99 is 50µs" into "p99 is
// 50µs, here is a trace of one such call".
type Exemplar struct {
	// TraceID is the trace of the observed request (never 0).
	TraceID uint64 `json:"trace_id"`
	// Value is the observed value.
	Value float64 `json:"value"`
	// Time is when the observation was recorded.
	Time time.Time `json:"time"`
}

// NewHistogram creates a histogram with the given bucket upper bounds
// (increasing order); nil selects LatencyBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = LatencyBuckets
	}
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	return &Histogram{
		bounds: bs,
		counts: make([]atomic.Uint64, len(bs)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		val := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(val)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveWithExemplar records one value and, when traceID is non-zero,
// remembers (value, traceID, now) as the exemplar of the bucket the value
// landed in, overwriting the bucket's previous exemplar. traceID == 0
// degrades to a plain Observe.
func (h *Histogram) ObserveWithExemplar(v float64, traceID uint64) {
	h.Observe(v)
	if traceID == 0 {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.emu.Lock()
	if h.exemplars == nil {
		h.exemplars = make([]Exemplar, len(h.bounds)+1)
	}
	h.exemplars[i] = Exemplar{TraceID: traceID, Value: v, Time: time.Now()}
	h.emu.Unlock()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Snapshot captures the histogram's current state. Bucket counts are read
// one by one, so under concurrent recording the snapshot may straddle a few
// in-flight observations; Count is reconciled to the bucket total so the
// quantile estimate is computed over exactly the observations it saw.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:  h.bounds,
		Buckets: make([]uint64, len(h.counts)),
		Sum:     h.Sum(),
	}
	var total uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Buckets[i] = c
		total += c
	}
	s.Count = total
	h.emu.Lock()
	if h.exemplars != nil {
		s.Exemplars = make([]Exemplar, len(h.exemplars))
		copy(s.Exemplars, h.exemplars)
	}
	h.emu.Unlock()
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram with derived
// quantile estimates. Bounds and Buckets survive JSON serialization so a
// `-metrics -format json` dump carries the same information as the
// Prometheus exposition (cumulative buckets are derivable from the
// per-bucket counts); Buckets has one more entry than Bounds, the overflow
// bucket.
type HistogramSnapshot struct {
	Count   uint64    `json:"count"`
	Sum     float64   `json:"sum"`
	P50     float64   `json:"p50"`
	P95     float64   `json:"p95"`
	P99     float64   `json:"p99"`
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []uint64  `json:"buckets,omitempty"`
	// Exemplars is indexed like Buckets (one slot per bucket including
	// overflow); a zero TraceID means the bucket has no exemplar. Nil when
	// the histogram never saw a traced observation.
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// Mean returns the average observed value, or 0 with no observations.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) from the bucket counts by
// linear interpolation within the target bucket. Values beyond the last
// bound are reported as the last bound (the estimate saturates, as with
// any bounded histogram).
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var seen float64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := lo
		if i < len(s.Bounds) {
			hi = s.Bounds[i]
		}
		if seen+float64(c) >= rank {
			frac := (rank - seen) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		seen += float64(c)
	}
	if len(s.Bounds) == 0 {
		return 0
	}
	return s.Bounds[len(s.Bounds)-1]
}
