package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

// TestHistogramConcurrentTotal is the satellite guarantee: recording from N
// goroutines loses no observations — the final count, bucket total, and sum
// are exact.
func TestHistogramConcurrentTotal(t *testing.T) {
	const goroutines = 16
	const perG = 5000
	h := NewHistogram(LatencyBuckets)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(i%100) * 1e-5)
			}
		}(g)
	}
	wg.Wait()
	want := uint64(goroutines * perG)
	s := h.Snapshot()
	if s.Count != want {
		t.Fatalf("snapshot count = %d, want %d", s.Count, want)
	}
	var bucketTotal uint64
	for _, c := range s.Buckets {
		bucketTotal += c
	}
	if bucketTotal != want {
		t.Fatalf("bucket total = %d, want %d", bucketTotal, want)
	}
	// Sum of i%100 over perG iterations, times 1e-5, times goroutines.
	var per float64
	for i := 0; i < perG; i++ {
		per += float64(i%100) * 1e-5
	}
	if got, want := s.Sum, per*goroutines; math.Abs(got-want) > 1e-6*want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

// TestHistogramSnapshotDuringRecording checks the weaker live invariant: a
// snapshot taken mid-flight is internally coherent (quantiles computed over
// exactly the observations the snapshot saw).
func TestHistogramSnapshotDuringRecording(t *testing.T) {
	h := NewHistogram(nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.ObserveDuration(50 * time.Microsecond)
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		s := h.Snapshot()
		var total uint64
		for _, c := range s.Buckets {
			total += c
		}
		if total != s.Count {
			t.Fatalf("snapshot count %d != bucket total %d", s.Count, total)
		}
		if s.Count > 0 && (s.P99 < 1e-6 || s.P99 > 1e-3) {
			t.Fatalf("p99 = %v, implausible for a 50µs constant stream", s.P99)
		}
	}
	close(stop)
	wg.Wait()
}

// TestPairNeverTorn is the consistency guarantee behind the Engine.Stats
// fix: each writer bumps side A, then side B, so a reader that sees both
// sides at one instant finds B at most A and at most one event per writer
// behind it; two separately read counters could show B ahead.
func TestPairNeverTorn(t *testing.T) {
	var p Pair
	stop := make(chan struct{})
	var wg sync.WaitGroup
	const writers = 8
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					p.IncA()
					p.IncB()
				}
			}
		}()
	}
	for i := 0; i < 100000; i++ {
		a, b := p.Load()
		if b > a || a-b > writers {
			t.Fatalf("torn pair: a=%d b=%d", a, b)
		}
	}
	close(stop)
	wg.Wait()
}

// TestPairSides checks independent side updates and exact totals under
// concurrency.
func TestPairSides(t *testing.T) {
	var p Pair
	const goroutines = 8
	const perG = 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if i%3 == 0 {
					p.IncA()
				} else {
					p.IncB()
				}
			}
		}()
	}
	wg.Wait()
	a, b := p.Load()
	var wantA uint64
	for i := 0; i < perG; i++ {
		if i%3 == 0 {
			wantA++
		}
	}
	wantA *= goroutines
	if a != wantA || b != goroutines*perG-wantA {
		t.Fatalf("a=%d b=%d, want a=%d b=%d", a, b, wantA, goroutines*perG-wantA)
	}
}

func TestCounterGaugeVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("route_total", "routing decisions", "option")
	v.With("option1").Add(3)
	v.With("option2").Inc()
	v.With("option1").Inc()
	g := r.GaugeVec("util", "utilization", "machine", "resource")
	g.With("m1", "cpu").Set(0.5)
	g.With("m1", "cpu").Add(0.25)

	s := r.Snapshot()
	if got := s.Counter("route_total", "option", "option1"); got != 4 {
		t.Fatalf("option1 = %d, want 4", got)
	}
	if got := s.Counter("route_total"); got != 5 {
		t.Fatalf("summed = %d, want 5", got)
	}
	if got := s.Gauge("util", "machine", "m1", "resource", "cpu"); got != 0.75 {
		t.Fatalf("gauge = %v, want 0.75", got)
	}
	if got := s.Counter("missing_family"); got != 0 {
		t.Fatalf("missing family = %d, want 0", got)
	}
}

func TestRegistryIdempotentAndHooks(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("c", "help")
	c2 := r.Counter("c", "other help ignored")
	if c1 != c2 {
		t.Fatal("same family name returned distinct counters")
	}
	c1.Inc()
	hookRan := false
	r.OnSnapshot(func() {
		hookRan = true
		r.Gauge("bridged", "set by hook").Set(42)
	})
	s := r.Snapshot()
	if !hookRan {
		t.Fatal("snapshot hook did not run")
	}
	if got := s.Gauge("bridged"); got != 42 {
		t.Fatalf("bridged gauge = %v, want 42", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge should panic")
		}
	}()
	r.Gauge("c", "wrong kind")
}

func TestQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // all in the (1,2] bucket
	}
	s := h.Snapshot()
	if s.P50 <= 1 || s.P50 > 2 {
		t.Fatalf("p50 = %v, want in (1,2]", s.P50)
	}
	if s.P99 <= 1 || s.P99 > 2 {
		t.Fatalf("p99 = %v, want in (1,2]", s.P99)
	}
	h.Observe(100) // overflow bucket saturates at the last bound
	s = h.Snapshot()
	if got := s.Quantile(1.0); got != 8 {
		t.Fatalf("q1.0 = %v, want 8 (saturated)", got)
	}
}

func TestSnapshotSerialization(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a counter").Add(7)
	r.Histogram("lat_seconds", "a histogram", nil).ObserveDuration(2 * time.Millisecond)
	r.TraceEvent("copy", "db1", "start", "m2")

	s := r.Snapshot()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Counter("a_total") != 7 {
		t.Fatalf("roundtrip counter = %d, want 7", back.Counter("a_total"))
	}
	var buf bytes.Buffer
	s.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"a_total 7", "lat_seconds", "count=1"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("text dump missing %q:\n%s", want, out)
		}
	}
}
