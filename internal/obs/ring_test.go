package obs

import (
	"fmt"
	"sync"
	"testing"
)

// TestTracerRingAndCorrelation records more control events than the ring
// holds: the oldest fall out, Select reads the rest oldest first across the
// wrap point, and a correlation ID selects exactly its own events.
func TestTracerRingAndCorrelation(t *testing.T) {
	r := newSpanRing(8, nil, nil)
	for i := 1; i <= 20; i++ {
		r.Record(Span{SpanID: uint64(i), Scope: "2pc", Name: "prepare", ID: fmt.Sprintf("gid:%d", i%2)})
	}
	all := r.Select(0, "", "")
	if len(all) != 8 {
		t.Fatalf("ring holds %d spans, want 8", len(all))
	}
	for i, s := range all {
		if s.SpanID != uint64(13+i) {
			t.Fatalf("position %d holds span %d, want %d (oldest first)", i, s.SpanID, 13+i)
		}
	}
	byID := r.Select(0, "", "gid:1")
	if len(byID) != 4 {
		t.Fatalf("gid:1 spans = %d, want 4", len(byID))
	}
	for _, s := range byID {
		if s.ID != "gid:1" {
			t.Fatalf("wrong ID in selected spans: %q", s.ID)
		}
	}
}

// TestEventsFiltered covers the filter dimensions of Select: trace, scope
// only, id only, both, wildcards, a wrapped ring keeping oldest-first order,
// and a nil ring.
func TestEventsFiltered(t *testing.T) {
	r := newSpanRing(8, nil, nil)
	r.Record(Span{Scope: "2pc", Name: "prepare", ID: "gid:1"})
	r.Record(Span{Scope: "2pc", Name: "prepare", ID: "gid:2"})
	r.Record(Span{Scope: "copy", Name: "table_copied", ID: "shop"})
	r.Record(Span{Scope: "2pc", Name: "commit", ID: "gid:1"})
	r.Record(Span{TraceID: 7, Scope: "sql", Name: "select", ID: "shop"})

	if got := r.Select(0, "2pc", ""); len(got) != 3 {
		t.Fatalf("scope filter: got %d spans, want 3", len(got))
	}
	if got := r.Select(0, "", "gid:1"); len(got) != 2 || got[0].Name != "prepare" || got[1].Name != "commit" {
		t.Fatalf("id filter: got %+v, want prepare then commit", got)
	}
	if got := r.Select(0, "2pc", "gid:2"); len(got) != 1 {
		t.Fatalf("scope+id filter: got %d spans, want 1", len(got))
	}
	if got := r.Select(7, "", ""); len(got) != 1 || got[0].Name != "select" {
		t.Fatalf("trace filter: got %+v, want the one sql span", got)
	}
	if got := r.Select(0, "", ""); len(got) != 5 {
		t.Fatalf("wildcard: got %d spans, want 5", len(got))
	}
	if got := r.Select(0, "recovery", ""); got != nil {
		t.Fatalf("no match should return nil, got %+v", got)
	}

	// Wrap the ring; the oldest spans must fall out and order must hold.
	for i := 0; i < 6; i++ {
		r.Record(Span{Scope: "repl", Name: "apply", ID: "shop"})
	}
	if got := r.Select(0, "2pc", ""); len(got) != 1 || got[0].Name != "commit" {
		t.Fatalf("after wrap: got %+v, want only the gid:1 commit", got)
	}

	// A nil ring records nothing and selects nothing.
	var nilRing *SpanRing
	nilRing.Record(Span{})
	if got := nilRing.Select(0, "2pc", ""); got != nil {
		t.Fatalf("nil ring: got %+v", got)
	}
}

// TestSelectAllocations pins the contract /tracez relies on: selecting from
// a full ring allocates nothing beyond the result slice.
func TestSelectAllocations(t *testing.T) {
	r := newSpanRing(256, nil, nil)
	for i := 0; i < 512; i++ {
		scope := "2pc"
		if i%2 == 0 {
			scope = "copy"
		}
		r.Record(Span{Scope: scope, ID: "gid:1"})
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Select(0, "2pc", "gid:1") }); allocs > 1 {
		t.Errorf("select with matches: %.1f allocs/run, want at most the result slice (1)", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Select(0, "recovery", "") }); allocs != 0 {
		t.Errorf("select with no matches: %.1f allocs/run, want 0", allocs)
	}
}

// TestSpanRingDropCounter verifies a full ring accounts every span it
// evicts in trace_dropped_total rather than losing them silently.
func TestSpanRingDropCounter(t *testing.T) {
	reg := NewRegistry()
	reg.spans = newSpanRing(4, reg.Counter("trace_spans_total", ""), reg.Counter("trace_dropped_total", ""))
	for i := 0; i < 10; i++ {
		reg.Spans().Record(Span{TraceID: NewTraceID(), SpanID: NewTraceID()})
	}
	snap := reg.Snapshot()
	if got := snap.Counter("trace_dropped_total"); got != 6 {
		t.Fatalf("trace_dropped_total = %d, want 6 (10 spans into a 4-slot ring)", got)
	}
	if got := snap.Counter("trace_spans_total"); got != 10 {
		t.Fatalf("trace_spans_total = %d, want 10", got)
	}
}

// TestRingConcurrent records and selects from many goroutines at once (run
// it under -race): the ring ends full, and every writer's spans read back in
// the order that writer recorded them.
func TestRingConcurrent(t *testing.T) {
	r := newSpanRing(128, nil, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= 1000; i++ {
				r.Record(Span{SpanID: uint64(i), ID: fmt.Sprintf("g%d", g)})
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Select(0, "", fmt.Sprintf("g%d", g))
			}
		}(g)
	}
	wg.Wait()
	if got := len(r.Select(0, "", "")); got != 128 {
		t.Fatalf("len = %d, want 128", got)
	}
	for g := 0; g < 8; g++ {
		spans := r.Select(0, "", fmt.Sprintf("g%d", g))
		for i := 1; i < len(spans); i++ {
			if spans[i].SpanID <= spans[i-1].SpanID {
				t.Fatalf("writer g%d's spans out of order at %d", g, i)
			}
		}
	}
}
