package wire_test

import (
	"strings"
	"testing"

	"sdp"
	"sdp/internal/obs"
	"sdp/internal/wire"
)

// traceTree indexes one trace's spans for structural assertions.
type traceTree struct {
	spans  []obs.Span
	byID   map[uint64]obs.Span
	scopes map[string]int
}

func newTraceTree(spans []obs.Span) traceTree {
	tt := traceTree{spans: spans, byID: map[uint64]obs.Span{}, scopes: map[string]int{}}
	for _, s := range spans {
		tt.byID[s.SpanID] = s
		tt.scopes[s.Scope+":"+s.Name]++
	}
	return tt
}

// find returns the first span with the given scope and name.
func (tt traceTree) find(t *testing.T, scope, name string) obs.Span {
	t.Helper()
	for _, s := range tt.spans {
		if s.Scope == scope && s.Name == name {
			return s
		}
	}
	t.Fatalf("trace has no %s:%s span; got %v", scope, name, tt.scopes)
	return obs.Span{}
}

// TestTracePropagationAcrossWire drives prepared statements through a real
// socket with client-side sampling on and server-side head sampling OFF,
// and asserts the resulting span tree crosses the process boundary: the
// client root, the server's wire span, the system transaction span, the
// core 2PC phases, the WAL group-commit flush, and the per-statement sql
// span all share one trace ID and link parent-to-child without gaps. Run
// under -race this also exercises every trace-propagation handoff (wire
// session goroutine, replica-session ops queues, WAL flush) concurrently
// with the platform's background machinery.
func TestTracePropagationAcrossWire(t *testing.T) {
	p := sdp.New(sdp.Config{
		Listen:      "127.0.0.1:0",
		TraceSample: 0, // server head sampling off: the client decision must carry
	})
	p.AddColo("local", "local", 4)
	if err := p.CreateDatabase("app", sdp.SLA{SizeMB: 1, MinTPS: 1, MaxRejectFraction: 1}, "local"); err != nil {
		t.Fatal(err)
	}
	srv, err := p.ServeWire()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := p.Metrics()
	cl, err := wire.Dial(wire.ClientConfig{
		Addr:        srv.Addr(),
		Database:    "app",
		Metrics:     reg, // shared registry: client and server spans land in one ring
		TraceSample: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Exec("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec("INSERT INTO t VALUES (1, 'hello')"); err != nil {
		t.Fatal(err)
	}

	// A prepared write commits through full 2PC with a WAL flush per
	// participant (read-only transactions commit 1PC and never touch the
	// log, so only a write exercises the deepest spans).
	upd, err := cl.Prepare("UPDATE t SET v = ? WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := upd.Exec(sdp.Text("traced"), sdp.Int(1)); err != nil {
		t.Fatal(err)
	}
	wtid := lastClientTrace(t, reg, "UPDATE")
	wt := newTraceTree(reg.Spans().Select(wtid, "", ""))

	root := wt.find(t, "client", "exec")
	if root.Parent != 0 {
		t.Fatalf("client root span has parent %x, want 0", root.Parent)
	}
	wireSpan := wt.find(t, "wire", "exec")
	if wireSpan.Parent != root.SpanID {
		t.Fatalf("wire span parent = %x, want client root %x", wireSpan.Parent, root.SpanID)
	}
	sys := wt.find(t, "system", "txn")
	if sys.Parent != wireSpan.SpanID {
		t.Fatalf("system txn span parent = %x, want wire span %x", sys.Parent, wireSpan.SpanID)
	}
	prep := wt.find(t, "core", "2pc_prepare")
	if prep.Parent != sys.SpanID {
		t.Fatalf("2pc_prepare parent = %x, want system span %x", prep.Parent, sys.SpanID)
	}
	commit := wt.find(t, "core", "2pc_commit")
	if commit.Parent != sys.SpanID {
		t.Fatalf("2pc_commit parent = %x, want system span %x", commit.Parent, sys.SpanID)
	}
	flush := wt.find(t, "wal", "flush")
	if flush.Parent != commit.SpanID {
		t.Fatalf("wal flush parent = %x, want 2pc_commit %x", flush.Parent, commit.SpanID)
	}
	sqlSpan := wt.find(t, "sql", "update")
	if sqlSpan.Parent != sys.SpanID {
		t.Fatalf("sql span parent = %x, want system span %x", sqlSpan.Parent, sys.SpanID)
	}
	for _, s := range wt.spans {
		if s.TraceID != wtid {
			t.Fatalf("span %s:%s has trace %x, want %x", s.Scope, s.Name, s.TraceID, wtid)
		}
		if s.Parent != 0 {
			if _, ok := wt.byID[s.Parent]; !ok {
				t.Fatalf("span %s:%s parent %x not in trace", s.Scope, s.Name, s.Parent)
			}
		}
	}

	// A prepared read routes through the core read path instead of 2PC.
	sel, err := cl.Prepare("SELECT v FROM t WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sel.Exec(sdp.Int(1)); err != nil {
		t.Fatal(err)
	}
	rtid := lastClientTrace(t, reg, "SELECT")
	rt := newTraceTree(reg.Spans().Select(rtid, "", ""))
	rSys := rt.find(t, "system", "txn")
	read := rt.find(t, "core", "read")
	if read.Parent != rSys.SpanID {
		t.Fatalf("core read parent = %x, want system span %x", read.Parent, rSys.SpanID)
	}
	rt.find(t, "sql", "select")
	if n := rt.scopes["core:2pc_prepare"] + rt.scopes["wal:flush"]; n != 0 {
		t.Fatalf("read-only trace has %d write-path spans: %v", n, rt.scopes)
	}

	// The traced executions must have left exemplars on wire_exec_seconds
	// pointing at real trace IDs from this run.
	snap := reg.Snapshot()
	hs, ok := snap.Histogram("wire_exec_seconds")
	if !ok {
		t.Fatal("no wire_exec_seconds histogram in snapshot")
	}
	found := false
	for _, e := range hs.Exemplars {
		if e.TraceID == wtid || e.TraceID == rtid {
			found = true
		}
	}
	if !found {
		t.Fatalf("no wire_exec_seconds exemplar references trace %x or %x (exemplars: %v)",
			wtid, rtid, hs.Exemplars)
	}
}

// lastClientTrace returns the trace ID of the most recent client root span
// whose statement contains the given SQL fragment.
func lastClientTrace(t *testing.T, reg *obs.Registry, frag string) uint64 {
	t.Helper()
	spans := reg.Spans().Select(0, "client", "")
	for i := len(spans) - 1; i >= 0; i-- {
		s := spans[i]
		if s.Parent == 0 && strings.Contains(s.Detail, frag) {
			return s.TraceID
		}
	}
	t.Fatalf("no client root span matching %q", frag)
	return 0
}
