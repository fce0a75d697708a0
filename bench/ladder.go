package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"sdp/internal/sqldb"
	"sdp/internal/system"
	"sdp/internal/wal"
	"sdp/internal/wire"
)

// span is one timed call at a layer boundary, recorded from outside the
// program: around the benchmark's own calls into each layer's public
// functions. Times are ns since the rung (or window) started.
type span struct {
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

// recorder collects the spans of calls made below the client: WAL store
// calls under the engine rung, backend calls under the wire rung. Which
// operation a call belongs to is settled afterwards, by containment in the
// one client's operation spans.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	calls  []span
}

func (r *recorder) add(name string, start time.Time) {
	end := time.Now()
	r.mu.Lock()
	r.calls = append(r.calls, span{Name: name, Start: int64(start.Sub(r.origin)), End: int64(end.Sub(r.origin))})
	r.mu.Unlock()
}

// reset drops what load and warm-up recorded and restarts the clock.
func (r *recorder) reset(origin time.Time) {
	r.mu.Lock()
	r.origin, r.calls = origin, r.calls[:0]
	r.mu.Unlock()
}

// snapshot returns the calls recorded so far; a straggling server-side
// rollback may still be appending.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.calls...)
}

// timedStore wraps the engine rung's WAL store and records the two calls
// that are the WAL's cost to a committing transaction.
type timedStore struct {
	wal.Store
	rec recorder
}

func (s *timedStore) Append(p []byte) (int64, error) {
	t := time.Now()
	off, err := s.Store.Append(p)
	s.rec.add("wal.append", t)
	return off, err
}

func (s *timedStore) Sync() error {
	t := time.Now()
	err := s.Store.Sync()
	s.rec.add("wal.sync", t)
	return err
}

// spanBackend is the benchmark-owned wire.Backend of rungWireSpans: the same
// system.Controller.Begin that Platform.ServeWire drives, with a span around
// Begin, ExecStmt and Commit, so that the client's round trip minus these is
// the wire layer's own time.
type spanBackend struct {
	sys *system.Controller
	rec recorder
}

func (b *spanBackend) Authenticate(db, _ string) error {
	_, err := b.sys.Route(db)
	return err
}

func (b *spanBackend) Begin(db string) (wire.Txn, error) {
	t0 := time.Now()
	t, err := b.sys.Begin(db)
	b.rec.add("backend.begin", t0)
	if err != nil {
		return nil, err
	}
	return spanTxn{t: t, rec: &b.rec}, nil
}

type spanTxn struct {
	t   *system.Txn
	rec *recorder
}

func (s spanTxn) ExecStmt(sql string, stmt sqldb.Statement, params ...sqldb.Value) (*sqldb.Result, error) {
	t0 := time.Now()
	res, err := s.t.ExecStmt(sql, stmt, params...)
	s.rec.add("backend.exec", t0)
	return res, err
}

func (s spanTxn) Commit() error {
	t0 := time.Now()
	err := s.t.Commit()
	s.rec.add("backend.commit", t0)
	return err
}

func (s spanTxn) Rollback() error {
	t0 := time.Now()
	err := s.t.Rollback()
	s.rec.add("backend.rollback", t0)
	return err
}

// rungResult is one client's replay of the workload at one rung.
type rungResult struct {
	Rung        rung    `json:"rung"`
	Ops         int     `json:"ops"`
	P50us       float64 `json:"p50_us"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	SpansTotal  int     `json:"spans_total"`
	Spans       []span  `json:"spans"`

	// childNs[i] is the time operation i spent in recorded child calls.
	childNs []int64
	lat     []int64
	// appendNs and syncNs total the WAL store calls (engine rung).
	appendNs, syncNs int64
	// counts are the R metrics of this rung's one client (top rung only).
	counts map[string]metric
	// spansPerOp and droppedShare read the platform's own span ring (obs rung).
	spansPerOp, droppedShare float64
}

// maxFileOps bounds the operations whose spans are written per rung; the
// numbers use them all.
const maxFileOps = 5000

// runRung sets the workload up afresh on rung r and replays its seeded
// operation stream with one client for dur.
func runRung(o options, r rung, dur time.Duration, withCounts bool) (*rungResult, error) {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	p, err := setUpOn(w, r, 1, o.warmOps(w))
	if err != nil {
		return nil, fmt.Errorf("rung %s: %w", r, err)
	}
	defer p.s.close()
	var rec *recorder
	switch r {
	case rungEngine:
		rec = &p.s.store.rec
	case rungWireSpans:
		rec = &p.s.back.rec
	}

	res := &rungResult{Rung: r}
	var reg regDelta
	if p.s.p != nil {
		reg.before = p.s.p.Metrics().Snapshot()
	}
	clientSpansBefore := clientSpans(p.s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	origin := time.Now()
	if rec != nil {
		rec.reset(origin)
	}
	var t tally
	c := p.clients[0]
	opName := string(r) + ".op"
	for op := int64(0); ; op++ {
		start := time.Since(origin)
		lat, ok := runOp(c, &t)
		if start+lat >= dur {
			break
		}
		if !ok {
			return nil, fmt.Errorf("rung %s: operation failed: %w", r, t.firstErr)
		}
		res.lat = append(res.lat, int64(lat))
		res.Spans = append(res.Spans, span{Op: op, Name: opName, Start: int64(start), End: int64(start + lat)})
	}
	runtime.ReadMemStats(&ms)
	res.Ops = len(res.lat)
	if res.Ops == 0 {
		return nil, fmt.Errorf("rung %s: no operation completed in %v", r, dur)
	}
	res.AllocsPerOp = float64(ms.Mallocs-mallocs) / float64(res.Ops)
	res.P50us = quantile(sortedCopy(res.lat), 0.5) / 1e3
	if p.s.p != nil {
		reg.after = p.s.p.Metrics().Snapshot()
		spans := reg.counter("trace_spans_total")
		res.spansPerOp = div(spans+clientSpans(p.s)-clientSpansBefore, float64(res.Ops))
		res.droppedShare = div(reg.counter("trace_dropped_total"), spans)
		if withCounts {
			m := newMetricSet(perLayer)
			// t.attempted, not res.Ops: the operation that ran past dur is
			// in the registry's counts too.
			registryMetrics(m, reg, float64(t.attempted), 0)
			res.counts = m.vals
		}
	}
	if rec != nil {
		res.attribute(rec.snapshot(), opName)
	}
	if err := w.verify(p.s); err != nil {
		return nil, fmt.Errorf("rung %s: %w", r, err)
	}
	res.SpansTotal = len(res.Spans)
	kept := res.Spans[:0]
	for _, sp := range res.Spans {
		if sp.Op < maxFileOps {
			kept = append(kept, sp)
		}
	}
	res.Spans = kept
	return res, nil
}

// clientSpans counts the spans the wire clients recorded on their own side
// of the socket (rungWireObs only).
func clientSpans(s *stack) float64 {
	if s.clientReg == nil {
		return 0
	}
	return float64(s.clientReg.Snapshot().Counter("trace_spans_total"))
}

// attribute assigns each recorded child call to the operation whose span
// contains its start — one client, so operations do not overlap — and adds
// it to the rung's spans under that parent.
func (r *rungResult) attribute(calls []span, parent string) {
	ops := r.Spans
	r.childNs = make([]int64, len(ops))
	i := 0
	for _, c := range calls {
		for i < len(ops) && ops[i].End < c.Start {
			i++
		}
		if i == len(ops) {
			break
		}
		if c.Start < ops[i].Start {
			continue // between operations: warm-up tail or verification
		}
		r.childNs[i] += c.End - c.Start
		switch c.Name {
		case "wal.append":
			r.appendNs += c.End - c.Start
		case "wal.sync":
			r.syncNs += c.End - c.Start
		}
		c.Op, c.Parent = ops[i].Op, parent
		r.Spans = append(r.Spans, c)
	}
}

// selfP50us is the median, over operations, of the operation's own time:
// its span minus the part its recorded children cover.
func (r *rungResult) selfP50us() float64 {
	self := make([]int64, len(r.lat))
	for i, l := range r.lat {
		self[i] = l - r.childNs[i]
	}
	return quantile(sortedCopy(self), 0.5) / 1e3
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Note     string        `json:"note"`
	Rungs    []*rungResult `json:"rungs,omitempty"`
	// OneClientCounts are the R metrics of the top rung's single client:
	// with one client and no timers these counts repeat exactly from run to
	// run, unlike the same counts taken over the concurrent window.
	OneClientCounts map[string]metric `json:"one_client_counts,omitempty"`
	// Spans are replica_churn's spans: every copy, and the first client
	// operations of the window.
	Spans []span `json:"spans,omitempty"`
}

// tracedRun produces the L metrics. For the laddered workloads one client
// replays the seeded stream at each rung of public entry points, each on a
// freshly set-up stack; a layer's own time is the difference of two rungs'
// medians, or, where spans nest (wire client ⊃ backend, engine ⊃ WAL store),
// the span minus what its children cover. replica_churn has no ladder: its
// spans are the copies and the client operations of the window itself.
func tracedRun(m *metricSet, o options, windowP50us float64, churn *churnDriver, t *tally) error {
	tf := traceFile{Workload: o.workload, Seed: o.seed,
		Note: "times in ns since the rung started; spans recorded by the benchmark around its calls into each layer, tracing inside the program off"}
	if churn != nil {
		tf.Spans = churn.spans
		for i := 0; i < len(t.lat) && i < maxFileOps; i++ {
			tf.Spans = append(tf.Spans, span{Op: int64(i), Name: "client.op", Start: t.end[i] - t.lat[i], End: t.end[i]})
		}
		m.set("unattributed_us_p50", windowP50us)
		return writeJSON(filepath.Join(o.outDir, "trace-"+o.workload+".json"), tf)
	}

	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return err
	}
	rungs := []rung{rungEngine, rungCluster, rungConn}
	if w.topRung() == rungWire {
		rungs = append(rungs, rungWire, rungWireSpans, rungWireObs)
	}
	dur := (o.window - o.window*2/5) / time.Duration(len(rungs))
	by := make(map[rung]*rungResult, len(rungs))
	for _, r := range rungs {
		res, err := runRung(o, r, dur, r == w.topRung())
		if err != nil {
			return err
		}
		by[r] = res
		tf.Rungs = append(tf.Rungs, res)
		if res.counts != nil {
			tf.OneClientCounts = res.counts
		}
	}

	eng, cl, conn := by[rungEngine], by[rungCluster], by[rungConn]
	ops := float64(eng.Ops)
	sqldbSelf, walSelf := eng.selfP50us(), quantile(sortedCopy(eng.childNs), 0.5)/1e3
	coreSelf, systemSelf, wireSelf := cl.P50us-eng.P50us, conn.P50us-cl.P50us, 0.0
	m.set("sqldb.self_us_p50", sqldbSelf)
	m.set("sqldb.allocs_per_txn", eng.AllocsPerOp)
	m.set("wal.self_us_p50", walSelf)
	m.set("wal.append_us_per_txn", float64(eng.appendNs)/1e3/ops)
	m.set("wal.sync_us_per_txn", float64(eng.syncNs)/1e3/ops)
	m.set("core.self_us_p50", coreSelf)
	m.set("core.allocs_per_txn", cl.AllocsPerOp-eng.AllocsPerOp)
	m.set("system.self_us_p50", systemSelf)
	m.set("system.allocs_per_txn", conn.AllocsPerOp-cl.AllocsPerOp)
	if plain, ok := by[rungWire]; ok {
		spans, traced := by[rungWireSpans], by[rungWireObs]
		wireSelf = spans.selfP50us()
		m.set("wire.self_us_p50", wireSelf)
		m.set("wire.allocs_per_txn", plain.AllocsPerOp-conn.AllocsPerOp)
		m.set("bench.span_overhead_share", (spans.P50us-plain.P50us)/plain.P50us)
		m.set("obs.span_overhead_share", (traced.P50us-plain.P50us)/plain.P50us)
		m.set("obs.spans_per_txn", traced.spansPerOp)
		m.set("obs.spans_dropped_share", traced.droppedShare)
	}
	m.set("unattributed_us_p50", windowP50us-(wireSelf+systemSelf+coreSelf+sqldbSelf+walSelf))
	return writeJSON(filepath.Join(o.outDir, "trace-"+o.workload+".json"), tf)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
