package sla

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sdp/internal/obs"
)

// Monitor checks what the platform actually delivers against each
// database's declared SLA (the paper's Section 4 model turned into a live
// control signal). The cluster controller feeds it one observation per
// finished transaction — commit with latency, abort, or proactive
// rejection — into a per-database ring of fixed time windows; each window,
// once closed, is compared against the declared SLA on three dimensions:
//
//   - throughput: committed transactions per second >= MinThroughput,
//   - availability: rejected fraction of attempts <= MaxRejectFraction,
//   - latency: mean commit latency <= MaxMeanLatency (when declared).
//
// Windows with no attempted transactions are idle, not violations: the
// minimum-throughput SLA applies to offered load, exactly as the paper's
// T-period accounting does. Violations increment the labeled
// sla_violations_total counter, land in the trace ring under scope "sla"
// with the database as correlation ID, and surface through ComplianceReport
// — which also flags the machines hosting the violating database's
// replicas, the hook a re-placement controller consumes.
//
// The hot path (the three Observe methods) takes one RLock for the
// database lookup plus a handful of atomic adds on the current window
// slot; evaluation runs only at pull time (Report, or any registry
// Snapshot via the OnSnapshot hook), never on the transaction path.
// Window slots are recycled with an epoch CAS; under concurrent recording
// a rotation may misplace the few observations in flight at the boundary
// — monitoring-grade accuracy, the same trade every sliding-window
// counter makes.
type Monitor struct {
	reg    *obs.Registry
	window time.Duration
	nwin   int
	now    func() time.Time

	violations *obs.CounterVec // sla_violations_total{db, kind}
	checked    *obs.CounterVec // sla_windows_checked_total{db}
	tracked    *obs.Gauge      // sla_tracked_databases
	compliance *obs.GaugeVec   // sla_compliance{db}
	observed   *obs.GaugeVec   // sla_observed_tps{db}

	mu      sync.RWMutex
	dbs     map[string]*dbMonitor
	sources []ReplicaSource
}

// ReplicaSource resolves a database name to the machines currently hosting
// its replicas; ok is false when the source does not know the database.
// Each cluster controller registers one, so the monitor can flag the
// machines behind a violation without importing the controller packages.
type ReplicaSource func(db string) (machines []string, ok bool)

// MonitorOptions tunes a Monitor; the zero value gives 60 one-second
// windows and the wall clock.
type MonitorOptions struct {
	// Window is the width of one accounting window (default 1s).
	Window time.Duration
	// Windows is how many windows the per-database ring retains; it is
	// also the span over which a database must stay clean to be reported
	// compliant again after a violation (default 60).
	Windows int
	// Now overrides the clock, for deterministic tests.
	Now func() time.Time
}

// ViolationKind values label sla_violations_total and ComplianceReport
// entries.
const (
	// ViolationThroughput marks a window whose committed TPS fell short of
	// the declared minimum.
	ViolationThroughput = "throughput"
	// ViolationAvailability marks a window whose proactively rejected
	// fraction exceeded the declared maximum.
	ViolationAvailability = "availability"
	// ViolationLatency marks a window whose mean commit latency exceeded
	// the declared bound.
	ViolationLatency = "latency"
)

// dbMonitor is one tracked database: its declared SLA, the window ring the
// hot path writes into, and the evaluation state the pull path owns.
type dbMonitor struct {
	name  string
	sla   SLA
	slots []monitorSlot

	// Evaluation state, guarded by evalMu (hot path never touches it).
	evalMu      sync.Mutex
	nextEval    int64 // first window index not yet evaluated
	evaluated   uint64
	violated    uint64
	byKind      map[string]uint64
	lastViolIdx int64
	lastViol    *Violation
	lastStats   WindowStats
	haveStats   bool
}

// monitorSlot is one ring entry. epoch holds the window index the slot
// currently accumulates; a recorder seeing a stale epoch CASes it forward
// and zeroes the counters, recycling the slot for the new window.
type monitorSlot struct {
	epoch    atomic.Int64
	commits  atomic.Uint64
	aborts   atomic.Uint64
	rejects  atomic.Uint64
	latNanos atomic.Int64
}

// NewMonitor creates a monitor reporting into reg and registers a snapshot
// hook, so every registry pull (including the admin plane's /metrics)
// evaluates freshly closed windows before the families are read.
func NewMonitor(reg *obs.Registry, opts MonitorOptions) *Monitor {
	if opts.Window <= 0 {
		opts.Window = time.Second
	}
	if opts.Windows <= 0 {
		opts.Windows = 60
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	m := &Monitor{
		reg:    reg,
		window: opts.Window,
		nwin:   opts.Windows,
		now:    opts.Now,
		violations: reg.CounterVec("sla_violations_total",
			"SLA windows violated, by database and dimension (throughput, availability, latency)", "db", "kind"),
		checked: reg.CounterVec("sla_windows_checked_total",
			"Non-idle windows evaluated against the declared SLA, by database", "db"),
		tracked: reg.Gauge("sla_tracked_databases",
			"Databases with a declared SLA under compliance monitoring"),
		compliance: reg.GaugeVec("sla_compliance",
			"1 when the database had no SLA violation within the retained window span, else 0 (bridged at snapshot)", "db"),
		observed: reg.GaugeVec("sla_observed_tps",
			"Committed TPS of the most recent non-idle closed window, by database (bridged at snapshot)", "db"),
		dbs: make(map[string]*dbMonitor),
	}
	reg.OnSnapshot(m.bridge)
	return m
}

// Track declares db's SLA and starts monitoring it. Observations for
// untracked databases are dropped, so controllers can feed the monitor
// unconditionally. Tracking the same name again replaces the declaration
// and resets the compliance history.
func (m *Monitor) Track(db string, s SLA) {
	if m == nil {
		return
	}
	if s.Period == 0 {
		s.Period = 24 * time.Hour
	}
	d := &dbMonitor{
		name:        db,
		sla:         s,
		slots:       make([]monitorSlot, m.nwin),
		byKind:      make(map[string]uint64),
		lastViolIdx: -1,
		nextEval:    m.windowIndex(m.now()),
	}
	for i := range d.slots {
		d.slots[i].epoch.Store(-1)
	}
	m.mu.Lock()
	m.dbs[db] = d
	m.tracked.Set(float64(len(m.dbs)))
	m.mu.Unlock()
}

// AddReplicaSource registers a resolver for the machines hosting a
// database's replicas, consulted when a report must flag a violating
// database's hosts.
func (m *Monitor) AddReplicaSource(src ReplicaSource) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.sources = append(m.sources, src)
	m.mu.Unlock()
}

// ObserveCommit records one committed transaction and its latency.
func (m *Monitor) ObserveCommit(db string, latency time.Duration) {
	m.observe(db, func(s *monitorSlot) {
		s.commits.Add(1)
		s.latNanos.Add(int64(latency))
	})
}

// ObserveAbort records one aborted transaction (deadlock victim, lock
// timeout, 2PC vote-no — application-inherent failures, which the paper's
// SLA model excludes from the rejection bound).
func (m *Monitor) ObserveAbort(db string) {
	m.observe(db, func(s *monitorSlot) { s.aborts.Add(1) })
}

// ObserveReject records one proactively rejected transaction (Algorithm 1
// during replica creation) — the numerator of the availability constraint.
func (m *Monitor) ObserveReject(db string) {
	m.observe(db, func(s *monitorSlot) { s.rejects.Add(1) })
}

// observe resolves the database and its current window slot, recycling the
// slot when it still holds an expired window.
func (m *Monitor) observe(db string, add func(*monitorSlot)) {
	if m == nil {
		return
	}
	m.mu.RLock()
	d := m.dbs[db]
	m.mu.RUnlock()
	if d == nil {
		return
	}
	idx := m.windowIndex(m.now())
	s := &d.slots[int(idx%int64(len(d.slots)))]
	for {
		e := s.epoch.Load()
		if e == idx {
			break
		}
		if e > idx {
			return // slot already rotated past us; drop the straggler
		}
		if s.epoch.CompareAndSwap(e, idx) {
			s.commits.Store(0)
			s.aborts.Store(0)
			s.rejects.Store(0)
			s.latNanos.Store(0)
			break
		}
	}
	add(s)
}

// windowIndex maps an instant to its window number.
func (m *Monitor) windowIndex(t time.Time) int64 {
	return t.UnixNano() / int64(m.window)
}

// bridge is the registry snapshot hook: evaluate every freshly closed
// window, then refresh the per-database compliance and observed-TPS gauges
// so one pull carries both the violation counters and the current verdict.
func (m *Monitor) bridge() {
	nowIdx := m.windowIndex(m.now())
	for _, d := range m.sorted() {
		m.evaluate(d, nowIdx)
		d.evalMu.Lock()
		v := 1.0
		if d.violatedWithinSpanLocked(nowIdx, len(d.slots)) {
			v = 0
		}
		tps := 0.0
		if d.haveStats {
			tps = d.lastStats.TPS
		}
		d.evalMu.Unlock()
		m.compliance.With(d.name).Set(v)
		m.observed.With(d.name).Set(tps)
	}
}

// sorted returns the tracked databases by name.
func (m *Monitor) sorted() []*dbMonitor {
	m.mu.RLock()
	defer m.mu.RUnlock()
	names := make([]string, 0, len(m.dbs))
	for n := range m.dbs {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*dbMonitor, len(names))
	for i, n := range names {
		out[i] = m.dbs[n]
	}
	return out
}

// evaluate compares every window of d closed since the last evaluation
// (and still within the ring) against the declared SLA, recording
// violations into the registry and the database's evaluation state.
func (m *Monitor) evaluate(d *dbMonitor, nowIdx int64) {
	d.evalMu.Lock()
	defer d.evalMu.Unlock()
	lo := d.nextEval
	if min := nowIdx - int64(len(d.slots)); lo < min {
		lo = min
	}
	for idx := lo; idx < nowIdx; idx++ {
		s := &d.slots[int(idx%int64(len(d.slots)))]
		if s.epoch.Load() != idx {
			continue // idle window: nothing was offered, nothing to judge
		}
		ws := windowStats(idx, s, m.window)
		if ws.Attempts() == 0 {
			continue
		}
		d.lastStats = ws
		d.haveStats = true
		d.evaluated++
		m.checked.With(d.name).Inc()

		var kinds []string
		if ws.TPS < d.sla.MinThroughput {
			kinds = append(kinds, ViolationThroughput)
		}
		if ws.RejectFraction > d.sla.MaxRejectFraction {
			kinds = append(kinds, ViolationAvailability)
		}
		if d.sla.MaxMeanLatency > 0 && ws.MeanLatencySeconds > d.sla.MaxMeanLatency.Seconds() {
			kinds = append(kinds, ViolationLatency)
		}
		if len(kinds) == 0 {
			continue
		}
		d.violated++
		d.lastViolIdx = idx
		d.lastViol = &Violation{Kinds: kinds, Stats: ws}
		for _, k := range kinds {
			d.byKind[k]++
			m.violations.With(d.name, k).Inc()
			m.reg.TraceEvent("sla", d.name, "violation",
				fmt.Sprintf("%s: %.1f tps, %.3f rejected, %.2fms mean latency (window %d)",
					k, ws.TPS, ws.RejectFraction, ws.MeanLatencySeconds*1e3, idx))
		}
	}
	d.nextEval = nowIdx
}

// violatedWithinSpanLocked reports whether the database's most recent
// violation is still inside the retained window span. Caller holds evalMu.
func (d *dbMonitor) violatedWithinSpanLocked(nowIdx int64, span int) bool {
	return d.lastViolIdx >= 0 && d.lastViolIdx >= nowIdx-int64(span)
}

// windowStats derives one closed window's observed figures from its slot.
func windowStats(idx int64, s *monitorSlot, window time.Duration) WindowStats {
	ws := WindowStats{
		Window:  idx,
		Commits: s.commits.Load(),
		Aborts:  s.aborts.Load(),
		Rejects: s.rejects.Load(),
	}
	sec := window.Seconds()
	if sec > 0 {
		ws.TPS = float64(ws.Commits) / sec
	}
	if a := ws.Attempts(); a > 0 {
		ws.RejectFraction = float64(ws.Rejects) / float64(a)
	}
	if ws.Commits > 0 {
		ws.MeanLatencySeconds = float64(s.latNanos.Load()) / float64(ws.Commits) / 1e9
	}
	return ws
}

// WindowStats is one closed window's observed figures.
type WindowStats struct {
	// Window is the window index (monotonic; start = Window × width).
	Window int64 `json:"window"`
	// Commits, Aborts, Rejects count finished transactions by outcome.
	Commits uint64 `json:"commits"`
	Aborts  uint64 `json:"aborts"`
	Rejects uint64 `json:"rejects"`
	// TPS is committed transactions per second over the window.
	TPS float64 `json:"tps"`
	// RejectFraction is Rejects over all attempts.
	RejectFraction float64 `json:"reject_fraction"`
	// MeanLatencySeconds is the mean commit latency.
	MeanLatencySeconds float64 `json:"mean_latency_seconds"`
}

// Attempts returns all finished transactions of the window.
func (w WindowStats) Attempts() uint64 { return w.Commits + w.Aborts + w.Rejects }

// Violation describes the most recent violating window of a database.
type Violation struct {
	// Kinds lists the violated dimensions (throughput, availability,
	// latency).
	Kinds []string `json:"kinds"`
	// Stats is the violating window's observed figures.
	Stats WindowStats `json:"stats"`
}

// DBCompliance is one database's entry in a ComplianceReport.
type DBCompliance struct {
	// Database is the client database name.
	Database string `json:"database"`
	// SLA is the declared agreement being checked.
	SLA SLA `json:"sla"`
	// Compliant is false while a violation lies within the retained
	// window span.
	Compliant bool `json:"compliant"`
	// WindowsEvaluated counts non-idle closed windows checked so far.
	WindowsEvaluated uint64 `json:"windows_evaluated"`
	// WindowsViolated counts checked windows that violated any dimension.
	WindowsViolated uint64 `json:"windows_violated"`
	// Violations tallies violations by dimension.
	Violations map[string]uint64 `json:"violations,omitempty"`
	// LastWindow is the most recent non-idle closed window.
	LastWindow *WindowStats `json:"last_window,omitempty"`
	// LastViolation describes the most recent violating window.
	LastViolation *Violation `json:"last_violation,omitempty"`
	// Machines lists the machines hosting the database's replicas when it
	// is non-compliant — the candidates a re-placement pass would relieve.
	Machines []string `json:"machines,omitempty"`
	// TopQueries lists the database's heaviest statements by total time
	// (from the registry's per-tenant query stats, fed by the wire server),
	// so a violating SLA comes with the workload that caused it.
	TopQueries []obs.QueryStat `json:"top_queries,omitempty"`
}

// topQueriesPerDB bounds the per-database statement list in a report.
const topQueriesPerDB = 5

// ComplianceReport is the monitor's full verdict, served by /slaz.
type ComplianceReport struct {
	// GeneratedAt is when the report was assembled.
	GeneratedAt time.Time `json:"generated_at"`
	// WindowSeconds is the accounting window width.
	WindowSeconds float64 `json:"window_seconds"`
	// Databases lists every tracked database, sorted by name.
	Databases []DBCompliance `json:"databases"`
}

// Violating returns the names of the non-compliant databases.
func (r ComplianceReport) Violating() []string {
	var out []string
	for _, d := range r.Databases {
		if !d.Compliant {
			out = append(out, d.Database)
		}
	}
	return out
}

// Report evaluates all freshly closed windows and returns the compliance
// verdict for every tracked database.
func (m *Monitor) Report() ComplianceReport {
	if m == nil {
		return ComplianceReport{}
	}
	now := m.now()
	nowIdx := m.windowIndex(now)
	r := ComplianceReport{GeneratedAt: now, WindowSeconds: m.window.Seconds()}
	for _, d := range m.sorted() {
		m.evaluate(d, nowIdx)
		d.evalMu.Lock()
		e := DBCompliance{
			Database:         d.name,
			SLA:              d.sla,
			Compliant:        !d.violatedWithinSpanLocked(nowIdx, len(d.slots)),
			WindowsEvaluated: d.evaluated,
			WindowsViolated:  d.violated,
		}
		if len(d.byKind) > 0 {
			e.Violations = make(map[string]uint64, len(d.byKind))
			for k, v := range d.byKind {
				e.Violations[k] = v
			}
		}
		if d.haveStats {
			ws := d.lastStats
			e.LastWindow = &ws
		}
		if d.lastViol != nil {
			v := *d.lastViol
			e.LastViolation = &v
		}
		d.evalMu.Unlock()
		if !e.Compliant {
			e.Machines = m.replicasOf(d.name)
		}
		e.TopQueries = m.reg.QueryStats().TopK(d.name, topQueriesPerDB)
		r.Databases = append(r.Databases, e)
	}
	return r
}

// replicasOf asks the registered sources for the machines hosting db.
func (m *Monitor) replicasOf(db string) []string {
	m.mu.RLock()
	sources := append([]ReplicaSource{}, m.sources...)
	m.mu.RUnlock()
	for _, src := range sources {
		if machines, ok := src(db); ok {
			sort.Strings(machines)
			return machines
		}
	}
	return nil
}

// WriteText renders the report for operators: one line per database plus
// the latest violating window, mirroring Snapshot.WriteText's style.
func (r ComplianceReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "# SLA compliance (window %.3gs, %d databases)\n", r.WindowSeconds, len(r.Databases))
	for _, d := range r.Databases {
		verdict := "COMPLIANT"
		if !d.Compliant {
			verdict = "VIOLATING"
		}
		fmt.Fprintf(w, "%-16s %-10s windows=%d violated=%d", d.Database, verdict, d.WindowsEvaluated, d.WindowsViolated)
		if d.LastWindow != nil {
			fmt.Fprintf(w, " tps=%.1f reject=%.3f mean=%.2fms",
				d.LastWindow.TPS, d.LastWindow.RejectFraction, d.LastWindow.MeanLatencySeconds*1e3)
		}
		fmt.Fprintln(w)
		if d.LastViolation != nil {
			fmt.Fprintf(w, "  last violation: %v in window %d (%.1f tps, %.3f rejected, %.2fms mean)\n",
				d.LastViolation.Kinds, d.LastViolation.Stats.Window,
				d.LastViolation.Stats.TPS, d.LastViolation.Stats.RejectFraction,
				d.LastViolation.Stats.MeanLatencySeconds*1e3)
		}
		if len(d.Machines) > 0 {
			fmt.Fprintf(w, "  hosting machines: %v\n", d.Machines)
		}
		for _, q := range d.TopQueries {
			fmt.Fprintf(w, "  top query: %q calls=%d total=%.2fms mean=%.3fms max=%.3fms\n",
				q.SQL, q.Count, q.TotalSeconds*1e3, q.MeanSeconds*1e3, q.MaxSeconds*1e3)
		}
	}
}
