package sla

import (
	"strings"
	"sync"
	"testing"
	"time"

	"sdp/internal/obs"
)

// fakeClock is a settable clock for deterministic window arithmetic.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newTestMonitor builds a monitor with 1s windows, a small ring, and a fake
// clock starting at a fixed instant.
func newTestMonitor(windows int) (*Monitor, *fakeClock, *obs.Registry) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	reg := obs.NewRegistry()
	m := NewMonitor(reg, MonitorOptions{Window: time.Second, Windows: windows, Now: clk.now})
	return m, clk, reg
}

func TestMonitorThroughputViolation(t *testing.T) {
	m, clk, reg := newTestMonitor(10)
	m.Track("shop", SLA{MinThroughput: 10})

	// 3 commits in a window that demands 10 TPS.
	for i := 0; i < 3; i++ {
		m.ObserveCommit("shop", time.Millisecond)
	}
	clk.advance(time.Second) // close the window
	rep := m.Report()

	if len(rep.Databases) != 1 {
		t.Fatalf("got %d databases, want 1", len(rep.Databases))
	}
	d := rep.Databases[0]
	if d.Compliant {
		t.Error("3 TPS against a 10 TPS SLA should violate")
	}
	if d.Violations[ViolationThroughput] != 1 {
		t.Errorf("throughput violations = %d, want 1", d.Violations[ViolationThroughput])
	}
	if d.LastViolation == nil || d.LastViolation.Stats.TPS != 3 {
		t.Errorf("last violation = %+v, want stats with 3 TPS", d.LastViolation)
	}
	if got := reg.Snapshot().Counter("sla_violations_total", "db", "shop", "kind", ViolationThroughput); got != 1 {
		t.Errorf("sla_violations_total{db=shop,kind=throughput} = %d, want 1", got)
	}
	if got := rep.Violating(); len(got) != 1 || got[0] != "shop" {
		t.Errorf("Violating() = %v, want [shop]", got)
	}
}

func TestMonitorAvailabilityViolation(t *testing.T) {
	m, clk, _ := newTestMonitor(10)
	m.Track("shop", SLA{MaxRejectFraction: 0.25})

	// 1 reject in 2 attempts: fraction 0.5 > 0.25.
	m.ObserveCommit("shop", time.Millisecond)
	m.ObserveReject("shop")
	clk.advance(time.Second)
	d := m.Report().Databases[0]
	if d.Compliant || d.Violations[ViolationAvailability] != 1 {
		t.Errorf("0.5 rejected against a 0.25 bound should violate availability: %+v", d)
	}

	// Aborts are inherent failures, not rejections: they must not count
	// against the availability bound.
	m2, clk2, _ := newTestMonitor(10)
	m2.Track("shop", SLA{MaxRejectFraction: 0.25})
	m2.ObserveCommit("shop", time.Millisecond)
	m2.ObserveAbort("shop")
	m2.ObserveAbort("shop")
	clk2.advance(time.Second)
	if d := m2.Report().Databases[0]; !d.Compliant {
		t.Errorf("aborts alone must not violate availability: %+v", d)
	}
}

func TestMonitorLatencyViolation(t *testing.T) {
	m, clk, _ := newTestMonitor(10)
	m.Track("shop", SLA{MaxMeanLatency: 10 * time.Millisecond})

	m.ObserveCommit("shop", 5*time.Millisecond)
	m.ObserveCommit("shop", 50*time.Millisecond) // mean 27.5ms > 10ms
	clk.advance(time.Second)
	d := m.Report().Databases[0]
	if d.Compliant || d.Violations[ViolationLatency] != 1 {
		t.Errorf("27.5ms mean against a 10ms bound should violate latency: %+v", d)
	}

	// Zero MaxMeanLatency means unconstrained.
	m2, clk2, _ := newTestMonitor(10)
	m2.Track("shop", SLA{})
	m2.ObserveCommit("shop", time.Hour)
	clk2.advance(time.Second)
	if d := m2.Report().Databases[0]; !d.Compliant {
		t.Errorf("zero latency bound must not violate: %+v", d)
	}
}

func TestMonitorIdleWindowsSkipped(t *testing.T) {
	m, clk, _ := newTestMonitor(10)
	m.Track("shop", SLA{MinThroughput: 100})

	// Five windows pass with no offered load at all: min throughput applies
	// to offered load, so nothing violates and nothing is evaluated.
	clk.advance(5 * time.Second)
	d := m.Report().Databases[0]
	if !d.Compliant || d.WindowsEvaluated != 0 {
		t.Errorf("idle windows must be skipped, got %+v", d)
	}
}

func TestMonitorComplianceRecovery(t *testing.T) {
	const span = 4
	m, clk, _ := newTestMonitor(span)
	m.Track("shop", SLA{MinThroughput: 10})

	m.ObserveCommit("shop", time.Millisecond) // 1 TPS: violating window
	clk.advance(time.Second)
	if d := m.Report().Databases[0]; d.Compliant {
		t.Fatal("violating window should make the database non-compliant")
	}

	// The violation ages out once the retained span has passed.
	clk.advance((span + 1) * time.Second)
	if d := m.Report().Databases[0]; !d.Compliant {
		t.Errorf("violation older than the %d-window span should age out: %+v", span, d)
	}
	// History is preserved even after the verdict recovers.
	if d := m.Report().Databases[0]; d.WindowsViolated != 1 {
		t.Errorf("WindowsViolated = %d, want 1", d.WindowsViolated)
	}
}

func TestMonitorSlotRecycling(t *testing.T) {
	// A ring of 3 windows: writing into window 0 and window 3 reuses the
	// same slot; the old window's counts must not leak into the new one.
	m, clk, _ := newTestMonitor(3)
	m.Track("shop", SLA{MinThroughput: 2})

	for i := 0; i < 5; i++ {
		m.ObserveCommit("shop", time.Millisecond) // window 0: 5 TPS, clean
	}
	clk.advance(time.Second)
	if d := m.Report().Databases[0]; d.Compliant != true {
		t.Fatalf("window 0 should be clean: %+v", d)
	}

	clk.advance(2 * time.Second)              // now in window 3 = slot 0 again
	m.ObserveCommit("shop", time.Millisecond) // recycled slot: 1 TPS
	clk.advance(time.Second)
	d := m.Report().Databases[0]
	if d.WindowsEvaluated != 2 {
		t.Errorf("WindowsEvaluated = %d, want 2 (idle windows skipped)", d.WindowsEvaluated)
	}
	if d.Compliant || d.LastViolation == nil || d.LastViolation.Stats.Commits != 1 {
		t.Errorf("recycled slot must start from zero, got %+v", d.LastViolation)
	}
}

func TestMonitorReplicaSources(t *testing.T) {
	m, clk, _ := newTestMonitor(10)
	m.Track("shop", SLA{MinThroughput: 10})
	m.AddReplicaSource(func(db string) ([]string, bool) { return nil, false })
	m.AddReplicaSource(func(db string) ([]string, bool) {
		if db == "shop" {
			return []string{"m2", "m1"}, true
		}
		return nil, false
	})

	m.ObserveCommit("shop", time.Millisecond)
	clk.advance(time.Second)
	d := m.Report().Databases[0]
	if len(d.Machines) != 2 || d.Machines[0] != "m1" || d.Machines[1] != "m2" {
		t.Errorf("violating database should flag its hosting machines sorted, got %v", d.Machines)
	}
}

func TestMonitorUntrackedAndNil(t *testing.T) {
	m, _, _ := newTestMonitor(10)
	// Observations for untracked databases are dropped silently.
	m.ObserveCommit("ghost", time.Millisecond)
	m.ObserveAbort("ghost")
	m.ObserveReject("ghost")
	if rep := m.Report(); len(rep.Databases) != 0 {
		t.Errorf("untracked database must not appear in the report: %+v", rep)
	}

	// A nil monitor is a no-op everywhere, so controllers can call it
	// unconditionally.
	var nilMon *Monitor
	nilMon.Track("shop", SLA{})
	nilMon.ObserveCommit("shop", time.Millisecond)
	nilMon.ObserveAbort("shop")
	nilMon.ObserveReject("shop")
	nilMon.AddReplicaSource(func(string) ([]string, bool) { return nil, false })
	if rep := nilMon.Report(); len(rep.Databases) != 0 {
		t.Errorf("nil monitor report should be empty: %+v", rep)
	}
}

func TestMonitorSnapshotBridge(t *testing.T) {
	m, clk, reg := newTestMonitor(10)
	m.Track("shop", SLA{MinThroughput: 10})
	m.ObserveCommit("shop", time.Millisecond)
	clk.advance(time.Second)

	// A registry snapshot alone must evaluate the closed window and carry
	// both the violation counter and the compliance gauge.
	snap := reg.Snapshot()
	if got := snap.Counter("sla_violations_total", "db", "shop"); got != 1 {
		t.Errorf("snapshot sla_violations_total = %d, want 1", got)
	}
	if got := snap.Gauge("sla_compliance", "db", "shop"); got != 0 {
		t.Errorf("snapshot sla_compliance = %g, want 0", got)
	}
	if got := snap.Gauge("sla_observed_tps", "db", "shop"); got != 1 {
		t.Errorf("snapshot sla_observed_tps = %g, want 1", got)
	}
	if got := snap.Gauge("sla_tracked_databases"); got != 1 {
		t.Errorf("sla_tracked_databases = %g, want 1", got)
	}
	// The violation also lands in the control ring under scope "sla".
	if evs := reg.Control().Select(0, "sla", "shop"); len(evs) == 0 {
		t.Error("violation should emit a control event with the db as correlation ID")
	}
}

func TestComplianceReportWriteText(t *testing.T) {
	m, clk, _ := newTestMonitor(10)
	m.Track("shop", SLA{MinThroughput: 10})
	m.ObserveCommit("shop", time.Millisecond)
	clk.advance(time.Second)

	var b strings.Builder
	m.Report().WriteText(&b)
	out := b.String()
	for _, want := range []string{"shop", "VIOLATING", "last violation"} {
		if !strings.Contains(out, want) {
			t.Errorf("report text missing %q:\n%s", want, out)
		}
	}
}

func TestMonitorConcurrentObserve(t *testing.T) {
	// Race smoke: concurrent observers against a rotating clock plus a
	// reporter. Run under -race via `make vet`.
	m, clk, reg := newTestMonitor(4)
	m.Track("shop", SLA{MinThroughput: 1})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.ObserveCommit("shop", time.Millisecond)
				m.ObserveAbort("shop")
				m.ObserveReject("shop")
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			clk.advance(500 * time.Millisecond)
			m.Report()
			reg.Snapshot()
		}
	}()
	wg.Wait()
}
