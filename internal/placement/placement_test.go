package placement

import (
	"testing"
	"time"

	"sdp/internal/sla"
)

// window builds a WindowStats for tests from offered attempts, committed
// count and mean latency, over a 1-second window.
func window(commits, aborts, rejects uint64, meanLatency time.Duration) sla.WindowStats {
	total := commits + aborts + rejects
	var frac float64
	if total > 0 {
		frac = float64(rejects) / float64(total)
	}
	return sla.WindowStats{
		Commits:            commits,
		Aborts:             aborts,
		Rejects:            rejects,
		TPS:                float64(commits),
		RejectFraction:     frac,
		MeanLatencySeconds: meanLatency.Seconds(),
	}
}

func TestClassify(t *testing.T) {
	decl := sla.SLA{MinThroughput: 100, MaxRejectFraction: 0.1, MaxMeanLatency: 10 * time.Millisecond}
	cases := []struct {
		name string
		sig  TenantSignal
		want Class
	}{
		{
			// A violation the classifier cannot dissect (no record) is
			// conservatively overload: hot.
			name: "violating without a record is hot",
			sig:  TenantSignal{DB: "a", SLA: decl, Compliant: false, HasWindow: true, Window: window(80, 0, 0, time.Millisecond), WindowSeconds: 1},
			want: Hot,
		},
		{
			// A latency violation is overload whatever the offered load.
			name: "latency violation is hot",
			sig: TenantSignal{DB: "a", SLA: decl, Compliant: false, HasWindow: true,
				Window:    window(80, 0, 0, 20*time.Millisecond),
				Violation: &sla.Violation{Kinds: []string{sla.ViolationLatency}, Stats: window(80, 0, 0, 20*time.Millisecond)}, WindowSeconds: 1},
			want: Hot,
		},
		{
			// A throughput miss while demand met the floor: the platform
			// failed to serve offered work — overload, hot.
			name: "throughput violation at offered floor is hot",
			sig: TenantSignal{DB: "a", SLA: decl, Compliant: false, HasWindow: true,
				Window:    window(60, 20, 40, time.Millisecond),
				Violation: &sla.Violation{Kinds: []string{sla.ViolationThroughput}, Stats: window(60, 20, 40, time.Millisecond)}, WindowSeconds: 1},
			want: Hot,
		},
		{
			// A throughput miss because the tenant offered almost nothing:
			// demand-limited, not overload — and with offered load far
			// under the floor it classifies cold, not hot.
			name: "demand-limited throughput violation is cold",
			sig: TenantSignal{DB: "a", SLA: decl, Compliant: false, HasWindow: true,
				Window:    window(5, 0, 0, time.Millisecond),
				Violation: &sla.Violation{Kinds: []string{sla.ViolationThroughput}, Stats: window(5, 0, 0, time.Millisecond)}, WindowSeconds: 1},
			want: Cold,
		},
		{
			// Edge case from the issue: a freshly tracked tenant has no
			// completed window — no evidence, no action. Warm even though
			// its offered load (zero) is below the cold threshold.
			name: "empty window is warm, never cold",
			sig:  TenantSignal{DB: "a", SLA: decl, Compliant: true, HasWindow: false},
			want: Warm,
		},
		{
			// Tenant churn mid-window: the tenant was re-tracked, the
			// monitor reset its history, and the only completed window is
			// idle (zero attempts). Idle windows are never violations, but
			// with a declared throughput floor and a compliant verdict an
			// offered load of 0 is legitimate cold evidence.
			name: "idle window with declared floor is cold",
			sig:  TenantSignal{DB: "a", SLA: decl, Compliant: true, HasWindow: true, Window: window(0, 0, 0, 0), WindowSeconds: 1},
			want: Cold,
		},
		{
			// Without a declared throughput floor there is no headroom
			// measure: an idle tenant stays warm.
			name: "idle window without floor is warm",
			sig: TenantSignal{DB: "a", SLA: sla.SLA{MaxMeanLatency: 10 * time.Millisecond},
				Compliant: true, HasWindow: true, Window: window(0, 0, 0, 0), WindowSeconds: 1},
			want: Warm,
		},
		{
			// Latency pressure: compliant, but the last window's mean is
			// at 90% of the declared ceiling — grow before the violation.
			name: "latency near ceiling is hot",
			sig:  TenantSignal{DB: "a", SLA: decl, Compliant: true, HasWindow: true, Window: window(200, 0, 0, 9*time.Millisecond), WindowSeconds: 1},
			want: Hot,
		},
		{
			// An idle window cannot trip latency pressure: with zero
			// attempts the mean is meaningless.
			name: "idle window never trips latency pressure",
			sig: TenantSignal{DB: "a", SLA: sla.SLA{MaxMeanLatency: time.Nanosecond},
				Compliant: true, HasWindow: true, Window: window(0, 0, 0, 0), WindowSeconds: 1},
			want: Warm,
		},
		{
			name: "healthy mid-range load is warm",
			sig:  TenantSignal{DB: "a", SLA: decl, Compliant: true, HasWindow: true, Window: window(60, 0, 0, time.Millisecond), WindowSeconds: 1},
			want: Warm,
		},
		{
			name: "offered load under cold fraction is cold",
			sig:  TenantSignal{DB: "a", SLA: decl, Compliant: true, HasWindow: true, Window: window(10, 0, 0, time.Millisecond), WindowSeconds: 1},
			want: Cold,
		},
		{
			// Offered load counts rejects and aborts: a tenant whose work
			// is being rejected is not cold even if commits are few.
			name: "rejected load still counts as offered",
			sig:  TenantSignal{DB: "a", SLA: decl, Compliant: true, HasWindow: true, Window: window(10, 0, 60, time.Millisecond), WindowSeconds: 1},
			want: Warm,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Classify(tc.sig); got != tc.want {
				t.Fatalf("Classify = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestBudgetTargetAndClamp(t *testing.T) {
	cases := []struct {
		name    string
		b       Budget
		class   Class
		current int
		want    int
	}{
		{name: "hot grows by one", b: Budget{MinReplicas: 2, MaxReplicas: 4}, class: Hot, current: 2, want: 3},
		{name: "hot at budget stays clamped", b: Budget{MinReplicas: 2, MaxReplicas: 3}, class: Hot, current: 3, want: 3},
		{name: "cold shrinks by one", b: Budget{MinReplicas: 2, MaxReplicas: 4}, class: Cold, current: 4, want: 3},
		{name: "cold at floor stays clamped", b: Budget{MinReplicas: 2, MaxReplicas: 4}, class: Cold, current: 2, want: 2},
		{name: "warm holds", b: Budget{MinReplicas: 2, MaxReplicas: 4}, class: Warm, current: 3, want: 3},
		{name: "warm under floor repairs upward", b: Budget{MinReplicas: 2, MaxReplicas: 4}, class: Warm, current: 1, want: 2},
		{name: "warm over budget repairs downward", b: Budget{MinReplicas: 2, MaxReplicas: 3}, class: Warm, current: 5, want: 3},
		{name: "zero value defaults to min 2 max 3", b: Budget{}, class: Hot, current: 3, want: 3},
		{name: "max below min clamps to min", b: Budget{MinReplicas: 3, MaxReplicas: 1}, class: Hot, current: 3, want: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.b.Target(tc.class, tc.current); got != tc.want {
				t.Fatalf("Target = %d, want %d", got, tc.want)
			}
		})
	}
}
