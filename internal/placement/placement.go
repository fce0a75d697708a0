// Package placement is the one module that decides where a replica goes.
//
// Pick is the only target selector: every caller describes its live
// machines as []Machine and states an ordering — arrival order for the
// paper's Algorithm 2 (First-Fit), least slack for the Best-Fit ablation,
// coldest for everything that balances load. Database creation, SLA
// placement, recovery, the adaptive controller's grows and migrations and
// the offline Allocator behind Table 2 all go through it, so "does the
// requirement fit the reservation, and is the machine already hosting this
// database" is answered in one place.
//
// On top of the selector sit the adaptive policy — Classify (hot/warm/cold
// against the declared SLA), Budget (the TCDRM-style replica-degree clamp),
// Plan (grow/shrink) and PlanMove (Lion-style skew correction gated by a
// minimum gain), all over one View of the cluster — and the offline
// Allocator and Optimal solver of Table 2.
//
// The package is pure: it imports only internal/sla (the model) and the
// standard library, holds no locks and touches no cluster state, which is
// what makes the selector and the planners testable as plain tables. The
// core package builds the views and executes the decisions through the
// replicated control plane.
package placement

import "sdp/internal/sla"

// Class is a tenant's load classification relative to its declared SLA.
type Class int

// Tenant classes, ordered by provisioning pressure.
const (
	// Cold tenants run compliant with offered load far under their
	// declared throughput floor; their replica degree can shrink toward
	// the budget minimum to free capacity.
	Cold Class = iota
	// Warm tenants are inside their SLA envelope (or have produced no
	// signal yet); the controller leaves them alone.
	Warm
	// Hot tenants are violating their SLA, or running close enough to
	// their declared latency ceiling that a violation is imminent; the
	// controller grows their replica degree toward the budget maximum.
	Hot
)

// String returns the lowercase class name used in metrics labels and
// reports.
func (c Class) String() string {
	switch c {
	case Cold:
		return "cold"
	case Hot:
		return "hot"
	default:
		return "warm"
	}
}

// TenantSignal is one tenant's sampled state: its declared SLA, the SLA
// monitor's verdict, and the most recent completed observation window.
type TenantSignal struct {
	// DB is the database name.
	DB string
	// SLA is the tenant's declared service-level agreement.
	SLA sla.SLA
	// Compliant reports the monitor's verdict over its retained window
	// span (false while any violation remains in the evaluation horizon).
	Compliant bool
	// HasWindow reports whether Window holds a completed observation
	// window. Tenants with no window yet (just created, or the monitor
	// has not rolled a window since tracking began) are never classified
	// hot or cold — there is no evidence to act on.
	HasWindow bool
	// Window is the most recent completed observation window.
	Window sla.WindowStats
	// WindowSeconds is the monitor's window length, used to turn the
	// window's attempt count into an offered-load rate.
	WindowSeconds float64
	// Violation is the monitor's most recent recorded violation (nil if
	// none). Its kinds and window stats let the classifier separate
	// overload (the platform failed offered demand — grow) from a
	// demand-limited throughput miss (the tenant simply offered less
	// than its floor — not a reason to add replicas).
	Violation *sla.Violation
}

// OfferedTPS returns the tenant's offered load — attempts (commits, aborts
// and rejections) per second — in the sampled window. Unlike the committed
// TPS it does not reward the platform for rejecting work, so it is the rate
// the cold classification is judged against.
func (s TenantSignal) OfferedTPS() float64 {
	if !s.HasWindow || s.WindowSeconds <= 0 {
		return 0
	}
	return float64(s.Window.Attempts()) / s.WindowSeconds
}

// overloaded reports whether the tenant's recorded violation indicates
// overload the platform can grow its way out of. With no violation record
// the answer is conservatively true (the monitor flagged non-compliance we
// cannot dissect).
func (s TenantSignal) overloaded() bool {
	v := s.Violation
	if v == nil {
		return true
	}
	throughputOnly := true
	for _, k := range v.Kinds {
		if k != sla.ViolationThroughput {
			throughputOnly = false
		}
	}
	if !throughputOnly {
		return true
	}
	// Throughput-only: overload only if the offered load in the violating
	// window actually reached the declared floor.
	if s.WindowSeconds <= 0 {
		return true
	}
	offered := float64(v.Stats.Attempts()) / s.WindowSeconds
	return offered >= s.SLA.MinThroughput
}

// The classifier's thresholds. Both are fractions of a bound the tenant
// declared, so they need no per-deployment tuning.
const (
	// hotLatencyFraction is the fraction of the declared MaxMeanLatency at
	// which a still-compliant tenant is classified hot: growth starts
	// before the violation, not after.
	hotLatencyFraction = 0.8
	// coldFraction is the fraction of the declared MinThroughput below
	// which a compliant tenant's offered load classifies it cold.
	coldFraction = 0.25
)

// Classify maps one tenant signal to a class:
//
//   - non-compliant with an overload violation (latency, availability, or
//     a throughput miss while offered load was at the declared floor) →
//     Hot,
//   - the last window's mean latency is within hotLatencyFraction of the
//     declared ceiling → Hot (pre-violation growth),
//   - offered load under coldFraction of the declared throughput floor
//     and no latency pressure → Cold,
//   - no completed window yet, or anything else → Warm.
//
// A throughput violation recorded while the tenant offered less than its
// floor is demand-limited — the monitor faithfully reports the missed
// floor, but adding replicas cannot serve demand that was never offered,
// so it does not classify hot (and typically falls through to cold). An
// idle tenant whose SLA declares no throughput floor is Warm, never Cold:
// with no floor declared there is no headroom measure.
func Classify(s TenantSignal) Class {
	if !s.Compliant && s.overloaded() {
		return Hot
	}
	if !s.HasWindow {
		return Warm
	}
	if s.SLA.MaxMeanLatency > 0 {
		pressure := hotLatencyFraction * s.SLA.MaxMeanLatency.Seconds()
		if s.Window.Attempts() > 0 && s.Window.MeanLatencySeconds >= pressure {
			return Hot
		}
	}
	if s.SLA.MinThroughput > 0 && s.OfferedTPS() <= coldFraction*s.SLA.MinThroughput {
		return Cold
	}
	return Warm
}
