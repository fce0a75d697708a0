package placement

import (
	"slices"
	"sort"

	"sdp/internal/sla"
)

// Tenant is one database as the planners see it: its sampled signal plus
// the cluster facts the policy needs.
type Tenant struct {
	// Signal is the tenant's sampled SLA state. A database the monitor
	// does not track carries its name and Compliant, which classifies warm.
	Signal TenantSignal
	// Replicas is the tenant's current replica machine set.
	Replicas []string
	// Copying reports an in-flight Algorithm 1 copy for this tenant; the
	// planners never stack a second change on top of one.
	Copying bool
	// Req is the declared per-replica SLA reservation (zero for databases
	// created without one). A target must have room for Req.
	Req sla.Resources
	// Load is the effective per-replica load skew is judged by: observed
	// where the caller measured it, Req otherwise, a nominal footprint
	// for an unmanaged idle database.
	Load sla.Resources
}

// View is the cluster as one planning round sees it: the live machines in
// arrival order (Load summed from the tenants they host, Hosts unset) and
// every movable database, sorted by name. Plan and PlanMove both read it;
// neither changes it.
type View struct {
	Machines []Machine
	Tenants  []Tenant
}

// Peak returns the highest machine utilisation in the view.
func (v View) Peak() float64 {
	peak := 0.0
	for _, m := range v.Machines {
		peak = max(peak, m.Load.Dominant())
	}
	return peak
}

// ActionKind enumerates the planners' actions.
type ActionKind string

// The action kinds.
const (
	// Grow adds one replica of DB on machine To via an Algorithm 1 copy.
	Grow ActionKind = "grow"
	// Shrink retires DB's replica on machine From.
	Shrink ActionKind = "shrink"
	// Migrate moves DB's replica From→To (copy then retire).
	Migrate ActionKind = "migrate"
)

// Action is one planned change to a database's replica set.
type Action struct {
	// Kind is the action kind.
	Kind ActionKind `json:"kind"`
	// DB is the database acted on.
	DB string `json:"db"`
	// From is the machine losing a replica (shrink, migrate).
	From string `json:"from,omitempty"`
	// To is the machine gaining a replica (grow, migrate).
	To string `json:"to,omitempty"`
	// Reason is a one-line human explanation ("hot: mean latency 9.1ms
	// vs 10ms bound").
	Reason string `json:"reason,omitempty"`
}

// maxActions caps the degree changes one round emits. The loop is
// level-triggered — anything deferred is re-planned next round from fresh
// signals.
const maxActions = 4

// PlanResult is one planning round's output: the actions to execute and
// the class assigned to every tenant (for metrics and the /placementz
// report).
type PlanResult struct {
	// Actions are the planned degree changes, at most four a round.
	Actions []Action
	// Classes maps each tenant to its assigned class.
	Classes map[string]Class
	// Targets maps each tenant to its budget-clamped target degree.
	Targets map[string]int
}

// Plan runs one round of the grow/shrink policy over every tenant. It is
// deterministic: tenants are considered hottest-first (then by name), a
// grow goes to the coldest machine that does not host the tenant and has
// its reservation free (Pick), and a shrink leaves the most utilised
// hosting machine. Tenants with an in-flight copy, no evidence, or a
// degree already at target produce no action.
func Plan(view View, budget Budget) PlanResult {
	res := PlanResult{
		Classes: make(map[string]Class, len(view.Tenants)),
		Targets: make(map[string]int, len(view.Tenants)),
	}
	ordered := append([]Tenant{}, view.Tenants...)
	for _, t := range ordered {
		res.Classes[t.Signal.DB] = Classify(t.Signal)
	}
	sort.SliceStable(ordered, func(i, j int) bool {
		ci, cj := res.Classes[ordered[i].Signal.DB], res.Classes[ordered[j].Signal.DB]
		if ci != cj {
			return ci > cj // hot before warm before cold
		}
		return ordered[i].Signal.DB < ordered[j].Signal.DB
	})

	// A planned grow is charged to its target at once, so one round neither
	// piles every grow onto the same momentarily-coldest machine nor
	// promises one reservation twice.
	machines := append([]Machine{}, view.Machines...)
	for _, t := range ordered {
		db := t.Signal.DB
		class := res.Classes[db]
		target := budget.Target(class, len(t.Replicas))
		res.Targets[db] = target
		if len(res.Actions) >= maxActions || t.Copying {
			continue
		}
		switch {
		case target > len(t.Replicas):
			markHosts(machines, t.Replicas)
			picked, _ := Pick(machines, t.Req, 1, Coldest)
			if len(picked) == 0 {
				continue
			}
			to := &machines[picked[0]]
			to.Used, to.Load, to.DBs = to.Used.Add(t.Req), to.Load.Add(t.Load), to.DBs+1
			res.Actions = append(res.Actions, Action{Kind: Grow, DB: db, To: to.ID, Reason: growReason(t.Signal, class)})
		case target < len(t.Replicas) && len(t.Replicas) > 1:
			from, ok := hottestHosting(machines, t.Replicas)
			if !ok {
				continue
			}
			res.Actions = append(res.Actions, Action{Kind: Shrink, DB: db, From: from, Reason: shrinkReason(t.Signal)})
		}
	}
	return res
}

// hottestHosting picks the most utilised live machine out of the tenant's
// replica set, the earliest on a tie.
func hottestHosting(machines []Machine, replicas []string) (string, bool) {
	best, bestUtil := "", -1.0
	for _, m := range machines {
		if u := m.Load.Dominant(); slices.Contains(replicas, m.ID) && u > bestUtil {
			best, bestUtil = m.ID, u
		}
	}
	return best, best != ""
}

// PlanMove finds a migration that corrects load skew: take the most
// utilised machine and, for its databases in view order, the coldest machine
// that can take a replica (Pick); the first such move under which the
// cluster's peak utilisation strictly drops is returned. minGain is the
// relative peak reduction a move must achieve — Lion's cost of a move, as a
// clamp: every migration is an Algorithm 1 copy that costs real latency, so
// a caller planning over noisy observed loads passes a margin and replicas
// do not ping-pong between near-equal machines; zero accepts any strict
// improvement.
func PlanMove(view View, minGain float64) (Action, bool) {
	machines := append([]Machine{}, view.Machines...)
	hot, peak := -1, -1.0
	for i, m := range machines {
		if u := m.Load.Dominant(); u > peak {
			hot, peak = i, u
		}
	}
	if hot < 0 {
		return Action{}, false
	}
	from := machines[hot]
	for _, t := range view.Tenants {
		if t.Copying || !slices.Contains(t.Replicas, from.ID) {
			continue
		}
		markHosts(machines, t.Replicas)
		picked, _ := Pick(machines, t.Req, 1, Coldest)
		if len(picked) == 0 {
			continue
		}
		to := machines[picked[0]]
		after := max(from.Load.Sub(t.Load).Dominant(), to.Load.Add(t.Load).Dominant())
		if after+1e-9 < peak*(1-minGain) {
			return Action{Kind: Migrate, DB: t.Signal.DB, From: from.ID, To: to.ID}, true
		}
	}
	return Action{}, false
}

func growReason(s TenantSignal, class Class) string {
	if !s.Compliant {
		return "hot: SLA violating"
	}
	if class == Hot && s.SLA.MaxMeanLatency > 0 {
		return "hot: latency near declared ceiling"
	}
	return "under replica floor"
}

func shrinkReason(s TenantSignal) string {
	if s.SLA.MinThroughput > 0 {
		return "cold: offered load far under declared floor"
	}
	return "over replica budget"
}
