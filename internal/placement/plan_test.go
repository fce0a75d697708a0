package placement

import (
	"testing"
	"time"

	"sdp/internal/sla"
)

var unit = sla.UnitMachine("").Cap

// machines3 is a three-machine view with m1 hot and m3 cold, every
// reservation free.
func machines3() []Machine {
	return []Machine{
		{ID: "m1", Cap: unit, Load: sla.Resources{CPU: 0.9}},
		{ID: "m2", Cap: unit, Load: sla.Resources{CPU: 0.5}},
		{ID: "m3", Cap: unit, Load: sla.Resources{CPU: 0.1}},
	}
}

func TestPlanGrowShrink(t *testing.T) {
	decl := sla.SLA{MinThroughput: 100, MaxRejectFraction: 0.1}
	hotSig := TenantSignal{DB: "hotdb", SLA: decl, Compliant: false, HasWindow: true, Window: window(200, 0, 0, time.Millisecond), WindowSeconds: 1}
	coldSig := TenantSignal{DB: "colddb", SLA: decl, Compliant: true, HasWindow: true, Window: window(2, 0, 0, time.Millisecond), WindowSeconds: 1}
	warmSig := TenantSignal{DB: "warmdb", SLA: decl, Compliant: true, HasWindow: true, Window: window(60, 0, 0, time.Millisecond), WindowSeconds: 1}
	plan := func(b Budget, ts ...Tenant) PlanResult {
		return Plan(View{Machines: machines3(), Tenants: ts}, b)
	}

	t.Run("hot grows onto coldest non-hosting machine", func(t *testing.T) {
		res := plan(Budget{}, Tenant{Signal: hotSig, Replicas: []string{"m1", "m2"}})
		if len(res.Actions) != 1 || res.Actions[0].Kind != Grow || res.Actions[0].To != "m3" {
			t.Fatalf("actions = %+v, want one grow onto m3", res.Actions)
		}
		if res.Classes["hotdb"] != Hot || res.Targets["hotdb"] != 3 {
			t.Fatalf("class=%v target=%d, want Hot/3", res.Classes["hotdb"], res.Targets["hotdb"])
		}
	})

	t.Run("cold shrinks off hottest hosting machine", func(t *testing.T) {
		res := plan(Budget{}, Tenant{Signal: coldSig, Replicas: []string{"m1", "m2", "m3"}})
		if len(res.Actions) != 1 || res.Actions[0].Kind != Shrink || res.Actions[0].From != "m1" {
			t.Fatalf("actions = %+v, want one shrink off m1", res.Actions)
		}
	})

	t.Run("balanced warm load plans nothing", func(t *testing.T) {
		res := plan(Budget{}, Tenant{Signal: warmSig, Replicas: []string{"m1", "m2"}})
		if len(res.Actions) != 0 {
			t.Fatalf("actions = %+v, want none", res.Actions)
		}
	})

	t.Run("in-flight copy suppresses new actions", func(t *testing.T) {
		res := plan(Budget{}, Tenant{Signal: hotSig, Replicas: []string{"m1", "m2"}, Copying: true})
		if len(res.Actions) != 0 {
			t.Fatalf("actions = %+v, want none while copying", res.Actions)
		}
	})

	t.Run("at-budget hot tenant plans nothing", func(t *testing.T) {
		res := plan(Budget{MinReplicas: 2, MaxReplicas: 3}, Tenant{Signal: hotSig, Replicas: []string{"m1", "m2", "m3"}})
		if len(res.Actions) != 0 {
			t.Fatalf("actions = %+v, want none at budget", res.Actions)
		}
	})

	t.Run("last replica never shrinks", func(t *testing.T) {
		// The floor already forbids this, so force the pathological config:
		// a floor of one.
		res := plan(Budget{MinReplicas: 1, MaxReplicas: 3}, Tenant{Signal: coldSig, Replicas: []string{"m1"}})
		if len(res.Actions) != 0 {
			t.Fatalf("actions = %+v, want none for single-replica tenant", res.Actions)
		}
	})

	t.Run("the round's action cap is spent hottest-first", func(t *testing.T) {
		ts := []Tenant{{Signal: coldSig, Replicas: []string{"m1", "m2", "m3"}}}
		ts[0].Signal.DB = "a-cold"
		for _, name := range []string{"f-hot", "e-hot", "d-hot", "c-hot", "b-hot"} {
			sig := hotSig
			sig.DB = name
			ts = append(ts, Tenant{Signal: sig, Replicas: []string{"m1", "m2"}})
		}
		res := plan(Budget{}, ts...)
		if len(res.Actions) != maxActions {
			t.Fatalf("actions = %+v, want exactly %d", res.Actions, maxActions)
		}
		for i, want := range []string{"b-hot", "c-hot", "d-hot", "e-hot"} {
			if a := res.Actions[i]; a.Kind != Grow || a.DB != want {
				t.Fatalf("action %d = %+v, want a grow of %s (hot tenants first, by name)", i, a, want)
			}
		}
		if len(res.Targets) != len(ts) {
			t.Fatalf("targets = %v, want one per tenant even past the cap", res.Targets)
		}
	})

	t.Run("grow without a free machine is a no-op", func(t *testing.T) {
		res := plan(Budget{MinReplicas: 2, MaxReplicas: 4}, Tenant{Signal: hotSig, Replicas: []string{"m1", "m2", "m3"}})
		if len(res.Actions) != 0 {
			t.Fatalf("actions = %+v, want none when every machine hosts the tenant", res.Actions)
		}
	})
}

// TestPlanGrowRespectsReservations: a grow target must have the tenant's
// declared reservation free. Choosing by load alone sent the grow to a
// machine whose copy then failed with ErrNoCapacity, every round, for ever.
func TestPlanGrowRespectsReservations(t *testing.T) {
	hotSig := TenantSignal{DB: "hotdb", SLA: sla.SLA{MinThroughput: 100}, HasWindow: true, Window: window(200, 0, 0, time.Millisecond), WindowSeconds: 1}
	req := sla.Resources{Memory: 0.5}
	tenant := Tenant{Signal: hotSig, Replicas: []string{"m1"}, Req: req, Load: sla.Resources{CPU: 0.2}}
	full := sla.Resources{CPU: 1, Memory: 0.25, Disk: 1, DiskBW: 1}
	cases := []struct {
		name           string
		m2, m3, m4     sla.Resources // capacity not yet reserved; loads rise m4 < m3 < m2
		wantTo         string
		wantNoneAtAll  bool
		secondTenantTo string // where an identical second hot tenant lands in the same round
	}{
		{name: "coldest fits", m2: unit, m3: unit, m4: unit, wantTo: "m4", secondTenantTo: "m4"},
		{name: "coldest is reservation-full, next coldest fits", m2: unit, m3: unit, m4: full, wantTo: "m3", secondTenantTo: "m2"}, // m3 charged with the first grow ties m2 on load and hosts more
		{name: "only the hottest candidate fits", m2: unit, m3: full, m4: full, wantTo: "m2", secondTenantTo: "m2"},
		{name: "nothing fits", m2: full, m3: full, m4: full, wantNoneAtAll: true},
		{name: "one round does not promise a reservation twice", m2: full, m3: full, m4: sla.Resources{CPU: 1, Memory: 0.75, Disk: 1, DiskBW: 1}, wantTo: "m4", secondTenantTo: ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			second := tenant
			second.Signal.DB = "hotdb2"
			view := View{
				Machines: []Machine{
					{ID: "m1", Cap: unit, Load: sla.Resources{CPU: 0.9}},
					{ID: "m2", Cap: unit, Used: unit.Sub(tc.m2), Load: sla.Resources{CPU: 0.5}},
					{ID: "m3", Cap: unit, Used: unit.Sub(tc.m3), Load: sla.Resources{CPU: 0.3}},
					{ID: "m4", Cap: unit, Used: unit.Sub(tc.m4), Load: sla.Resources{CPU: 0.05}},
				},
				Tenants: []Tenant{tenant, second},
			}
			res := Plan(view, Budget{MinReplicas: 1, MaxReplicas: 2})
			to := map[string]string{}
			for _, a := range res.Actions {
				if a.Kind != Grow {
					t.Fatalf("unexpected action %+v", a)
				}
				to[a.DB] = a.To
			}
			if tc.wantNoneAtAll {
				if len(res.Actions) != 0 {
					t.Fatalf("actions = %+v, want none", res.Actions)
				}
				return
			}
			if to["hotdb"] != tc.wantTo || to["hotdb2"] != tc.secondTenantTo {
				t.Fatalf("grows = %v, want hotdb→%q hotdb2→%q", to, tc.wantTo, tc.secondTenantTo)
			}
		})
	}
}

func TestPlanMove(t *testing.T) {
	load := func(cpu float64) sla.Resources { return sla.Resources{CPU: cpu} }
	db := func(name string, cpu float64, replicas ...string) Tenant {
		return Tenant{Signal: TenantSignal{DB: name}, Replicas: replicas, Load: load(cpu)}
	}
	cases := []struct {
		name     string
		machines []Machine
		tenants  []Tenant
		minGain  float64
		want     Action
		wantNone bool
	}{
		{
			name:     "moves a replica off the peak onto the coldest machine",
			machines: []Machine{{ID: "m1", Cap: unit, Load: load(0.8)}, {ID: "m2", Cap: unit, Load: load(0.4)}, {ID: "m3", Cap: unit, Load: load(0.1)}},
			tenants:  []Tenant{db("a", 0.4, "m1"), db("b", 0.4, "m1"), db("c", 0.4, "m2"), db("d", 0.1, "m3")},
			want:     Action{Kind: Migrate, DB: "a", From: "m1", To: "m3"},
		},
		{
			name:     "a move that only swaps the peak is not an improvement",
			machines: []Machine{{ID: "m1", Cap: unit, Load: load(0.8)}, {ID: "m2", Cap: unit, Load: load(0.0)}},
			tenants:  []Tenant{db("a", 0.8, "m1")},
			wantNone: true,
		},
		{
			name:     "an equal peak is not a strict improvement",
			machines: []Machine{{ID: "m1", Cap: unit, Load: load(0.6)}, {ID: "m2", Cap: unit, Load: load(0.3)}},
			tenants:  []Tenant{db("a", 0.3, "m1"), db("b", 0.3, "m1"), db("c", 0.3, "m2")},
			wantNone: true,
		},
		{
			name:     "a later tenant is tried when the first one's move does not help",
			machines: []Machine{{ID: "m1", Cap: unit, Load: load(0.9)}, {ID: "m2", Cap: unit, Load: load(0.2)}},
			tenants:  []Tenant{db("big", 0.7, "m1"), db("small", 0.2, "m1"), db("other", 0.2, "m2")},
			want:     Action{Kind: Migrate, DB: "small", From: "m1", To: "m2"},
		},
		{
			name:     "minGain rejects a gain below the margin",
			machines: []Machine{{ID: "m1", Cap: unit, Load: load(0.50)}, {ID: "m2", Cap: unit, Load: load(0.40)}},
			tenants:  []Tenant{db("a", 0.05, "m1"), db("b", 0.45, "m1"), db("c", 0.40, "m2")},
			minGain:  0.25, // 0.50 → 0.45 is a 10% cut
			wantNone: true,
		},
		{
			name:     "minGain accepts a gain above the margin",
			machines: []Machine{{ID: "m1", Cap: unit, Load: load(0.8)}, {ID: "m2", Cap: unit, Load: load(0.1)}},
			tenants:  []Tenant{db("a", 0.4, "m1"), db("b", 0.4, "m1"), db("c", 0.1, "m2")},
			minGain:  0.25, // 0.8 → 0.5
			want:     Action{Kind: Migrate, DB: "a", From: "m1", To: "m2"},
		},
		{
			name: "a reservation-full target is skipped for the next coldest",
			machines: []Machine{
				{ID: "m1", Cap: unit, Load: load(0.8)},
				{ID: "m2", Cap: unit, Used: sla.Resources{Memory: 0.9}, Load: load(0.0)},
				{ID: "m3", Cap: unit, Load: load(0.2)},
			},
			tenants: []Tenant{
				{Signal: TenantSignal{DB: "a"}, Replicas: []string{"m1"}, Req: sla.Resources{Memory: 0.3}, Load: load(0.4)},
				db("b", 0.4, "m1"), db("c", 0.2, "m3"),
			},
			want: Action{Kind: Migrate, DB: "a", From: "m1", To: "m3"},
		},
		{
			name:     "a database with a copy in flight is not moved",
			machines: []Machine{{ID: "m1", Cap: unit, Load: load(0.8)}, {ID: "m2", Cap: unit, Load: load(0.0)}},
			tenants:  []Tenant{{Signal: TenantSignal{DB: "a"}, Replicas: []string{"m1"}, Load: load(0.4), Copying: true}, db("b", 0.4, "m1")},
			want:     Action{Kind: Migrate, DB: "b", From: "m1", To: "m2"},
		},
		{
			name:     "a machine already hosting the database is not a target",
			machines: []Machine{{ID: "m1", Cap: unit, Load: load(0.8)}, {ID: "m2", Cap: unit, Load: load(0.1)}, {ID: "m3", Cap: unit, Load: load(0.3)}},
			tenants:  []Tenant{db("a", 0.1, "m1", "m2"), db("b", 0.7, "m1"), db("c", 0.3, "m3")},
			want:     Action{Kind: Migrate, DB: "a", From: "m1", To: "m3"},
		},
		{name: "no machines", wantNone: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			view := View{Machines: tc.machines, Tenants: tc.tenants}
			before := append([]Machine{}, tc.machines...)
			got, ok := PlanMove(view, tc.minGain)
			if ok == tc.wantNone || got != tc.want {
				t.Fatalf("PlanMove = %+v, %v; want %+v, %v", got, ok, tc.want, !tc.wantNone)
			}
			for i := range before {
				if before[i] != tc.machines[i] {
					t.Fatalf("PlanMove changed the caller's view: %+v → %+v", before[i], tc.machines[i])
				}
			}
		})
	}
}
