package placement

import (
	"fmt"
	"math/rand"
	"testing"

	"sdp/internal/sla"
)

// TestPickProperties checks, for all three orderings over random machine
// sets, what every caller relies on: a picked machine never hosts the
// database, always fits the requirement, appears once, and the result is as
// long as the fitting machines allow, in the ordering's preference.
func TestPickProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	vec := func(scale float64) sla.Resources {
		return sla.Resources{CPU: rng.Float64() * scale, Memory: rng.Float64() * scale, Disk: rng.Float64() * scale, DiskBW: rng.Float64() * scale}
	}
	for round := 0; round < 2000; round++ {
		machines := make([]Machine, rng.Intn(9))
		for i := range machines {
			machines[i] = Machine{ID: fmt.Sprintf("m%d", i+1), Cap: unit, Used: vec(1), DBs: rng.Intn(4), Hosts: rng.Intn(4) == 0}
			if rng.Intn(2) == 0 { // half the rounds' machines carry a load signal, with ties
				machines[i].Load = sla.Resources{CPU: float64(rng.Intn(3)) / 4}
			}
		}
		req := vec(0.6)
		n := rng.Intn(4)
		eligible := 0
		for _, m := range machines {
			if !m.Hosts && m.Used.Add(req).Fits(m.Cap) {
				eligible++
			}
		}
		for _, order := range []Order{Arrival, LeastSlack, Coldest} {
			picked, probes := Pick(machines, req, n, order)
			if want := min(n, eligible); len(picked) != want {
				t.Fatalf("round %d order %d: picked %d machines, want %d", round, order, len(picked), want)
			}
			if probes > len(machines) {
				t.Fatalf("round %d order %d: %d probes over %d machines", round, order, probes, len(machines))
			}
			seen := map[int]bool{}
			for k, i := range picked {
				m := machines[i]
				if m.Hosts || !m.Used.Add(req).Fits(m.Cap) || seen[i] {
					t.Fatalf("round %d order %d: picked %+v (hosting, unfit or duplicate) for %v", round, order, m, req)
				}
				seen[i] = true
				if k == 0 {
					continue
				}
				prev := machines[picked[k-1]]
				var inOrder bool
				switch order {
				case Arrival:
					inOrder = picked[k-1] < i
				case LeastSlack:
					inOrder = prev.Cap.Sub(prev.Used).Sub(req).Dominant() <= m.Cap.Sub(m.Used).Sub(req).Dominant()
				case Coldest:
					pu, mu := prev.Load.Dominant(), m.Load.Dominant()
					inOrder = pu < mu || pu == mu && (prev.DBs < m.DBs || prev.DBs == m.DBs && picked[k-1] < i)
				}
				if !inOrder {
					t.Fatalf("round %d order %d: %+v preferred over %+v", round, order, prev, m)
				}
			}
			// Nothing better was left behind: every unpicked eligible machine
			// ranks no higher than the last pick.
			if order == Coldest && len(picked) > 0 {
				last := machines[picked[len(picked)-1]]
				for i, m := range machines {
					if seen[i] || m.Hosts || !m.Used.Add(req).Fits(m.Cap) {
						continue
					}
					if mu, lu := m.Load.Dominant(), last.Load.Dominant(); mu < lu || mu == lu && m.DBs < last.DBs {
						t.Fatalf("round %d: coldest left %+v behind %+v", round, m, last)
					}
				}
			}
		}
	}
}

// TestPickArrivalProbes pins Algorithm 2's cost measure: First-Fit stops
// examining at the n-th fit, skips hosting machines without examining them,
// and examines everything when it comes up short.
func TestPickArrivalProbes(t *testing.T) {
	half := sla.Resources{CPU: 0.5, Memory: 0.5, Disk: 0.5, DiskBW: 0.5}
	machines := []Machine{
		{ID: "m1", Cap: unit, Used: unit},
		{ID: "m2", Cap: unit, Hosts: true},
		{ID: "m3", Cap: unit},
		{ID: "m4", Cap: unit},
		{ID: "m5", Cap: unit},
	}
	for _, tc := range []struct{ n, wantPicked, wantProbes int }{{1, 1, 2}, {2, 2, 3}, {3, 3, 4}, {4, 3, 4}} {
		picked, probes := Pick(machines, half, tc.n, Arrival)
		if len(picked) != tc.wantPicked || probes != tc.wantProbes {
			t.Errorf("n=%d: picked %v with %d probes, want %d machines and %d probes", tc.n, picked, probes, tc.wantPicked, tc.wantProbes)
		}
	}
	if _, probes := Pick(machines, half, 1, LeastSlack); probes != 4 {
		t.Errorf("Best-Fit examined %d machines, want all 4 non-hosting ones", probes)
	}
}

// TestPickAgreesWithReservation: the fit test is the sum a machine's own
// check-and-add makes. Five replicas of 0.2 CPU fill a unit machine
// (0.8+0.2 <= 1) although the free capacity after four, 1-0.8, is less than
// 0.2 in floating point; a selector working on free capacity would send the
// fifth elsewhere and disagree with the reservation it proposes for.
func TestPickAgreesWithReservation(t *testing.T) {
	req := sla.Resources{CPU: 0.2, Memory: 0.1, Disk: 0.02, DiskBW: 0.05}
	m := Machine{ID: "m1", Cap: unit}
	for placed := 0; placed < 5; placed++ {
		if picked, _ := Pick([]Machine{m}, req, 1, Arrival); len(picked) != 1 {
			t.Fatalf("replica %d of five does not fit: used %v", placed+1, m.Used)
		}
		m.Used = m.Used.Add(req)
	}
	if picked, _ := Pick([]Machine{m}, req, 1, Arrival); len(picked) != 0 {
		t.Fatalf("a sixth replica fits a machine reserving %v", m.Used)
	}
}
