package placement

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sdp/internal/sla"
)

func TestFirstFitBasics(t *testing.T) {
	a := NewAllocator(nil)
	d := sla.Database{Name: "db1", Req: sla.Resources{CPU: 0.6, Memory: 0.6, Disk: 0.1, DiskBW: 0.1}, Replicas: 2}
	ms, err := a.Place(d, Arrival)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0] == ms[1] {
		t.Fatalf("placement = %v (replicas must be on distinct machines)", ms)
	}
	// A second database of the same size cannot share (0.6+0.6 > 1): two
	// more machines.
	if _, err := a.Place(sla.Database{Name: "db2", Req: d.Req, Replicas: 2}, Arrival); err != nil {
		t.Fatal(err)
	}
	if n := a.MachineCount(); n != 4 {
		t.Errorf("machines = %d, want 4", n)
	}
	// A small database fits into the slack of existing machines.
	small := sla.Database{Name: "db3", Req: sla.Resources{CPU: 0.1, Memory: 0.1}, Replicas: 2}
	ms, err = a.Place(small, Arrival)
	if err != nil {
		t.Fatal(err)
	}
	if n := a.MachineCount(); n != 4 {
		t.Errorf("machines after small db = %d, want 4 (%v)", n, ms)
	}
}

func TestPlaceDuplicate(t *testing.T) {
	a := NewAllocator(nil)
	d := sla.Database{Name: "x", Req: sla.Resources{CPU: 0.1}, Replicas: 1}
	if _, err := a.Place(d, Arrival); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Place(d, Arrival); err == nil {
		t.Error("duplicate placement succeeded")
	}
}

func TestPlaceOversized(t *testing.T) {
	a := NewAllocator(nil)
	d := sla.Database{Name: "huge", Req: sla.Resources{CPU: 2}, Replicas: 1}
	if _, err := a.Place(d, Arrival); err == nil {
		t.Error("oversized database placed")
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewAllocator(nil)
	for i := 0; i < 40; i++ {
		d := sla.Database{
			Name:     string(rune('a'+i%26)) + string(rune('0'+i/26)),
			Req:      sla.Profile(200+rng.Float64()*800, 0.1+rng.Float64()*9.9),
			Replicas: 2,
		}
		if _, err := a.Place(d, Arrival); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range a.machines {
		if !m.Used.Fits(m.Cap) {
			t.Errorf("machine %s over capacity: %v", m.ID, m.Used)
		}
	}
	// Every database must have its replicas on distinct machines.
	for db, ms := range a.Placement() {
		seen := map[string]bool{}
		for _, m := range ms {
			if seen[m] {
				t.Errorf("%s has two replicas on %s", db, m)
			}
			seen[m] = true
		}
	}
}

func TestOptimalMatchesHandComputedCases(t *testing.T) {
	cap := sla.UnitMachine("m").Cap
	half := sla.Resources{CPU: 0.5, Memory: 0.5, Disk: 0.5, DiskBW: 0.5}
	third := sla.Resources{CPU: 0.34, Memory: 0.34, Disk: 0.34, DiskBW: 0.34}

	// 4 half-machine databases, 1 replica each: exactly 2 machines.
	var dbs []sla.Database
	for i := 0; i < 4; i++ {
		dbs = append(dbs, sla.Database{Name: string(rune('a' + i)), Req: half, Replicas: 1})
	}
	res := Optimal(dbs, cap, 0)
	if !res.Exact || res.Machines != 2 {
		t.Errorf("4 halves: %+v, want 2 exact", res)
	}

	// 3 thirds-sized databases with 2 replicas each: 6 replicas of 0.34
	// → 2 per machine → 3 machines (replicas of one db must be distinct).
	dbs = nil
	for i := 0; i < 3; i++ {
		dbs = append(dbs, sla.Database{Name: string(rune('a' + i)), Req: third, Replicas: 2})
	}
	res = Optimal(dbs, cap, 0)
	if !res.Exact || res.Machines != 3 {
		t.Errorf("3 thirds x2: %+v, want 3 exact", res)
	}

	// Infeasible: database larger than a machine.
	res = Optimal([]sla.Database{{Name: "x", Req: sla.Resources{CPU: 2}, Replicas: 1}}, cap, 0)
	if res.Machines != 0 {
		t.Errorf("infeasible: %+v", res)
	}
}

func TestOptimalNeverWorseThanFirstFit(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 25,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			n := 3 + r.Intn(5)
			dbs := make([]sla.Database, n)
			for i := range dbs {
				dbs[i] = sla.Database{
					Name:     string(rune('a' + i)),
					Req:      sla.Profile(200+r.Float64()*800, 0.1+r.Float64()*9.9),
					Replicas: 1 + r.Intn(2),
				}
			}
			vals[0] = reflect.ValueOf(dbs)
		},
	}
	cap := sla.UnitMachine("m").Cap
	if err := quick.Check(func(dbs []sla.Database) bool {
		ff, _, err := PlaceAll(dbs)
		if err != nil {
			return true
		}
		opt := Optimal(dbs, cap, 500_000)
		return opt.Machines <= ff && opt.Machines >= 1
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestFirstFitDecreasingAndBestFit(t *testing.T) {
	// A workload where plain First-Fit is suboptimal: arrival order
	// small, large, small, large with sizes 0.3/0.7.
	small := sla.Resources{CPU: 0.3, Memory: 0.3, Disk: 0.3, DiskBW: 0.3}
	large := sla.Resources{CPU: 0.7, Memory: 0.7, Disk: 0.7, DiskBW: 0.7}
	dbs := []sla.Database{
		{Name: "s1", Req: small, Replicas: 1},
		{Name: "l1", Req: large, Replicas: 1},
		{Name: "s2", Req: small, Replicas: 1},
		{Name: "l2", Req: large, Replicas: 1},
	}
	ff, _, err := PlaceAll(dbs)
	if err != nil {
		t.Fatal(err)
	}
	ffd, _, err := PlaceAllFirstFitDecreasing(dbs)
	if err != nil {
		t.Fatal(err)
	}
	bf, _, err := PlaceAllBestFit(dbs)
	if err != nil {
		t.Fatal(err)
	}
	if ffd > ff || bf > ff+1 {
		t.Errorf("ff=%d ffd=%d bf=%d", ff, ffd, bf)
	}
	if ffd != 2 {
		t.Errorf("FFD should pack 2 machines, got %d", ffd)
	}
	opt := Optimal(dbs, sla.UnitMachine("m").Cap, 0)
	if opt.Machines != 2 {
		t.Errorf("optimal = %+v, want 2", opt)
	}
}
