package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"sdp/internal/placement"
	"sdp/internal/sla"
)

// TestDropDatabaseReleasesReservations: a dropped database gives its SLA
// reservation back on every host, so a cluster that creates and drops
// SLA-placed databases does not end up refusing placements on empty
// machines.
func TestDropDatabaseReleasesReservations(t *testing.T) {
	c := NewCluster("drop", Options{Replicas: 2})
	if _, err := c.AddMachines(2); err != nil {
		t.Fatal(err)
	}
	quarter := sla.Resources{CPU: 0.25, Memory: 0.25, Disk: 0.25, DiskBW: 0.25}
	fill := func() {
		t.Helper()
		for i := 0; i < 4; i++ {
			if _, err := c.PlaceWithSLA(fmt.Sprintf("db%d", i), quarter, 2); err != nil {
				t.Fatalf("db%d: %v", i, err)
			}
		}
		if _, err := c.PlaceWithSLA("overflow", quarter, 2); !errors.Is(err, ErrNoCapacity) {
			t.Fatalf("placement on a full cluster: err = %v, want ErrNoCapacity", err)
		}
	}
	fill()
	for _, tenant := range c.placementView(nil).Tenants {
		if err := c.DropDatabase(tenant.Signal.DB); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range c.MachineIDs() {
		m, _ := c.Machine(id)
		if used := m.Used(); used != (sla.Resources{}) {
			t.Errorf("%s still reserves %v with no database left", id, used)
		}
	}
	fill()
}

// TestFirstFitsAreOne places the same database sequence online, through
// PlaceWithSLA, and offline, through the Allocator behind Table 2, over the
// same unit machines: both are Pick in arrival order, so they must choose
// the same machines. Where the offline allocator
// mints a machine, the online placement must first refuse with
// ErrNoCapacity — the signal the colo controller adds machines on.
func TestFirstFitsAreOne(t *testing.T) {
	const seedMachines = 4
	c := NewCluster("diff", Options{Replicas: 2})
	ids, err := c.AddMachines(seedMachines)
	if err != nil {
		t.Fatal(err)
	}
	var seed []sla.Machine
	for _, id := range ids {
		seed = append(seed, sla.UnitMachine(id))
	}
	offline := placement.NewAllocator(seed)

	rng := rand.New(rand.NewSource(16))
	minted := 0
	for i := 0; i < 40; i++ {
		d := sla.Database{
			Name:     fmt.Sprintf("db%d", i),
			Req:      sla.Profile(200+rng.Float64()*800, 0.1+rng.Float64()*9.9),
			Replicas: 1 + rng.Intn(3),
		}
		want, err := offline.Place(d, placement.Arrival)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.PlaceWithSLA(d.Name, d.Req, d.Replicas)
		if grow := mintedBy(want, len(c.MachineIDs())); grow > 0 {
			if !errors.Is(err, ErrNoCapacity) {
				t.Fatalf("%s: offline minted %d machines, online err = %v, want ErrNoCapacity", d.Name, grow, err)
			}
			minted += grow
			if _, err := c.AddMachines(grow); err != nil {
				t.Fatal(err)
			}
			got, err = c.PlaceWithSLA(d.Name, d.Req, d.Replicas)
		}
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: online placed on %v, offline on %v", d.Name, got, want)
		}
	}
	if minted == 0 {
		t.Fatal("the sequence never outgrew the seed machines; the mint path went untested")
	}
	if got, want := offline.MachineCount(), len(c.MachineIDs()); got != want {
		t.Fatalf("offline used %d machines, online %d", got, want)
	}
}

// mintedBy counts the machines in names beyond the first have machines
// (m1..m<have>): the ones the offline allocator took from the free pool.
func mintedBy(names []string, have int) int {
	n := 0
	for _, name := range names {
		var idx int
		if _, err := fmt.Sscanf(name, "m%d", &idx); err == nil && idx > have {
			n++
		}
	}
	return n
}

// TestReserveLosesRaceAndRepicks: the selector only proposes; the
// reservation is check-and-add under the machine mutex. A placement whose
// view went stale — another placement filled m1 and half of m3 after it was
// read — must move on to machines that still have room, not oversubscribe
// and not fail while the cluster has room.
func TestReserveLosesRaceAndRepicks(t *testing.T) {
	c := NewCluster("stale", Options{Replicas: 2})
	if _, err := c.AddMachines(4); err != nil {
		t.Fatal(err)
	}
	half := sla.Resources{CPU: 0.5, Memory: 0.5, Disk: 0.5, DiskBW: 0.5}
	c.mu.Lock()
	view, ms := c.liveMachinesLocked(nil)
	c.mu.Unlock()
	// The race: between the view and the reservation, others take all of m1
	// and leave m3 with less than half.
	for _, won := range []struct {
		m   *Machine
		req sla.Resources
	}{{ms[0], half}, {ms[0], half}, {ms[2], half}, {ms[2], half.Scale(0.5)}} {
		if !won.m.reserve(won.req) {
			t.Fatal("set-up reservation refused")
		}
	}
	// Three replicas: the stale view promises m1, m2, m3, but only m2 and m4
	// still have room, so the placement must fail holding nothing.
	if reserved := c.reserveFirstFit(view, ms, half, 3); reserved != nil {
		t.Fatalf("reserved three replicas on %d machines with room on two", len(reserved))
	}
	for i, want := range []float64{1, 0, 0.75, 0} {
		if used := ms[i].Used().CPU; used != want {
			t.Errorf("%s reserves %v after a failed placement, want %v (leaked or oversubscribed)", ms[i].id, used, want)
		}
	}

	c.mu.Lock()
	view, _ = c.liveMachinesLocked(nil)
	c.mu.Unlock()
	view[0].Used, view[2].Used = sla.Resources{}, sla.Resources{} // stale again
	// Two replicas: m1 and m3 refuse, the re-pick lands on m2 and m4.
	reserved := c.reserveFirstFit(view, ms, half, 2)
	if len(reserved) != 2 || reserved[0].id != "m2" || reserved[1].id != "m4" {
		t.Fatalf("reserved on %v, want m2 and m4 (m1 and m3 lost the race)", reserved)
	}
	for i, want := range []float64{1, 0.5, 0.75, 0.5} {
		if used := ms[i].Used().CPU; used != want {
			t.Errorf("%s reserves %v, want %v", ms[i].id, used, want)
		}
	}
}

// TestPlaceWithSLAConcurrent runs twenty-four First-Fit placements at once
// on a cluster with room for all of them: under the race detector, no
// machine may end up oversubscribed and no reservation leaked or lost.
func TestPlaceWithSLAConcurrent(t *testing.T) {
	c := NewCluster("race", Options{Replicas: 2})
	if _, err := c.AddMachines(8); err != nil {
		t.Fatal(err)
	}
	eighth := sla.Resources{CPU: 0.125, Memory: 0.125, Disk: 0.125, DiskBW: 0.125}
	const dbs = 24
	start := make(chan struct{})
	errs := make([]error, dbs)
	var wg sync.WaitGroup
	for i := 0; i < dbs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, errs[i] = c.PlaceWithSLA(fmt.Sprintf("db%d", i), eighth, 2)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("db%d: %v", i, err)
		}
	}
	var total sla.Resources
	for _, id := range c.MachineIDs() {
		m, _ := c.Machine(id)
		used := m.Used()
		if !used.Fits(m.Capacity()) {
			t.Errorf("%s oversubscribed: %v", id, used)
		}
		total = total.Add(used)
	}
	if want := eighth.Scale(2 * dbs); total != want {
		t.Errorf("reserved in total %v, want %v (a lost race leaked or dropped a reservation)", total, want)
	}
	for i := 0; i < dbs; i++ {
		reps, err := c.Replicas(fmt.Sprintf("db%d", i))
		if err != nil || len(reps) != 2 || reps[0] == reps[1] {
			t.Errorf("db%d replicas = %v (%v), want two distinct machines", i, reps, err)
		}
	}
}
