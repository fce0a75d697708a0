package placement

import (
	"fmt"
	"sort"

	"sdp/internal/sla"
)

// Allocator places databases offline, one at a time, onto a machine set
// that grows from a free pool of unit machines: the paper's Algorithm 2 as
// Table 2 measures it. Each database's replicas go where Pick says; a
// replica no existing machine fits gets a fresh machine (Algorithm 2, line
// 13). Placed databases never move, matching the paper's restriction that M
// and M' differ only in the new database's rows.
type Allocator struct {
	machines []Machine
	placed   map[string][]string
}

// NewAllocator creates an allocator over an initial (possibly empty) set of
// machines.
func NewAllocator(machines []sla.Machine) *Allocator {
	a := &Allocator{placed: make(map[string][]string)}
	for _, m := range machines {
		a.machines = append(a.machines, Machine{ID: m.Name, Cap: m.Cap})
	}
	return a
}

// Place allocates the replicas of a new database in the given order of
// preference (Arrival is Algorithm 2's First-Fit, LeastSlack the Best-Fit
// ablation) and returns the chosen machine names.
func (a *Allocator) Place(d sla.Database, order Order) ([]string, error) {
	if d.Replicas <= 0 {
		d.Replicas = 1
	}
	if _, dup := a.placed[d.Name]; dup {
		return nil, fmt.Errorf("placement: database %s already placed", d.Name)
	}
	if !d.Req.NonNegative() {
		return nil, fmt.Errorf("placement: negative resource requirement for %s", d.Name)
	}
	picked, _ := Pick(a.machines, d.Req, d.Replicas, order)
	for len(picked) < d.Replicas {
		m := Machine{ID: fmt.Sprintf("m%d", len(a.machines)+1), Cap: sla.UnitMachine("").Cap}
		if !d.Req.Fits(m.Cap) {
			return nil, fmt.Errorf("placement: replica of %s (%s) exceeds a whole machine (%s)", d.Name, d.Req, m.Cap)
		}
		picked = append(picked, len(a.machines))
		a.machines = append(a.machines, m)
	}
	names := make([]string, len(picked))
	for i, idx := range picked {
		m := &a.machines[idx]
		m.Used = m.Used.Add(d.Req)
		m.DBs++
		names[i] = m.ID
	}
	a.placed[d.Name] = names
	return names, nil
}

// MachineCount returns the number of machines that host at least one
// replica.
func (a *Allocator) MachineCount() int {
	n := 0
	for _, m := range a.machines {
		if m.DBs > 0 {
			n++
		}
	}
	return n
}

// Placement returns the machine names hosting each placed database.
func (a *Allocator) Placement() map[string][]string { return a.placed }

func placeAll(dbs []sla.Database, order Order) (int, map[string][]string, error) {
	a := NewAllocator(nil)
	for _, d := range dbs {
		if _, err := a.Place(d, order); err != nil {
			return 0, nil, err
		}
	}
	return a.MachineCount(), a.Placement(), nil
}

// PlaceAll places a sequence of databases with First-Fit in arrival order
// and returns the number of machines used.
func PlaceAll(dbs []sla.Database) (int, map[string][]string, error) {
	return placeAll(dbs, Arrival)
}

// PlaceAllFirstFitDecreasing sorts the databases by decreasing dominant
// requirement before running First-Fit — the offline FFD ablation (the
// paper leaves non-greedy reallocation to future work).
func PlaceAllFirstFitDecreasing(dbs []sla.Database) (int, map[string][]string, error) {
	return placeAll(largestFirst(dbs), Arrival)
}

// PlaceAllBestFit places databases with Best-Fit in arrival order.
func PlaceAllBestFit(dbs []sla.Database) (int, map[string][]string, error) {
	return placeAll(dbs, LeastSlack)
}

// largestFirst returns a copy of dbs sorted by decreasing dominant
// requirement.
func largestFirst(dbs []sla.Database) []sla.Database {
	sorted := append([]sla.Database{}, dbs...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Req.Dominant() > sorted[j].Req.Dominant()
	})
	return sorted
}
