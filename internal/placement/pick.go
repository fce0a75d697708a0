package placement

import (
	"slices"
	"sort"

	"sdp/internal/sla"
)

// Machine is one live machine as the selector sees it. Every caller that
// needs a target for a replica — database creation, SLA placement, recovery,
// the adaptive controller's grows and migrations, the offline Table 2
// allocator — describes its machines this way and calls Pick.
type Machine struct {
	// ID is the machine identifier.
	ID string
	// Cap is the machine's capacity R[i] and Used the declared SLA
	// reservations it already holds. A replica is only ever placed where
	// Used plus its requirement stays within Cap — the same sum the
	// machine's own check-and-add makes, so selector and reservation agree
	// to the last bit (five replicas of 0.2 CPU fill a unit machine:
	// 0.8+0.2 <= 1, though 1-0.8 < 0.2 in floating point).
	Cap, Used sla.Resources
	// Load is the effective load the caller knows of (observed where
	// measured, declared otherwise); its dominant component is the
	// utilisation Coldest orders by. Callers without a load signal leave
	// it zero, and Coldest then orders by DBs alone.
	Load sla.Resources
	// DBs is the number of databases hosted.
	DBs int
	// Hosts reports that the machine already holds a replica of the
	// database being placed; replicas of one database go on distinct
	// machines, so such a machine is never picked.
	Hosts bool
}

// Order is the preference among machines that fit.
type Order int

// The orderings.
const (
	// Arrival takes machines in the order given: First-Fit, the paper's
	// Algorithm 2.
	Arrival Order = iota
	// LeastSlack prefers the machine left with the least free capacity
	// after the replica is placed: the Best-Fit ablation.
	LeastSlack
	// Coldest prefers the least utilised machine, then the one hosting
	// the fewest databases.
	Coldest
)

// Pick chooses up to n distinct machines for replicas needing req each and
// returns their indexes into machines, most preferred first; ties fall to
// the order given. Fewer than n indexes mean no further machine fits.
// probes is the number of machines whose capacity was examined —
// Arrival stops at the n-th fit, the other orderings examine every machine.
func Pick(machines []Machine, req sla.Resources, n int, order Order) (picked []int, probes int) {
	for i, m := range machines {
		if order == Arrival && len(picked) == n {
			break
		}
		if m.Hosts {
			continue
		}
		probes++
		if m.Used.Add(req).Fits(m.Cap) {
			picked = append(picked, i)
		}
	}
	switch order {
	case LeastSlack:
		slack := func(i int) float64 { m := machines[i]; return m.Cap.Sub(m.Used).Sub(req).Dominant() }
		sort.SliceStable(picked, func(a, b int) bool { return slack(picked[a]) < slack(picked[b]) })
	case Coldest:
		sort.SliceStable(picked, func(a, b int) bool {
			ma, mb := machines[picked[a]], machines[picked[b]]
			if ua, ub := ma.Load.Dominant(), mb.Load.Dominant(); ua != ub {
				return ua < ub
			}
			return ma.DBs < mb.DBs
		})
	}
	if len(picked) > n {
		picked = picked[:n]
	}
	return picked, probes
}

// markHosts sets each machine's Hosts flag for a database whose replicas
// live on the given machines.
func markHosts(machines []Machine, replicas []string) {
	for i := range machines {
		machines[i].Hosts = slices.Contains(replicas, machines[i].ID)
	}
}
