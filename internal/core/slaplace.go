package core

import (
	"errors"
	"fmt"
	"slices"

	"sdp/internal/placement"
	"sdp/internal/sla"
)

// ErrNoCapacity is returned when no combination of live machines can host a
// database's replicas without violating resource constraints. The colo
// controller reacts by adding machines from the free pool.
var ErrNoCapacity = errors.New("core: insufficient capacity for SLA placement")

// Capacity returns the machine's resource capacity R[i] (paper Section 4):
// every machine is the normalised unit machine.
func (m *Machine) Capacity() sla.Resources { return sla.UnitMachine(m.id).Cap }

// Used returns the resources reserved on the machine by SLA placement.
func (m *Machine) Used() sla.Resources {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used
}

// reserve adds req to the machine's reservation if it fits; it reports
// whether the reservation succeeded. The selector only proposes a machine;
// this check-and-add under the machine mutex is what keeps concurrent
// placements from oversubscribing it.
func (m *Machine) reserve(req sla.Resources) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.used.Add(req).Fits(m.Capacity()) {
		return false
	}
	m.used = m.used.Add(req)
	return true
}

// release subtracts req from the machine's reservation.
func (m *Machine) release(req sla.Resources) {
	m.mu.Lock()
	m.used = m.used.Sub(req)
	m.mu.Unlock()
}

// liveMachinesLocked returns the live machines in arrival order, as the
// selector's view and as the machines themselves (same indexes). hosts are
// the machines already holding a replica of the database being placed.
// O(machines); the per-database loads only the adaptive round needs are
// added by placementView. Caller holds c.mu.
func (c *Cluster) liveMachinesLocked(hosts []string) ([]placement.Machine, []*Machine) {
	view := make([]placement.Machine, 0, len(c.order))
	ms := make([]*Machine, 0, len(c.order))
	for _, id := range c.order {
		m := c.machines[id]
		if m.Failed() {
			continue
		}
		view = append(view, placement.Machine{
			ID:    id,
			Cap:   m.Capacity(),
			Used:  m.Used(),
			DBs:   int(m.dbCount.Load()),
			Hosts: slices.Contains(hosts, id),
		})
		ms = append(ms, m)
	}
	return view, ms
}

// PlaceWithSLA creates a database whose replicas are placed by First-Fit
// (the paper's Algorithm 2) against the machines' capacities and current
// reservations. req is the per-replica resource requirement r[j] observed
// during the profiling period. It returns the chosen machine IDs.
func (c *Cluster) PlaceWithSLA(db string, req sla.Resources, replicas int) ([]string, error) {
	if replicas <= 0 {
		replicas = c.opts.Replicas
	}
	c.mu.Lock()
	view, ms := c.liveMachinesLocked(nil)
	c.mu.Unlock()
	reserved := c.reserveFirstFit(view, ms, req, replicas)
	if reserved == nil {
		c.metrics.slaPlacements.With("no_capacity").Inc()
		return nil, fmt.Errorf("%w: %s needs %d replicas of %s", ErrNoCapacity, db, replicas, req)
	}
	chosen := make([]string, len(reserved))
	for i, m := range reserved {
		chosen[i] = m.id
	}
	if err := c.createDatabaseOn(db, chosen, req); err != nil {
		for _, m := range reserved {
			m.release(req)
		}
		c.metrics.slaPlacements.With("error").Inc()
		return nil, err
	}
	c.metrics.slaPlacements.With("placed").Inc()
	return chosen, nil
}

// reserveFirstFit reserves req on n machines, taken in First-Fit order from
// view (ms are the same machines, same indexes), and returns them; it
// returns nil, holding nothing, when fewer than n machines take it. The
// view may be stale — other placements reserve concurrently — so a machine
// that refuses the reservation is dropped and the rest picked again.
func (c *Cluster) reserveFirstFit(view []placement.Machine, ms []*Machine, req sla.Resources, n int) []*Machine {
	var reserved []*Machine
	for len(reserved) < n {
		need := n - len(reserved)
		picked, probes := placement.Pick(view, req, need, placement.Arrival)
		c.metrics.slaProbes.Add(uint64(probes))
		if len(picked) < need {
			for _, m := range reserved {
				m.release(req)
			}
			return nil
		}
		for _, i := range picked {
			view[i].Hosts = true // taken or full: either way out of the next pick
			if ms[i].reserve(req) {
				reserved = append(reserved, ms[i])
			}
		}
	}
	return reserved
}
