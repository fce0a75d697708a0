package core

// ClusterHealth summarises one cluster's liveness for the admin plane's
// /healthz and /readyz endpoints: machine counts, hosted databases, the
// configured replication degree, and how many Algorithm 1 replica copies
// (replica creation or recovery re-replication) are in flight right now.
type ClusterHealth struct {
	// Cluster is the cluster's name.
	Cluster string `json:"cluster"`
	// Machines counts all registered machines, live or failed.
	Machines int `json:"machines"`
	// LiveMachines counts machines that have not failed.
	LiveMachines int `json:"live_machines"`
	// Databases counts hosted client databases.
	Databases int `json:"databases"`
	// ActiveCopies counts databases with a replica copy in progress.
	ActiveCopies int `json:"active_copies"`
	// Replicas is the configured replication degree new databases get.
	Replicas int `json:"replicas"`
	// DegradedLinks counts live machines the controller currently cannot
	// reach over the simulated network (asymmetric partitions count when
	// the controller→machine direction is cut). Always zero without a
	// fault-injecting network.
	DegradedLinks int `json:"degraded_links,omitempty"`
	// Controllers counts configured control-plane replicas; zero when the
	// cluster runs one controller, which always holds its quorum.
	Controllers int `json:"controllers,omitempty"`
	// ControllerLeader is the current consensus leader's replica id, empty
	// while leaderless (an election or quorum loss in progress).
	ControllerLeader string `json:"controller_leader,omitempty"`
	// ControllerTerm is the leader's election term.
	ControllerTerm uint64 `json:"controller_term,omitempty"`
	// ControllerQuorum reports whether a leader currently holds the quorum
	// lease — the condition for the data path to serve. False means new
	// transactions are refused with ErrNotLeader until a leader (re)emerges.
	ControllerQuorum bool `json:"controller_quorum"`
}

// Health captures the cluster's current liveness in one pass under the
// cluster mutex.
func (c *Cluster) Health() ClusterHealth {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := ClusterHealth{
		Cluster:   c.name,
		Machines:  len(c.order),
		Databases: len(c.dbs),
		Replicas:  c.opts.Replicas,
	}
	for _, id := range c.order {
		if !c.machines[id].Failed() {
			h.LiveMachines++
			if !c.reachable(id) {
				h.DegradedLinks++
			}
		}
	}
	for _, ds := range c.dbs {
		if ds.copying != nil {
			h.ActiveCopies++
		}
	}
	h.Controllers = len(c.ControllerIDs())
	h.ControllerLeader, h.ControllerTerm = c.LeaderController()
	h.ControllerQuorum = c.ctl.leaseTerm() != 0
	return h
}
