package placement

import (
	"math"

	"sdp/internal/sla"
)

// OptimalResult is the outcome of the exhaustive placement search.
type OptimalResult struct {
	// Machines is the minimum number of machines found.
	Machines int
	// Exact reports whether the search completed within the node budget;
	// when false, Machines is the best solution found so far (still an
	// upper bound on the optimum).
	Exact bool
	// Nodes is the number of search nodes explored.
	Nodes int
}

// Optimal computes the minimum number of identical machines (capacity cap)
// needed to host all databases, each with Replicas replicas on distinct
// machines — the offline exhaustive computation behind the "Optimal
// Solution" row of the paper's Table 2. It runs branch-and-bound with
// symmetry breaking (identical machines are interchangeable, so only the
// first unopened machine is ever considered for opening) and a per-dimension
// volume lower bound. nodeBudget caps the search (<=0 means a default of
// 2 million nodes).
func Optimal(dbs []sla.Database, cap sla.Resources, nodeBudget int) OptimalResult {
	if nodeBudget <= 0 {
		nodeBudget = 2_000_000
	}
	// Greedy FFD gives the initial upper bound.
	upper, _, err := PlaceAllFirstFitDecreasing(dbs)
	if err != nil {
		// Some database exceeds a machine; no feasible packing.
		return OptimalResult{Machines: 0, Exact: false}
	}

	// Big items first prunes best.
	sorted := largestFirst(dbs)
	for i := range sorted {
		if sorted[i].Replicas <= 0 {
			sorted[i].Replicas = 1
		}
	}

	// Suffix resource sums for the volume lower bound.
	suffix := make([]sla.Resources, len(sorted)+1)
	for i := len(sorted) - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1].Add(sorted[i].Req.Scale(float64(sorted[i].Replicas)))
	}

	s := &optSolver{dbs: sorted, cap: cap, suffix: suffix, best: upper, budget: nodeBudget, exact: true}
	s.solve(0, nil)
	return OptimalResult{Machines: s.best, Exact: s.exact, Nodes: s.nodes}
}

type optSolver struct {
	dbs    []sla.Database
	cap    sla.Resources
	suffix []sla.Resources
	best   int
	nodes  int
	budget int
	exact  bool
}

func (s *optSolver) solve(i int, open []sla.Resources) {
	if s.nodes >= s.budget {
		s.exact = false
		return
	}
	s.nodes++
	if len(open) >= s.best {
		return
	}
	if i == len(s.dbs) {
		s.best = len(open)
		return
	}
	// Volume lower bound: remaining demand minus open slack, per dimension.
	if len(open)+s.extraMachinesNeeded(i, open) >= s.best {
		return
	}
	s.assign(i, s.dbs[i], 0, nil, open)
}

// extraMachinesNeeded lower-bounds how many new machines the remaining
// databases force, by per-dimension volume.
func (s *optSolver) extraMachinesNeeded(i int, open []sla.Resources) int {
	demand := s.suffix[i]
	var slack sla.Resources
	for _, r := range open {
		slack = slack.Add(r)
	}
	need := 0
	check := func(dem, sl, capDim float64) {
		if capDim <= 0 {
			return
		}
		if extra := int(math.Ceil((dem - sl) / capDim)); extra > need {
			need = extra
		}
	}
	check(demand.CPU, slack.CPU, s.cap.CPU)
	check(demand.Memory, slack.Memory, s.cap.Memory)
	check(demand.Disk, slack.Disk, s.cap.Disk)
	check(demand.DiskBW, slack.DiskBW, s.cap.DiskBW)
	return need
}

// assign enumerates machine sets for the replicas of database i. Replicas
// go on distinct machines; chosen holds machine indexes picked so far, in
// increasing order (replicas of one database are interchangeable).
func (s *optSolver) assign(i int, d sla.Database, fromIdx int, chosen []int, open []sla.Resources) {
	if len(chosen) == d.Replicas {
		next := make([]sla.Resources, len(open))
		copy(next, open)
		for _, idx := range chosen {
			next[idx] = next[idx].Sub(d.Req)
		}
		s.solve(i+1, next)
		return
	}
	remainingReplicas := d.Replicas - len(chosen)
	for idx := fromIdx; idx < len(open); idx++ {
		if d.Req.Fits(open[idx]) {
			s.assign(i, d, idx+1, append(chosen, idx), open)
			if s.nodes >= s.budget {
				return
			}
		}
	}
	// Open new machines for the remaining replicas (identical machines:
	// opening exactly the next remainingReplicas indexes covers all
	// distinct choices up to symmetry).
	if len(open)+remainingReplicas >= s.best {
		return
	}
	if !d.Req.Fits(s.cap) {
		return
	}
	next := make([]sla.Resources, len(open), len(open)+remainingReplicas)
	copy(next, open)
	full := append([]int{}, chosen...)
	for r := 0; r < remainingReplicas; r++ {
		next = append(next, s.cap)
		full = append(full, len(next)-1)
	}
	for _, idx := range full {
		next[idx] = next[idx].Sub(d.Req)
	}
	s.solve(i+1, next)
}
