// Package history records the data operations executed across the replicas
// of a cluster and checks the resulting execution for global one-copy
// serializability. It is the measurement instrument behind the paper's
// Table 1: a serialization graph is built from the per-site conflict orders
// (Bernstein/Hadzilacos/Goodman), and an execution is one-copy serializable
// iff the graph over committed transactions is acyclic.
package history

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"sdp/internal/sqldb"
)

// Op is one recorded data access on one site (machine). Seq orders events
// within a site; events on different sites are never directly ordered.
//
// Seq is assigned by the Recorder at record time rather than taken from the
// engine's own counter: a machine restart replaces the engine and would
// restart its counter at zero, scrambling the site's conflict order across
// crash epochs. Under strict two-phase locking an operation is recorded
// while its lock is held, so for two conflicting operations the record
// calls themselves happen in conflict order and a recorder-global monotonic
// stamp preserves it.
type Op struct {
	Site   string
	Seq    uint64
	Txn    uint64 // global transaction ID
	Write  bool
	Object string // "db/table:key" for a row, "db/table" for a whole table
}

// Recorder accumulates operations from all sites of a cluster and tracks
// transaction outcomes. It is safe for concurrent use.
type Recorder struct {
	mu        sync.Mutex
	seq       uint64 // recorder-global Op.Seq stamp, survives engine restarts
	ops       []Op
	committed map[uint64]bool
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{committed: make(map[uint64]bool)}
}

// ForSite returns an adapter implementing sqldb.Recorder that tags events
// with the given site name. Events with a zero GlobalTxn (engine-local
// transactions such as dump copies) are ignored.
func (r *Recorder) ForSite(site string) sqldb.Recorder {
	return &siteRecorder{r: r, site: site}
}

type siteRecorder struct {
	r    *Recorder
	site string
}

func (s *siteRecorder) RecordOp(ev sqldb.OpEvent) {
	if ev.GlobalTxn == 0 {
		return
	}
	s.r.mu.Lock()
	s.r.seq++
	s.r.ops = append(s.r.ops, Op{
		Site:   s.site,
		Seq:    s.r.seq,
		Txn:    ev.GlobalTxn,
		Write:  ev.Write,
		Object: ev.Object,
	})
	s.r.mu.Unlock()
}

// Commit marks a global transaction as committed. Only committed
// transactions participate in the serializability check.
func (r *Recorder) Commit(txn uint64) {
	r.mu.Lock()
	r.committed[txn] = true
	r.mu.Unlock()
}

// Ops returns a snapshot of all recorded operations.
func (r *Recorder) Ops() []Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Op, len(r.ops))
	copy(out, r.ops)
	return out
}

// Committed returns the set of committed transaction IDs.
func (r *Recorder) Committed() map[uint64]bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[uint64]bool, len(r.committed))
	for k, v := range r.committed {
		out[k] = v
	}
	return out
}

// Reset clears all recorded state.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.seq = 0
	r.ops = nil
	r.committed = make(map[uint64]bool)
	r.mu.Unlock()
}

// Conflicts reports whether two objects denote overlapping data: identical
// objects, or a whole-table object covering a row of the same table.
func Conflicts(a, b string) bool {
	if a == b {
		return true
	}
	if ta, ia := splitObject(a); ia == "" {
		if tb, _ := splitObject(b); ta == tb {
			return true
		}
	}
	if tb, ib := splitObject(b); ib == "" {
		if ta, _ := splitObject(a); ta == tb {
			return true
		}
	}
	return false
}

func splitObject(o string) (table, key string) {
	if i := strings.IndexByte(o, ':'); i >= 0 {
		return o[:i], o[i+1:]
	}
	return o, ""
}

// Edge is one serialization-graph edge with the conflict that produced it.
type Edge struct {
	From, To uint64
	Site     string
	Object   string
}

// Graph is a serialization graph over committed transactions.
type Graph struct {
	Nodes []uint64
	Edges map[uint64]map[uint64]Edge
}

// BuildGraph constructs the global serialization graph from the recorded
// operations of committed transactions. For each site, conflicting
// operations of different transactions produce an edge in Seq order.
func BuildGraph(ops []Op, committed map[uint64]bool) *Graph {
	bySite := make(map[string][]Op)
	nodeSet := make(map[uint64]bool)
	for _, op := range ops {
		if !committed[op.Txn] {
			continue
		}
		bySite[op.Site] = append(bySite[op.Site], op)
		nodeSet[op.Txn] = true
	}
	g := &Graph{Edges: make(map[uint64]map[uint64]Edge)}
	for n := range nodeSet {
		g.Nodes = append(g.Nodes, n)
	}
	sort.Slice(g.Nodes, func(i, j int) bool { return g.Nodes[i] < g.Nodes[j] })

	for site, siteOps := range bySite {
		sort.Slice(siteOps, func(i, j int) bool { return siteOps[i].Seq < siteOps[j].Seq })
		for i := 0; i < len(siteOps); i++ {
			for j := i + 1; j < len(siteOps); j++ {
				a, b := siteOps[i], siteOps[j]
				if a.Txn == b.Txn {
					continue
				}
				if !a.Write && !b.Write {
					continue
				}
				if !Conflicts(a.Object, b.Object) {
					continue
				}
				g.addEdge(Edge{From: a.Txn, To: b.Txn, Site: site, Object: a.Object})
			}
		}
	}
	return g
}

func (g *Graph) addEdge(e Edge) {
	m := g.Edges[e.From]
	if m == nil {
		m = make(map[uint64]Edge)
		g.Edges[e.From] = m
	}
	if _, exists := m[e.To]; !exists {
		m[e.To] = e
	}
}

// Cycle returns a cycle in the graph as a sequence of transaction IDs
// (first == last), or nil if the graph is acyclic.
func (g *Graph) Cycle() []uint64 {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[uint64]int, len(g.Nodes))
	parent := make(map[uint64]uint64)

	var cycle []uint64
	var dfs func(u uint64) bool
	dfs = func(u uint64) bool {
		color[u] = gray
		// Iterate successors deterministically for reproducible reports.
		succs := make([]uint64, 0, len(g.Edges[u]))
		for v := range g.Edges[u] {
			succs = append(succs, v)
		}
		sort.Slice(succs, func(i, j int) bool { return succs[i] < succs[j] })
		for _, v := range succs {
			switch color[v] {
			case white:
				parent[v] = u
				if dfs(v) {
					return true
				}
			case gray:
				// Found a back edge u -> v: reconstruct v ... u, v.
				cycle = []uint64{v}
				for x := u; x != v; x = parent[x] {
					cycle = append(cycle, x)
				}
				// Reverse into v -> ... -> u order, then close the loop.
				for l, r := 1, len(cycle)-1; l < r; l, r = l+1, r-1 {
					cycle[l], cycle[r] = cycle[r], cycle[l]
				}
				cycle = append(cycle, v)
				return true
			}
		}
		color[u] = black
		return false
	}
	for _, n := range g.Nodes {
		if color[n] == white {
			if dfs(n) {
				return cycle
			}
		}
	}
	return nil
}

// Describe renders a cycle with the conflicts along it, for diagnostics.
func (g *Graph) Describe(cycle []uint64) string {
	if len(cycle) < 2 {
		return "no cycle"
	}
	var sb strings.Builder
	for i := 0; i+1 < len(cycle); i++ {
		e := g.Edges[cycle[i]][cycle[i+1]]
		fmt.Fprintf(&sb, "T%d -> T%d (site %s, object %s)\n", e.From, e.To, e.Site, e.Object)
	}
	return sb.String()
}

// Check is a convenience that builds the graph from a recorder's state and
// reports serializability along with the offending cycle, if any.
func Check(r *Recorder) (bool, []uint64, *Graph) {
	g := BuildGraph(r.Ops(), r.Committed())
	c := g.Cycle()
	return c == nil, c, g
}
