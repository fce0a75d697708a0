// Package history records the data operations executed across the replicas
// of a cluster and checks the resulting execution for global one-copy
// serializability. It is the measurement instrument behind the paper's
// Table 1: a serialization graph is built from the per-site conflict orders
// (Bernstein/Hadzilacos/Goodman), and an execution is one-copy serializable
// iff the graph over committed transactions is acyclic.
package history

import (
	"fmt"
	"slices"
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
	Object string // "db/table:key" for a row (the key may be any bytes), "db/table" for a whole table
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

// splitObject splits an object into its table and its row key, "" for a
// whole table.
func splitObject(o string) (table, key string) {
	if i := strings.IndexByte(o, ':'); i >= 0 {
		return o[:i], o[i+1:]
	}
	return o, ""
}

// Graph is a serialization graph over committed transactions.
type Graph struct {
	Nodes []uint64
	// Edges maps From to To to the position in ops of an operation of From
	// that produced the edge. The position keeps the maps free of pointers:
	// a busy history has millions of edges.
	Edges map[uint64]map[uint64]int32
	ops   []Op
}

// BuildGraph constructs the global serialization graph from the recorded
// operations of committed transactions. For each site, conflicting
// operations of different transactions order their transactions in Seq
// order.
//
// Two objects conflict when they are one row, or one of them is the whole
// table the other is in. The graph does not hold an edge per conflicting
// pair, which grows with the square of a hot row's history: it holds enough
// of them that its transitive closure is the pairwise graph's, so the two
// have the same cycles. On each object, an operation precedes the next write
// after it, and a write the operations up to and including the next write;
// whole-table writes do the same over every operation on their table; and
// between two whole-table writes, a run of whole-table reads and a run of row
// writes each precede the next run of the other kind. Every conflict is then
// an edge or a path of them, and every edge is a conflict.
func BuildGraph(ops []Op, committed map[uint64]bool) *Graph {
	g := &Graph{Edges: make(map[uint64]map[uint64]int32)}
	nodeSet := make(map[uint64]bool)
	for _, op := range ops {
		if committed[op.Txn] {
			g.ops = append(g.ops, op)
			nodeSet[op.Txn] = true
		}
	}
	for n := range nodeSet {
		g.Nodes = append(g.Nodes, n)
	}
	sort.Slice(g.Nodes, func(i, j int) bool { return g.Nodes[i] < g.Nodes[j] })
	// One run of g.ops per site, each in Seq order.
	sort.Slice(g.ops, func(i, j int) bool {
		a, b := g.ops[i], g.ops[j]
		return a.Site < b.Site || a.Site == b.Site && a.Seq < b.Seq
	})

	// A table's operations as positions in g.ops: every one, and each row's.
	type tableOps struct {
		all  []int
		rows map[string][]int
	}
	whole := make([]bool, len(g.ops)) // a whole-table operation
	for start := 0; start < len(g.ops); {
		end := start + 1
		for end < len(g.ops) && g.ops[end].Site == g.ops[start].Site {
			end++
		}
		tables := make(map[string]*tableOps)
		var order []*tableOps
		for i := start; i < end; i++ {
			table, key := splitObject(g.ops[i].Object)
			to := tables[table]
			if to == nil {
				to = &tableOps{rows: make(map[string][]int)}
				tables[table] = to
				order = append(order, to)
			}
			to.all = append(to.all, i)
			if whole[i] = key == ""; !whole[i] {
				to.rows[key] = append(to.rows[key], i)
			}
		}
		for _, to := range order {
			for _, row := range to.rows {
				g.chain(row, func(p int) bool { return g.ops[p].Write })
			}
			g.chain(to.all, func(p int) bool { return whole[p] && g.ops[p].Write })
			// Whole-table reads against row writes, run by run.
			var prev, cur []int
			curWhole := false
			for _, p := range to.all {
				op := g.ops[p]
				switch {
				case whole[p] && op.Write:
					prev, cur = nil, nil
					continue
				case !whole[p] && !op.Write:
					continue
				}
				if len(cur) > 0 && whole[p] != curWhole {
					prev, cur = cur, nil
				}
				curWhole = whole[p]
				for _, q := range prev {
					g.edge(q, p)
				}
				cur = append(cur, p)
			}
		}
		start = end
	}
	return g
}

// chain adds the edges that order one object's operations, at positions ps
// in Seq order, where write tells which of them write it: each operation
// precedes the next write after it, and each write the operations up to and
// including the next write.
func (g *Graph) chain(ps []int, write func(p int) bool) {
	next := len(ps) // index in ps of the next write after i
	for i := len(ps) - 1; i >= 0; i-- {
		if next < len(ps) {
			g.edge(ps[i], ps[next])
		}
		if write(ps[i]) {
			for _, q := range ps[i+1 : min(next, len(ps)-1)+1] {
				g.edge(ps[i], q)
			}
			next = i
		}
	}
}

// edge orders the transaction of the operation at position a before that of
// the one at b, unless they are one transaction; the edge keeps a.
func (g *Graph) edge(a, b int) {
	if from, to := g.ops[a].Txn, g.ops[b].Txn; from != to {
		m := g.Edges[from]
		if m == nil {
			m = make(map[uint64]int32)
			g.Edges[from] = m
		}
		m[to] = int32(a)
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
		slices.Sort(succs)
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
		op := g.ops[g.Edges[cycle[i]][cycle[i+1]]]
		fmt.Fprintf(&sb, "T%d -> T%d (site %s, object %q)\n", cycle[i], cycle[i+1], op.Site, op.Object)
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
