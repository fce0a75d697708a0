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
// operations of different transactions produce an edge in Seq order.
//
// Two objects conflict when they are one row, or one of them is the whole
// table the other is in. Each object is split once and a site's operations
// are grouped by table and row, and each group's operations by transaction,
// so two transactions are compared once per row they share and once per
// whole-table operation of a table they share.
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

	// A table's operations as positions in its site's run of g.ops: every
	// one, the whole-table ones, and each row's.
	type tableOps struct {
		all, whole []int
		rows       map[string][]int
	}
	var spans []span
	at := make(map[uint64]int)
	for start := 0; start < len(g.ops); {
		end := start + 1
		for end < len(g.ops) && g.ops[end].Site == g.ops[start].Site {
			end++
		}
		site := g.ops[start:end]
		tables := make(map[string]*tableOps)
		for i, op := range site {
			table, key := splitObject(op.Object)
			to := tables[table]
			if to == nil {
				to = &tableOps{rows: make(map[string][]int)}
				tables[table] = to
			}
			to.all = append(to.all, start+i)
			if key == "" {
				to.whole = append(to.whole, start+i)
			} else {
				to.rows[key] = append(to.rows[key], start+i)
			}
		}
		for _, to := range tables {
			for _, row := range to.rows {
				if len(row) < 2 {
					continue
				}
				// A transaction with an operation before another's write,
				// or a write before another's operation, precedes it.
				spans = g.spans(spans[:0], at, row)
				for _, a := range spans {
					var out map[uint64]int32
					for _, b := range spans {
						if a.txn != b.txn && (a.firstW >= 0 && a.firstW < b.last || b.lastW >= 0 && a.first < b.lastW) {
							if out == nil {
								out = g.out(a.txn)
							}
							out[b.txn] = int32(a.first)
						}
					}
				}
			}
			if len(to.whole) == 0 {
				continue
			}
			// A whole-table operation conflicts with every operation on the
			// table, if one of the two writes.
			spans = g.spans(spans[:0], at, to.all)
			for _, w := range to.whole {
				x, write := g.ops[w].Txn, g.ops[w].Write
				var out map[uint64]int32
				for _, b := range spans {
					if b.txn == x {
						continue
					}
					if write && b.first < w || !write && b.firstW >= 0 && b.firstW < w {
						g.out(b.txn)[x] = int32(b.first)
					}
					if write && b.last > w || !write && b.lastW > w {
						if out == nil {
							out = g.out(x)
						}
						out[b.txn] = int32(w)
					}
				}
			}
		}
		start = end
	}
	return g
}

// span is one transaction's operations on one object: the positions of its
// first and last operation and of its first and last write (-1 without a
// write).
type span struct {
	txn                        uint64
	first, last, firstW, lastW int
}

// spans appends to dst the spans of the transactions with operations at the
// given positions, in order of their first operation. at is empty scratch
// space, left empty.
func (g *Graph) spans(dst []span, at map[uint64]int, positions []int) []span {
	n := len(dst)
	for _, p := range positions {
		op := g.ops[p]
		k, ok := at[op.Txn]
		if !ok {
			k = len(dst)
			at[op.Txn] = k
			dst = append(dst, span{txn: op.Txn, first: p, firstW: -1, lastW: -1})
		}
		s := &dst[k]
		s.last = p
		if op.Write {
			if s.firstW < 0 {
				s.firstW = p
			}
			s.lastW = p
		}
	}
	for _, s := range dst[n:] {
		delete(at, s.txn)
	}
	return dst
}

// out returns the edges out of a transaction, creating the set: To mapped
// to the operation that produced the edge (the last one recorded).
func (g *Graph) out(from uint64) map[uint64]int32 {
	m := g.Edges[from]
	if m == nil {
		m = make(map[uint64]int32)
		g.Edges[from] = m
	}
	return m
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
