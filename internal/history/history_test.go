package history

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"sdp/internal/sqldb"
)

func TestConflicts(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"db/t:1", "db/t:1", true},
		{"db/t:1", "db/t:2", false},
		{"db/t", "db/t:1", true},
		{"db/t:1", "db/t", true},
		{"db/t", "db/t", true},
		{"db/t", "db/u:1", false},
		{"db/t:1", "db2/t:1", false},
	}
	for _, c := range cases {
		if got := conflicts(c.a, c.b); got != c.want {
			t.Errorf("conflicts(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAcyclicSerialExecution(t *testing.T) {
	ops := []Op{
		{Site: "m1", Seq: 1, Txn: 1, Write: false, Object: "db/t:x"},
		{Site: "m1", Seq: 2, Txn: 1, Write: true, Object: "db/t:y"},
		{Site: "m1", Seq: 3, Txn: 2, Write: false, Object: "db/t:y"},
		{Site: "m1", Seq: 4, Txn: 2, Write: true, Object: "db/t:x"},
	}
	g := BuildGraph(ops, map[uint64]bool{1: true, 2: true})
	if g.Cycle() != nil {
		t.Fatalf("serial execution reported non-serializable: %v", g.Cycle())
	}
	// There must be edges T1->T2 on both objects.
	if _, ok := g.Edges[1][2]; !ok {
		t.Error("missing edge T1->T2")
	}
}

// TestPaperAnomaly reproduces the exact schedule from Section 3.1 of the
// paper, which is locally serializable on each machine but globally cyclic.
func TestPaperAnomaly(t *testing.T) {
	ops := []Op{
		// Machine 1: r1(x), w1(y), [p1], w2(x), [p2, c2, c1]
		{Site: "m1", Seq: 1, Txn: 1, Write: false, Object: "db/t:x"},
		{Site: "m1", Seq: 2, Txn: 1, Write: true, Object: "db/t:y"},
		{Site: "m1", Seq: 3, Txn: 2, Write: true, Object: "db/t:x"},
		// Machine 2: r2(y), w2(x), [p2], w1(y), [p1, c2, c1]
		{Site: "m2", Seq: 1, Txn: 2, Write: false, Object: "db/t:y"},
		{Site: "m2", Seq: 2, Txn: 2, Write: true, Object: "db/t:x"},
		{Site: "m2", Seq: 3, Txn: 1, Write: true, Object: "db/t:y"},
	}
	committed := map[uint64]bool{1: true, 2: true}
	g := BuildGraph(ops, committed)
	cycle := g.Cycle()
	if cycle == nil {
		t.Fatal("paper's anomaly not detected as a cycle")
	}
	if g.Cycle() == nil {
		t.Error("Serializable() inconsistent with Cycle()")
	}
	if desc := g.Describe(cycle); desc == "no cycle" {
		t.Errorf("Describe returned %q", desc)
	}
}

func TestUncommittedTxnsIgnored(t *testing.T) {
	ops := []Op{
		{Site: "m1", Seq: 1, Txn: 1, Write: false, Object: "db/t:x"},
		{Site: "m1", Seq: 2, Txn: 2, Write: true, Object: "db/t:x"},
		{Site: "m2", Seq: 1, Txn: 2, Write: false, Object: "db/t:y"},
		{Site: "m2", Seq: 2, Txn: 1, Write: true, Object: "db/t:y"},
	}
	// Both committed: cycle.
	g := BuildGraph(ops, map[uint64]bool{1: true, 2: true})
	if g.Cycle() == nil {
		t.Fatal("expected cycle with both committed")
	}
	// Only T1 committed: T2's aborted ops must not contribute.
	g = BuildGraph(ops, map[uint64]bool{1: true})
	if g.Cycle() != nil {
		t.Fatal("aborted transaction contributed to the graph")
	}
	if len(g.Nodes) != 1 {
		t.Errorf("nodes = %v", g.Nodes)
	}
}

func TestReadsDoNotConflict(t *testing.T) {
	ops := []Op{
		{Site: "m1", Seq: 1, Txn: 1, Write: false, Object: "db/t:x"},
		{Site: "m1", Seq: 2, Txn: 2, Write: false, Object: "db/t:x"},
		{Site: "m1", Seq: 3, Txn: 1, Write: false, Object: "db/t:x"},
	}
	g := BuildGraph(ops, map[uint64]bool{1: true, 2: true})
	if len(g.Edges) != 0 {
		t.Errorf("read-read produced edges: %v", g.Edges)
	}
}

func TestTableScanConflictsWithRowWrite(t *testing.T) {
	ops := []Op{
		{Site: "m1", Seq: 1, Txn: 1, Write: false, Object: "db/t"}, // scan
		{Site: "m1", Seq: 2, Txn: 2, Write: true, Object: "db/t:5"},
	}
	g := BuildGraph(ops, map[uint64]bool{1: true, 2: true})
	if _, ok := g.Edges[1][2]; !ok {
		t.Error("scan vs row write produced no edge")
	}
}

func TestThreeNodeCycle(t *testing.T) {
	ops := []Op{
		{Site: "m1", Seq: 1, Txn: 1, Write: true, Object: "a"},
		{Site: "m1", Seq: 2, Txn: 2, Write: true, Object: "a"},
		{Site: "m2", Seq: 1, Txn: 2, Write: true, Object: "b"},
		{Site: "m2", Seq: 2, Txn: 3, Write: true, Object: "b"},
		{Site: "m3", Seq: 1, Txn: 3, Write: true, Object: "c"},
		{Site: "m3", Seq: 2, Txn: 1, Write: true, Object: "c"},
	}
	g := BuildGraph(ops, map[uint64]bool{1: true, 2: true, 3: true})
	cycle := g.Cycle()
	if cycle == nil {
		t.Fatal("three-node cycle not found")
	}
	if len(cycle) != 4 { // a -> b -> c -> a
		t.Errorf("cycle = %v", cycle)
	}
	// Cycle must be closed and consistent with edges.
	if cycle[0] != cycle[len(cycle)-1] {
		t.Errorf("cycle not closed: %v", cycle)
	}
	for i := 0; i+1 < len(cycle); i++ {
		if _, ok := g.Edges[cycle[i]][cycle[i+1]]; !ok {
			t.Errorf("reported cycle uses missing edge %d->%d", cycle[i], cycle[i+1])
		}
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	r := NewRecorder()
	site := r.ForSite("m1")
	site.RecordOp(opEvent(1, 100, true, "db/t:1"))
	site.RecordOp(opEvent(2, 0, true, "db/t:2")) // local txn, ignored
	r.Commit(100)
	ops := r.Ops()
	if len(ops) != 1 || ops[0].Txn != 100 || ops[0].Site != "m1" {
		t.Fatalf("ops = %v", ops)
	}
	ok, cycle, _ := Check(r)
	if !ok || cycle != nil {
		t.Errorf("single txn flagged non-serializable")
	}
	r.Reset()
	if len(r.Ops()) != 0 || len(r.Committed()) != 0 {
		t.Error("Reset did not clear state")
	}
}

func opEvent(seq, gtxn uint64, write bool, obj string) sqldb.OpEvent {
	return sqldb.OpEvent{Seq: seq, Txn: seq, GlobalTxn: gtxn, Write: write, Object: obj}
}

// conflicts is the reference conflict rule: two objects denote overlapping
// data when they are identical, or one is a whole table holding the other.
func conflicts(a, b string) bool {
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

// buildGraphPairwise is the reference BuildGraph: it compares every two
// operations of a site with conflicts.
func buildGraphPairwise(ops []Op, committed map[uint64]bool) *Graph {
	bySite := make(map[string][]Op)
	for _, op := range ops {
		if committed[op.Txn] {
			bySite[op.Site] = append(bySite[op.Site], op)
		}
	}
	g := &Graph{Edges: make(map[uint64]map[uint64]int32)}
	for _, siteOps := range bySite {
		sort.Slice(siteOps, func(i, j int) bool { return siteOps[i].Seq < siteOps[j].Seq })
		for i := 0; i < len(siteOps); i++ {
			for j := i + 1; j < len(siteOps); j++ {
				a, b := siteOps[i], siteOps[j]
				if a.Txn != b.Txn && (a.Write || b.Write) && conflicts(a.Object, b.Object) {
					g.out(a.Txn)[b.Txn] = int32(len(g.ops))
					g.ops = append(g.ops, a)
				}
			}
		}
	}
	return g
}

// edgeSet renders a graph's (From, To) pairs, sorted.
func edgeSet(g *Graph) []string {
	var out []string
	for from, tos := range g.Edges {
		for to := range tos {
			out = append(out, fmt.Sprintf("%d->%d", from, to))
		}
	}
	sort.Strings(out)
	return out
}

// TestBuildGraphMatchesPairwise checks the grouped BuildGraph against the
// pairwise reference on random histories over two or three sites that mix
// row and whole-table objects (an empty key included), reads and writes, and
// committed and aborted transactions: the edge sets must be equal, and every
// edge must name an operation of its source transaction.
func TestBuildGraphMatchesPairwise(t *testing.T) {
	objects := []string{"db/t", "db/t:", "db/t:1", "db/t:2", "db/t:1:x", "db/u", "db/u:1", "db2/t:1"}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sites := []string{"m1", "m2", "m3"}[:2+rng.Intn(2)]
		txns := 2 + rng.Intn(8)
		committed := make(map[uint64]bool)
		for txn := 1; txn <= txns; txn++ {
			committed[uint64(txn)] = rng.Intn(4) > 0
		}
		var ops []Op
		// Seq is unique, as the Recorder stamps it, and out of order.
		for _, seq := range rng.Perm(rng.Intn(60)) {
			ops = append(ops, Op{
				Site:   sites[rng.Intn(len(sites))],
				Seq:    uint64(seq),
				Txn:    uint64(1 + rng.Intn(txns)),
				Write:  rng.Intn(2) == 0,
				Object: objects[rng.Intn(len(objects))],
			})
		}
		got, want := BuildGraph(ops, committed), buildGraphPairwise(ops, committed)
		if g, w := fmt.Sprint(edgeSet(got)), fmt.Sprint(edgeSet(want)); g != w {
			t.Fatalf("seed %d: edges %s, pairwise %s", seed, g, w)
		}
		for from, tos := range got.Edges {
			for to, i := range tos {
				if op := got.ops[i]; op.Txn != from {
					t.Fatalf("seed %d: edge %d->%d names %+v", seed, from, to, op)
				}
			}
		}
	}
}
