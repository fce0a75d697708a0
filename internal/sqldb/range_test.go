package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// rangeFixture loads a table with id 0..29 where both the primary key and an
// indexed column (k) and an unindexed column (m) carry the same value, so any
// predicate can be answered by a range plan (on id or k) and cross-checked
// against the scan plan (on m).
func rangeFixture(t *testing.T) *Engine {
	t.Helper()
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE r (id INT PRIMARY KEY, k INT, m INT)")
	mustExec(t, e, "CREATE INDEX r_k ON r (k)")
	for i := 0; i < 30; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO r VALUES (%d, %d, %d)", i, i, i))
	}
	return e
}

// ids extracts and sorts the first column of a result.
func ids(res *Result) []int64 {
	out := make([]int64, 0, len(res.Rows))
	for _, row := range res.Rows {
		out = append(out, row[0].Int)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestRangeScanMatchesFullScan(t *testing.T) {
	e := rangeFixture(t)
	preds := []string{
		"%s < 5",
		"%s <= 5",
		"%s > 25",
		"%s >= 25",
		"%s BETWEEN 10 AND 14",
		"%s > 7 AND %s < 12",
		"%s >= 7 AND %s <= 12",
		"5 < %s AND 10 > %s",  // constant-first comparisons flip correctly
		"%s BETWEEN 12 AND 3", // empty (inverted) range
		"%s > 100",
		"%s < 0",
	}
	for _, p := range preds {
		for _, col := range []string{"id", "k"} {
			ranged := mustExec(t, e, "SELECT id FROM r WHERE "+sprintfPred(p, col))
			scanned := mustExec(t, e, "SELECT id FROM r WHERE "+sprintfPred(p, "m"))
			got, want := ids(ranged), ids(scanned)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("pred %q on %s: range result %v, scan result %v", p, col, got, want)
			}
		}
	}
}

// sprintfPred substitutes every %s in the predicate template with col.
func sprintfPred(tmpl, col string) string {
	args := make([]interface{}, 0, 4)
	for i := 0; i+1 < len(tmpl); i++ {
		if tmpl[i] == '%' && tmpl[i+1] == 's' {
			args = append(args, col)
		}
	}
	return fmt.Sprintf(tmpl, args...)
}

func TestRangeScanBoundsInclusive(t *testing.T) {
	e := rangeFixture(t)
	cases := []struct {
		where string
		want  int
	}{
		{"id >= 10 AND id <= 19", 10},
		{"id > 10 AND id < 19", 8},
		{"id >= 10 AND id < 19", 9},
		{"id BETWEEN 0 AND 29", 30},
		{"k >= 28", 2},
		{"k <= 1", 2},
	}
	for _, c := range cases {
		res := mustExec(t, e, "SELECT id FROM r WHERE "+c.where)
		if len(res.Rows) != c.want {
			t.Errorf("WHERE %s: %d rows, want %d", c.where, len(res.Rows), c.want)
		}
	}
}

func TestRangeScanParameterisedBounds(t *testing.T) {
	e := rangeFixture(t)
	const q = "SELECT id FROM r WHERE id BETWEEN ? AND ?"
	for _, c := range []struct {
		lo, hi int64
		want   int
	}{{5, 9, 5}, {0, 0, 1}, {20, 100, 10}, {9, 5, 0}} {
		res := mustExec(t, e, q, NewInt(c.lo), NewInt(c.hi))
		if len(res.Rows) != c.want {
			t.Errorf("BETWEEN %d AND %d: %d rows, want %d", c.lo, c.hi, len(res.Rows), c.want)
		}
	}
	// One cached plan serves every binding.
	if got := explainAccessOf(t, e, q, NewInt(5), NewInt(9)); got != "range" {
		t.Errorf("plan kind = %v, want range", got)
	}
}

func TestRangeScanNullBound(t *testing.T) {
	e := rangeFixture(t)
	// NULL bounds match nothing under three-valued logic; the range path
	// must agree with the scan path rather than treat NULL as a sort key.
	for _, q := range []string{
		"SELECT id FROM r WHERE id < NULL",
		"SELECT id FROM r WHERE id BETWEEN NULL AND 10",
		"SELECT id FROM r WHERE k > NULL",
	} {
		res := mustExec(t, e, q)
		if len(res.Rows) != 0 {
			t.Errorf("%s: %d rows, want 0", q, len(res.Rows))
		}
	}
	res := mustExec(t, e, "SELECT id FROM r WHERE id BETWEEN ? AND ?", Value{Typ: TypeNull}, NewInt(10))
	if len(res.Rows) != 0 {
		t.Errorf("param NULL bound: %d rows, want 0", len(res.Rows))
	}
}

func TestRangeScanResidualPredicate(t *testing.T) {
	e := rangeFixture(t)
	// The range consumes the id bounds; the m predicate must still filter.
	res := mustExec(t, e, "SELECT id FROM r WHERE id BETWEEN 0 AND 19 AND m >= 10")
	if got := fmt.Sprint(ids(res)); got != fmt.Sprint([]int64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}) {
		t.Errorf("residual filter ids = %s", got)
	}
}

func TestRangeUpdateDelete(t *testing.T) {
	e := rangeFixture(t)
	res := mustExec(t, e, "UPDATE r SET m = -1 WHERE id BETWEEN 5 AND 9")
	if res.Affected != 5 {
		t.Fatalf("update affected %d rows, want 5", res.Affected)
	}
	check := mustExec(t, e, "SELECT id FROM r WHERE m = -1")
	if len(check.Rows) != 5 {
		t.Fatalf("m=-1 rows = %d, want 5", len(check.Rows))
	}
	res = mustExec(t, e, "DELETE FROM r WHERE k >= 25")
	if res.Affected != 5 {
		t.Fatalf("delete affected %d rows, want 5", res.Affected)
	}
	left := mustExec(t, e, "SELECT COUNT(*) FROM r")
	if left.Rows[0][0].Int != 25 {
		t.Fatalf("rows left = %d, want 25", left.Rows[0][0].Int)
	}
}

// --- buffer-pool striping -------------------------------------------------

func TestPoolStripeScaling(t *testing.T) {
	cases := []struct {
		capacity int
		stripes  int
	}{
		{0, 1}, {-4, 1}, {8, 1}, {63, 1}, {64, 2}, {256, 8}, {4096, 16}, {1 << 20, 16},
	}
	for _, c := range cases {
		p := NewBufferPool(c.capacity, 0)
		if got := len(p.stripes); got != c.stripes {
			t.Errorf("capacity %d: stripes = %d, want %d", c.capacity, got, c.stripes)
		}
		if c.capacity <= 0 {
			continue
		}
		total := 0
		for i := range p.stripes {
			total += p.stripes[i].capacity
		}
		if total != c.capacity {
			t.Errorf("capacity %d: stripe capacities sum to %d", c.capacity, total)
		}
	}
}

func TestPoolCountersExactUnderConcurrency(t *testing.T) {
	const capacity = 256
	p := NewBufferPool(capacity, 0)
	page := sealedWith()

	// Phase 1: populate `capacity` distinct pages sequentially — all misses,
	// no evictions possible at exactly full... stripes partition capacity, so
	// stay well under any single stripe's share by using half the capacity.
	const pages = capacity / 2
	for i := 0; i < pages; i++ {
		if _, err := p.Get(PageKey{Table: "t", Page: i}, page); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Misses != pages || st.Hits != 0 {
		t.Fatalf("after load: hits=%d misses=%d, want 0/%d", st.Hits, st.Misses, pages)
	}

	// Phase 2: concurrent re-reads of resident pages are all hits; the
	// pool-global counters must account for every single access.
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := PageKey{Table: "t", Page: (w*131 + i) % pages}
				if _, err := p.Get(key, page); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st = p.Stats()
	if st.Hits != workers*perWorker {
		t.Errorf("hits = %d, want %d", st.Hits, workers*perWorker)
	}
	if st.Misses != pages {
		t.Errorf("misses = %d, want %d (no new pages were read)", st.Misses, pages)
	}
	if st.Evictions != 0 {
		t.Errorf("evictions = %d, want 0", st.Evictions)
	}
}

func TestPoolEvictionAccounting(t *testing.T) {
	const capacity = 64 // 2 stripes
	p := NewBufferPool(capacity, 0)
	page := sealedWith()
	const inserts = 500
	for i := 0; i < inserts; i++ {
		if _, err := p.Get(PageKey{Table: "t", Page: i}, page); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	resident := p.Len()
	if resident > capacity {
		t.Errorf("resident pages = %d, over capacity %d", resident, capacity)
	}
	if got := int(st.Evictions); got != inserts-resident {
		t.Errorf("evictions = %d, want inserts-resident = %d", got, inserts-resident)
	}
	if st.Misses != inserts {
		t.Errorf("misses = %d, want %d", st.Misses, inserts)
	}
}

// --- the derived ordered view ------------------------------------------------

// keyEdges are the values FuzzKeyOrder pairs every fuzzed value with: NULL,
// both zeros, the infinities and NaN, the integers around 2^53 as INT and as
// FLOAT, a text and a bool.
var keyEdges = []Value{
	Null, NewInt(0), NewFloat(0), NewFloat(math.Copysign(0, -1)),
	NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewFloat(math.NaN()),
	NewInt(1<<53 - 1), NewInt(1<<53 + 1), NewInt(-1<<53 - 1), NewInt(-1<<53 + 1),
	NewFloat(1<<53 - 1), NewFloat(1<<53 + 1), NewFloat(-1<<53 - 1), NewFloat(-1<<53 + 1),
	NewText("k10"), NewBool(true),
}

// FuzzKeyOrder checks that keys sort as their values do: for the fuzzed value
// and each of keyEdges and the fuzzed INT, FLOAT and TEXT, strings.Compare of
// the two keys is Compare of the two values. The seed corpus is
// testdata/fuzz/FuzzKeyOrder.
func FuzzKeyOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, typ uint8, i int64, fl float64, s string, b bool) {
		var v Value
		switch Type(typ % 5) {
		case TypeInt:
			v = NewInt(i)
		case TypeFloat:
			v = NewFloat(fl)
		case TypeText:
			v = NewText(s)
		case TypeBool:
			v = NewBool(b)
		}
		k := keyOf(v)
		for _, w := range append(keyEdges, NewInt(i), NewFloat(fl), NewText(s)) {
			if got, want := strings.Compare(k, keyOf(w)), Compare(v, w); got != want {
				t.Fatalf("keys %q of %#v and %q of %#v compare %d, values %d", k, v, keyOf(w), w, got, want)
			}
		}
	})
}

// rangeModelKinds are the key populations of TestRangeModel: each draws PK
// and indexed-column values from a small domain, so inserts collide, deletes
// empty keys and bounds fall on, between and outside live keys.
var rangeModelKinds = []struct {
	name, typ string
	gen       func(rng *rand.Rand) Value
}{
	{"int", "INT", func(rng *rand.Rand) Value { return NewInt(int64(rng.Intn(120) - 60)) }},
	{"int-float", "FLOAT", func(rng *rand.Rand) Value {
		n := rng.Intn(60) - 30
		switch rng.Intn(4) {
		case 0:
			return NewInt(int64(n)) // stored as FLOAT, keyed as a decimal
		case 1:
			return NewFloat(float64(n))
		case 2:
			return NewFloat(float64(n) + 0.5)
		default:
			return NewFloat(float64(n) * 1e15) // some beyond 2^53
		}
	}},
	{"quoted-text", "TEXT", func(rng *rand.Rand) Value {
		n := rng.Intn(40)
		switch rng.Intn(5) {
		case 0:
			return NewText(fmt.Sprintf("it's %d", n))
		case 1:
			return NewText(strings.Repeat("'", n%4)) // "", ', '', '''
		case 2:
			return NewText(strconv.Itoa(n)) // digits only
		case 3:
			return NewText([]string{"NULL", "TRUE", "''", "a''b"}[n%4])
		default:
			return NewText(fmt.Sprintf("k%02d", n))
		}
	}},
	{"float-edges", "FLOAT", func(rng *rand.Rand) Value {
		n := float64(rng.Intn(20) - 10)
		switch rng.Intn(6) {
		case 0:
			return NewFloat(math.NaN())
		case 1:
			return NewFloat(math.Inf(1 - 2*rng.Intn(2)))
		case 2:
			return NewFloat(math.Copysign(0, -1))
		case 3:
			return NewFloat(n + 0.5)
		default:
			return NewFloat(n)
		}
	}},
}

// TestRangeModel interleaves INSERT, DELETE and UPDATEs of the key with range
// queries and equality lookups on the primary key (id) and an indexed column
// (k), and checks every result against the scan plan on the unindexed twins
// (idt, kt). With warm, range queries run before the first mutation, so the
// sorted views are derived from the loaded table and every later change goes
// through the incremental path; without, the views are first derived mid-run.
func TestRangeModel(t *testing.T) {
	for _, kind := range rangeModelKinds {
		for _, warm := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/warm=%v", kind.name, warm), func(t *testing.T) {
				runRangeModel(t, kind.typ, kind.gen, warm)
			})
		}
	}
}

func runRangeModel(t *testing.T, typ string, gen func(*rand.Rand) Value, warm bool) {
	rng := rand.New(rand.NewSource(24))
	e := newTestDB(t)
	mustExec(t, e, fmt.Sprintf("CREATE TABLE r (id %s PRIMARY KEY, k %s, idt %s, kt %s)", typ, typ, typ, typ))
	mustExec(t, e, "CREATE INDEX r_k ON r (k)")
	live := map[string]Value{} // by key string: the model only picks victims and avoids duplicates

	insert := func() {
		id, k := gen(rng), gen(rng)
		if _, dup := live[keyOf(id)]; dup {
			return
		}
		mustExec(t, e, "INSERT INTO r VALUES (?, ?, ?, ?)", id, k, id, k)
		live[keyOf(id)] = id
	}
	victim := func() (Value, bool) {
		keys := make([]string, 0, len(live))
		for k := range live {
			keys = append(keys, k)
		}
		if len(keys) == 0 {
			return Null, false
		}
		sort.Strings(keys)
		return live[keys[rng.Intn(len(keys))]], true
	}
	rendered := func(sql string, params ...Value) string {
		res := mustExec(t, e, sql, params...)
		out := make([]string, 0, len(res.Rows))
		for _, row := range res.Rows {
			out = append(out, row[0].String())
		}
		sort.Strings(out)
		return fmt.Sprint(out)
	}
	preds := []string{"%s >= ? AND %s < ?", "%s BETWEEN ? AND ?", "%s > ? AND %s <= ?"}
	checkRanges := func(step int) {
		lo, hi := gen(rng), gen(rng)
		if Compare(lo, hi) > 0 && rng.Intn(4) > 0 { // keep some inverted ranges
			lo, hi = hi, lo
		}
		pred := preds[rng.Intn(len(preds))]
		for _, cols := range [][2]string{{"id", "idt"}, {"k", "kt"}} {
			q := "SELECT id FROM r WHERE " + sprintfPred(pred, cols[0])
			if got := explainAccessOf(t, e, q, lo, hi); got != "range" {
				t.Fatalf("%s: access %v, want range", q, got)
			}
			got := rendered(q, lo, hi)
			want := rendered("SELECT id FROM r WHERE "+sprintfPred(pred, cols[1]), lo, hi)
			if got != want {
				t.Fatalf("step %d: %s [%s, %s]: range plan %s, scan plan %s", step, q, lo, hi, got, want)
			}
			got = rendered("SELECT id FROM r WHERE "+cols[0]+" < ?", hi) // one-sided
			want = rendered("SELECT id FROM r WHERE "+cols[1]+" < ?", hi)
			if got != want {
				t.Fatalf("step %d: %s < %s: range plan %s, scan plan %s", step, cols[0], hi, got, want)
			}
			got = rendered("SELECT id FROM r WHERE "+cols[0]+" = ?", lo) // a point or index lookup
			want = rendered("SELECT id FROM r WHERE "+cols[1]+" = ?", lo)
			if got != want {
				t.Fatalf("step %d: %s = %s: key lookup %s, scan plan %s", step, cols[0], lo, got, want)
			}
		}
	}

	for len(live) < 40 {
		insert()
	}
	if warm {
		checkRanges(0)
	}
	for step := 1; step <= 400; step++ {
		switch op := rng.Intn(10); {
		case op < 3:
			insert()
		case op < 5:
			if id, ok := victim(); ok {
				mustExec(t, e, "DELETE FROM r WHERE id = ?", id)
				delete(live, keyOf(id))
			}
		case op < 6:
			id, ok := victim()
			to := gen(rng)
			if _, dup := live[keyOf(to)]; ok && !dup {
				mustExec(t, e, "UPDATE r SET id = ?, idt = ? WHERE id = ?", to, to, id)
				delete(live, keyOf(id))
				live[keyOf(to)] = to
			}
		case op < 7:
			if id, ok := victim(); ok {
				to := gen(rng)
				mustExec(t, e, "UPDATE r SET k = ?, kt = ? WHERE id = ?", to, to, id)
			}
		default:
			checkRanges(step)
		}
	}
	checkRanges(401)

	// What add and drop kept current is what a fresh derivation would build.
	tbl := e.dbs["app"]["r"]
	tbl.mu.Lock()
	defer tbl.mu.Unlock()
	sameKeys(t, "primary key", tbl.pkOrd.ord, deriveKeys(tbl.pk))
	sameKeys(t, "index k", tbl.indexes["k"].ord.ord, deriveKeys(tbl.indexes["k"].m))
}

func sameKeys(t *testing.T, what string, kept, derived []string) {
	t.Helper()
	if kept == nil {
		t.Fatalf("%s: sorted view was never built", what)
	}
	if len(kept) != len(derived) {
		t.Fatalf("%s: %d keys kept, %d in the hash index", what, len(kept), len(derived))
	}
	for i := range kept {
		if kept[i] != derived[i] {
			t.Fatalf("%s: position %d holds %q, derived %q", what, i, kept[i], derived[i])
		}
	}
}
