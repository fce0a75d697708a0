package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"sdp/internal/netsim"
	"sdp/internal/replcopy"
	"sdp/internal/sla"
	"sdp/internal/sqldb"
)

// tableDigest is one table's COUNT(*) and SUM(n), read from a machine's
// engine directly.
func tableDigest(t *testing.T, m *Machine, tbl string) string {
	t.Helper()
	res, err := m.Engine().Exec("app", "SELECT COUNT(*), SUM(n) FROM "+tbl)
	if err != nil {
		t.Fatalf("%s: digest of %s: %v", m.ID(), tbl, err)
	}
	return fmt.Sprint(res.Rows[0])
}

// wantSameTables requires got to hold exactly want's tables of app, each with
// want's digest.
func wantSameTables(t *testing.T, want, got *Machine) {
	t.Helper()
	tables := want.Engine().Tables("app")
	if g := got.Engine().Tables("app"); fmt.Sprint(g) != fmt.Sprint(tables) {
		t.Fatalf("%s holds tables %v, %s holds %v", got.ID(), g, want.ID(), tables)
	}
	for _, tbl := range tables {
		if w, g := tableDigest(t, want, tbl), tableDigest(t, got, tbl); w != g {
			t.Fatalf("table %s: %s has %s, %s has %s", tbl, got.ID(), g, want.ID(), w)
		}
	}
}

// TestCopyReplicaCases drives every kind of target through the one copy
// driver, at both granularities. Each case ends the same way: the target is
// crashed the moment the copy returns and restarted from its own log with no
// checkpoint in between, and must then still match the source table for
// table — the restore frames alone carry the copy.
func TestCopyReplicaCases(t *testing.T) {
	const rows = 300
	type fixture struct {
		c      *Cluster
		n      *netsim.Network
		m2, m3 *Machine
	}
	// downAndUp fails m2, runs the writes it misses, and restarts it.
	downAndUp := func(t *testing.T, f fixture, missed func()) {
		t.Helper()
		if _, err := f.c.FailMachine("m2"); err != nil {
			t.Fatal(err)
		}
		missed()
		if _, err := f.c.RestartMachine("m2"); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		// prepare returns the copy's target; wantCopied is how many tables
		// the copy must dump.
		prepare    func(t *testing.T, f fixture) *Machine
		wantCopied uint64
	}{
		{name: "fresh_target", wantCopied: 3,
			prepare: func(t *testing.T, f fixture) *Machine { return f.m3 }},
		{name: "restarted_all_clean", wantCopied: 0,
			prepare: func(t *testing.T, f fixture) *Machine {
				downAndUp(t, f, func() {})
				return f.m2
			}},
		{name: "restarted_tables_written", wantCopied: 1,
			prepare: func(t *testing.T, f fixture) *Machine {
				downAndUp(t, f, func() {
					clusterExec(t, f.c, "UPDATE hot SET n = n + 1000 WHERE id <= 100")
					clusterExec(t, f.c, "DELETE FROM hot WHERE id > 290")
					clusterExec(t, f.c, "INSERT INTO hot VALUES (9001, 1)")
				})
				return f.m2
			}},
		{name: "restarted_in_doubt_committed", wantCopied: 0,
			prepare: func(t *testing.T, f fixture) *Machine {
				// m2 dies between acking PREPARE and receiving COMMIT: its
				// restart commits the in-doubt branch from m1's commit frame,
				// so cold is as clean as its write counter says.
				f.n.OnDeliver(func(ci netsim.CallInfo) {
					if ci.Op == "prepare" && ci.To == "m2" {
						if _, err := f.c.FailMachine("m2"); err != nil {
							t.Errorf("FailMachine: %v", err)
						}
					}
				})
				clusterExec(t, f.c, "INSERT INTO cold VALUES (9002, 7)")
				f.n.ClearHooks()
				stats, err := f.c.RestartMachine("m2")
				if err != nil {
					t.Fatal(err)
				}
				if stats.InDoubt != 1 {
					t.Fatalf("InDoubt = %d, want 1", stats.InDoubt)
				}
				return f.m2
			}},
		{name: "stale_half_copied_target", wantCopied: 3,
			prepare: func(t *testing.T, f fixture) *Machine {
				// What an aborted copy leaves when its cleanup cannot reach
				// the target: a wrong version of one table, and one the
				// source never had.
				eng := f.m3.Engine()
				if err := eng.CreateDatabase("app"); err != nil {
					t.Fatal(err)
				}
				f.m3.dbCount.Add(1)
				for _, sql := range []string{
					"CREATE TABLE hot (id INT PRIMARY KEY, n INT)", "INSERT INTO hot VALUES (1, -5)",
					"CREATE TABLE leftover (id INT PRIMARY KEY, n INT)",
				} {
					if _, err := eng.Exec("app", sql); err != nil {
						t.Fatal(err)
					}
				}
				return f.m3
			}},
		{name: "table_dropped_while_down", wantCopied: 1,
			prepare: func(t *testing.T, f fixture) *Machine {
				downAndUp(t, f, func() {
					clusterExec(t, f.c, "DROP TABLE doomed")
					clusterExec(t, f.c, "CREATE TABLE born (id INT PRIMARY KEY, n INT)")
					clusterExec(t, f.c, "INSERT INTO born VALUES (1, 11)")
				})
				return f.m2
			}},
	}
	for _, g := range []sqldb.DumpGranularity{sqldb.GranularityTable, sqldb.GranularityDatabase} {
		for _, tc := range cases {
			t.Run(g.String()+"/"+tc.name, func(t *testing.T) {
				opts, n := netOpts(21)
				opts.CopyGranularity = g
				c := newTestCluster(t, 3, opts) // app lives on m1 and m2
				for _, tbl := range []string{"hot", "cold", "doomed"} {
					clusterExec(t, c, "CREATE TABLE "+tbl+" (id INT PRIMARY KEY, n INT)")
					for i := 1; i <= rows; i += 50 {
						sql := "INSERT INTO " + tbl + " VALUES "
						for j := i; j < i+50; j++ {
							sql += fmt.Sprintf("(%d, %d),", j, j*3)
						}
						clusterExec(t, c, sql[:len(sql)-1])
					}
				}
				f := fixture{c: c, n: n}
				f.m2, _ = c.Machine("m2")
				f.m3, _ = c.Machine("m3")
				source, _ := c.Machine("m1")

				target := tc.prepare(t, f)
				c.mu.Lock()
				marks := target.usableMarks("app", c.dbs["app"].epoch)
				c.mu.Unlock()
				copiedBefore := c.metrics.copyPhase.With("table_copied").Value()
				writebacksBefore := c.metrics.poolWritebacks.Value()
				rowsDecoded := func() float64 {
					return c.metrics.reg.Snapshot().Gauge("sqldb_engine_stat", "cluster", c.name, "stat", "pool_rows_decoded")
				}
				decodedBefore := rowsDecoded()
				if err := c.copyReplica("app", target, marks); err != nil {
					t.Fatalf("copyReplica: %v", err)
				}
				if got := c.metrics.copyPhase.With("table_copied").Value() - copiedBefore; got != tc.wantCopied {
					t.Errorf("tables copied = %d, want %d", got, tc.wantCopied)
				}
				// Nothing was ever evicted from the source's pool, so every sealed
				// page it holds is still dirty, its newest rows unencoded: a full
				// copy writes each back exactly once, as it dumps it.
				if got := c.metrics.poolWritebacks.Value() - writebacksBefore; tc.wantCopied == 3 && got != 3*(rows/64) {
					t.Errorf("sqldb_pool_writebacks_total rose by %d during a full copy, want %d", got, 3*(rows/64))
				}
				// A full copy decodes no row: the dump moves each row's encoding,
				// of the pages it reads cold and of each table's open tail page,
				// and the target stores it as it came.
				if got := rowsDecoded() - decodedBefore; tc.wantCopied == 3 && got != 0 {
					t.Errorf("pool_rows_decoded rose by %v during a full copy, want 0", got)
				}
				if reps, _ := c.Replicas("app"); !contains(reps, target.ID()) {
					t.Fatalf("replicas = %v, want %s among them", reps, target.ID())
				}
				wantSameTables(t, source, target)
				// The new replica takes writes like any other.
				clusterExec(t, c, "INSERT INTO hot VALUES (9100, 1)")
				clusterExec(t, c, "UPDATE cold SET n = 0 WHERE id = 1")

				if _, err := c.FailMachine(target.ID()); err != nil {
					t.Fatal(err)
				}
				if _, err := c.RestartMachine(target.ID()); err != nil {
					t.Fatal(err)
				}
				wantSameTables(t, source, target)
				if got, want := int(target.dbCount.Load()), len(target.Engine().Databases()); got != want {
					t.Errorf("%s counts %d hosted databases, holds %d", target.ID(), got, want)
				}
			})
		}
	}
}

// TestCopyApplyFailureAbortsDatabaseCopy makes one table's restore fail on
// the target after another's was applied there: a netsim hook partitions
// the source from the target once a's apply is delivered, so b's fails.
// Under database granularity the apply error used to be dropped and the
// existence check passed: the copy must instead abort, leave the replica
// set alone and leave nothing on the target.
func TestCopyApplyFailureAbortsDatabaseCopy(t *testing.T) {
	opts, net := netOpts(5)
	opts.CopyGranularity = sqldb.GranularityDatabase
	c := newTestCluster(t, 3, opts)
	clusterExec(t, c, "CREATE TABLE a (id INT PRIMARY KEY, n INT)")
	clusterExec(t, c, "CREATE TABLE b (id INT PRIMARY KEY, n INT)")
	clusterExec(t, c, "INSERT INTO a VALUES (1, 1)")
	clusterExec(t, c, "INSERT INTO b VALUES (1, 7)")
	net.OnDeliver(func(ci netsim.CallInfo) {
		if ci.Op == "copy_apply" {
			net.Partition(ci.From, ci.To)
		}
	})

	err := c.CreateReplica("app", "m3")
	net.ClearHooks()
	net.HealAll()
	if !errors.Is(err, netsim.ErrPartitioned) {
		t.Fatalf("CreateReplica err = %v, want b's apply's ErrPartitioned", err)
	}
	if reps, _ := c.Replicas("app"); len(reps) != 2 || contains(reps, "m3") {
		t.Fatalf("replicas after failed copy = %v", reps)
	}
	m3, _ := c.Machine("m3")
	if m3.Engine().HasDatabase("app") {
		t.Fatal("failed copy left its database on the target")
	}
	if got := m3.dbCount.Load(); got != 0 {
		t.Fatalf("target counts %d hosted databases, want 0", got)
	}
	// Nothing is left in flight: writes flow.
	clusterExec(t, c, "INSERT INTO a VALUES (2, 2)")
}

// TestCatchUpCrossesTheNetwork partitions the source from a restarted target:
// the catch-up copy's apply step crosses that link, so recovery must fail —
// retryably — and succeed once the partition heals.
func TestCatchUpCrossesTheNetwork(t *testing.T) {
	opts, n := netOpts(22)
	c := newTestCluster(t, 2, opts)
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	clusterExec(t, c, "INSERT INTO t VALUES (1, 1)")
	affected, err := c.FailMachine("m2")
	if err != nil {
		t.Fatal(err)
	}
	clusterExec(t, c, "INSERT INTO t VALUES (2, 2)")
	if _, err := c.RestartMachine("m2"); err != nil {
		t.Fatal(err)
	}

	n.PartitionPair("m1", "m2")
	report := c.RecoverDatabases(affected, 1)
	if err := report.Failed["app"]; !IsRetryable(err) {
		t.Fatalf("recovery across a partition: err = %v, want a retryable failure", err)
	}
	if reps, _ := c.Replicas("app"); len(reps) != 1 {
		t.Fatalf("replicas during partition = %v", reps)
	}
	clusterExec(t, c, "INSERT INTO t VALUES (3, 3)") // the failed copy left nothing in flight

	n.HealAll()
	if report := c.RecoverDatabases(affected, 1); len(report.Failed) != 0 {
		t.Fatalf("recovery after heal: %v", report.Failed)
	}
	if reps, _ := c.Replicas("app"); len(reps) != 2 {
		t.Fatalf("replicas after heal = %v", reps)
	}
	m1, _ := c.Machine("m1")
	m2, _ := c.Machine("m2")
	wantSameTables(t, m1, m2)
}

// TestSLAReservationsFollowReplicas places a database with an SLA and walks
// it through failure, recovery on both paths, growth and shrinkage: at every
// step the machines' reservations must add up to one per replica, on the
// machines that hold the replicas.
func TestSLAReservationsFollowReplicas(t *testing.T) {
	req := sla.Resources{CPU: 0.3, Memory: 0.2, Disk: 0.1, DiskBW: 0.1}
	c := NewCluster("sla", Options{Replicas: 2})
	if _, err := c.AddMachines(4); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PlaceWithSLA("app", req, 2); err != nil {
		t.Fatal(err)
	}
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	clusterExec(t, c, "INSERT INTO t VALUES (1, 1)")

	check := func(step string) {
		t.Helper()
		reps, _ := c.Replicas("app")
		for _, id := range c.MachineIDs() {
			m, _ := c.Machine(id)
			want := sla.Resources{}
			if contains(reps, id) {
				want = req
			}
			got := m.Used()
			d := got.Sub(want)
			if drift := math.Abs(d.CPU) + math.Abs(d.Memory) + math.Abs(d.Disk) + math.Abs(d.DiskBW); drift > 1e-9 {
				t.Fatalf("%s: %s reserves %v, want %v (replicas %v)", step, id, got, want, reps)
			}
		}
	}
	recover := func(step, path string) {
		t.Helper()
		before := c.metrics.walRecovery.With(path).Value()
		if report := c.RecoverDatabases([]string{"app"}, 1); len(report.Failed) != 0 {
			t.Fatalf("%s: %v", step, report.Failed)
		}
		if c.metrics.walRecovery.With(path).Value() != before+1 {
			t.Fatalf("%s: did not take the %s path", step, path)
		}
		check(step)
	}
	check("placed")

	// Full path: the failed machine stays down, another takes the replica.
	reps, _ := c.Replicas("app")
	if _, err := c.FailMachine(reps[1]); err != nil {
		t.Fatal(err)
	}
	check("failed")
	recover("recovered onto a fresh machine", "full")
	// The dead machine comes back with its log-recovered copy, which is not a
	// replica and reserves nothing.
	if _, err := c.RestartMachine(reps[1]); err != nil {
		t.Fatal(err)
	}
	check("old replica restarted")

	// Fast path: a replica fails and a restarted machine is caught up.
	reps, _ = c.Replicas("app")
	if _, err := c.FailMachine(reps[1]); err != nil {
		t.Fatal(err)
	}
	clusterExec(t, c, "INSERT INTO t VALUES (2, 2)")
	if _, err := c.RestartMachine(reps[1]); err != nil {
		t.Fatal(err)
	}
	check("restarted")
	recover("caught up", "fast")

	// Grow onto a third machine, then shrink the recovered replica away.
	reps, _ = c.Replicas("app")
	var spare string
	for _, id := range c.MachineIDs() {
		if !contains(reps, id) {
			spare = id
		}
	}
	if err := c.GrowReplica("app", spare); err != nil {
		t.Fatal(err)
	}
	check("grown")
	if err := c.ShrinkReplica("app", reps[1]); err != nil {
		t.Fatal(err)
	}
	check("shrunk")
}

// TestCopyKeepsValuesBitForBit copies a table holding every awkward value
// onto a new replica and checks that the copy, and the target after it
// replays the copy's restore frame, hold the source's cells bit for bit and
// answer point, index-equality and range queries as the source does.
func TestCopyKeepsValuesBitForBit(t *testing.T) {
	c := newTestCluster(t, 3, Options{Replicas: 2}) // app lives on m1 and m2
	clusterExec(t, c, "CREATE TABLE e (id INT PRIMARY KEY, n INT, f FLOAT, s TEXT, b BOOL)")
	clusterExec(t, c, "CREATE UNIQUE INDEX e_n ON e (n)")
	clusterExec(t, c, "CREATE INDEX e_s ON e (s)")
	ints := []sqldb.Value{sqldb.NewInt(math.MinInt64), sqldb.NewInt(math.MaxInt64), sqldb.NewInt(1<<53 + 1), sqldb.Null}
	floats := []sqldb.Value{
		sqldb.NewFloat(math.NaN()), sqldb.NewFloat(math.Inf(1)), sqldb.NewFloat(math.Inf(-1)),
		sqldb.NewFloat(math.Copysign(0, -1)), sqldb.NewFloat(0.1), sqldb.Null,
	}
	texts := []sqldb.Value{sqldb.NewText(""), sqldb.NewText("it's"), sqldb.NewText("naïve ✓ 日本"), sqldb.Null}
	bools := []sqldb.Value{sqldb.NewBool(true), sqldb.NewBool(false), sqldb.Null}
	const rows = 100 // a sealed page and a tail
	var ids []sqldb.Value
	for i := 0; i < rows; i++ {
		id, n := sqldb.NewInt(int64(i)), sqldb.NewInt(int64(i)*10)
		if i < len(ints) {
			id, n = ints[i], ints[len(ints)-1-i]
			if id.IsNull() {
				id = sqldb.NewInt(-1)
			}
		}
		ids = append(ids, id)
		clusterExec(t, c, "INSERT INTO e VALUES (?, ?, ?, ?, ?)", id, n, floats[i%len(floats)], texts[i%len(texts)], bools[i%len(bools)])
	}

	type query struct {
		sql    string
		params []sqldb.Value
	}
	queries := []query{{"SELECT id, n, f, s, b FROM e ORDER BY id", nil}}
	for _, id := range ids {
		queries = append(queries, query{"SELECT id, n, f, s, b FROM e WHERE id = ?", []sqldb.Value{id}})
	}
	for _, v := range append(append([]sqldb.Value{}, ints[:3]...), sqldb.NewInt(990)) {
		queries = append(queries, query{"SELECT id, f FROM e WHERE n = ?", []sqldb.Value{v}})
	}
	for _, v := range texts[:3] {
		queries = append(queries, query{"SELECT id, f, b FROM e WHERE s = ? ORDER BY id", []sqldb.Value{v}})
	}
	queries = append(queries,
		query{"SELECT id, n FROM e WHERE id BETWEEN ? AND ? ORDER BY id", []sqldb.Value{sqldb.NewInt(-1), sqldb.NewInt(70)}},
		query{"SELECT id, n FROM e WHERE n > ? ORDER BY n", []sqldb.Value{sqldb.NewInt(500)}},
		query{"SELECT id, s FROM e WHERE s >= ? ORDER BY id", []sqldb.Value{sqldb.NewText("it")}},
		query{"SELECT id FROM e WHERE id < ? ORDER BY id", []sqldb.Value{sqldb.NewInt(0)}},
	)
	read := func(m *Machine, q query) []sqldb.Row {
		t.Helper()
		res, err := m.Engine().Exec("app", q.sql, q.params...)
		if err != nil {
			t.Fatalf("%s: %s %v: %v", m.ID(), q.sql, q.params, err)
		}
		return res.Rows
	}
	// same compares two cells bit for bit: a float by its bits, so NaN equals
	// NaN and -0 differs from +0.
	same := func(a, b sqldb.Value) bool {
		if a.Typ == sqldb.TypeFloat && b.Typ == sqldb.TypeFloat {
			return math.Float64bits(a.Float) == math.Float64bits(b.Float)
		}
		return a == b
	}
	source, _ := c.Machine("m1")
	want := make([][]sqldb.Row, len(queries))
	for i, q := range queries {
		want[i] = read(source, q)
	}
	if got := len(want[0]); got != rows {
		t.Fatalf("source holds %d rows, want %d", got, rows)
	}
	check := func(what string, m *Machine) {
		t.Helper()
		for i, q := range queries {
			got := read(m, q)
			if len(got) == 0 && i > 0 && i <= len(ids) {
				t.Fatalf("%s: %s %v found no row", what, q.sql, q.params)
			}
			if len(got) != len(want[i]) {
				t.Fatalf("%s: %s %v: %d rows, source %d", what, q.sql, q.params, len(got), len(want[i]))
			}
			for r := range got {
				for col := range got[r] {
					if !same(got[r][col], want[i][r][col]) {
						t.Fatalf("%s: %s %v: row %d column %d is %#v, source %#v", what, q.sql, q.params, r, col, got[r][col], want[i][r][col])
					}
				}
			}
		}
	}

	if err := c.GrowReplica("app", "m3"); err != nil {
		t.Fatal(err)
	}
	target, _ := c.Machine("m3")
	check("copy", target)
	if _, err := c.FailMachine("m3"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RestartMachine("m3"); err != nil {
		t.Fatal(err)
	}
	check("replay", target)
}

// TestWriteAfterImageWaitsForApply holds a copy in its first apply, after
// the written table's image was taken and before the dump lets go of its
// read locks. A write on that table must wait at the head for them rather
// than be rejected, and once the apply returns it must land on every
// replica, the registered target included. At table granularity the held
// apply is table a's, with b still pending; at database granularity every
// table is copied once the last image is taken, so both already are, and
// the write goes to b, whose image the target does not have yet.
func TestWriteAfterImageWaitsForApply(t *testing.T) {
	for _, gran := range []sqldb.DumpGranularity{sqldb.GranularityTable, sqldb.GranularityDatabase} {
		t.Run(gran.String(), func(t *testing.T) {
			opts, net := netOpts(5)
			opts.CopyGranularity = gran
			c := newTestCluster(t, 3, opts)
			for _, tbl := range []string{"a", "b"} {
				clusterExec(t, c, "CREATE TABLE "+tbl+" (id INT PRIMARY KEY, n INT)")
				clusterExec(t, c, "INSERT INTO "+tbl+" VALUES (1, 1)")
			}
			reps, _ := c.Replicas("app")
			var target string
			for _, id := range c.MachineIDs() {
				if !contains(reps, id) {
					target = id
				}
			}
			written, want := "a", map[string]replcopy.Table{"a": replcopy.Copied, "b": replcopy.Pending}
			if gran == sqldb.GranularityDatabase {
				written, want["b"] = "b", replcopy.Copied
			}

			atApply, applyGo := make(chan struct{}), make(chan struct{})
			var applies atomic.Int32
			net.OnDeliver(func(ci netsim.CallInfo) {
				if ci.Op == "copy_apply" && applies.Add(1) == 1 {
					close(atApply)
					<-applyGo
				}
			})
			copied := make(chan error, 1)
			go func() { copied <- c.CreateReplica("app", target) }()
			<-atApply
			c.mu.Lock()
			got := map[string]replcopy.Table{"a": c.dbs["app"].copying.tables["a"], "b": c.dbs["app"].copying.tables["b"]}
			c.mu.Unlock()
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("table phases in the first apply = %v, want %v", got, want)
			}

			wrote := make(chan error, 1)
			go func() {
				_, err := c.Exec("app", "UPDATE "+written+" SET n = 2 WHERE id = 1")
				wrote <- err
			}()
			select {
			case err := <-wrote:
				t.Fatalf("a write on %s returned %v while the copy held its apply; want it to wait", written, err)
			case <-time.After(50 * time.Millisecond):
			}
			close(applyGo)
			if err := <-wrote; err != nil {
				t.Fatalf("write on %s after the apply: %v", written, err)
			}
			if err := <-copied; err != nil {
				t.Fatalf("CreateReplica: %v", err)
			}
			if reps, _ = c.Replicas("app"); len(reps) != 3 || !contains(reps, target) {
				t.Fatalf("replicas = %v, want the target %s registered", reps, target)
			}
			for _, id := range reps {
				m, _ := c.Machine(id)
				res, err := m.Engine().Exec("app", "SELECT n FROM "+written+" WHERE id = 1")
				if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int != 2 {
					t.Fatalf("%s: %s holds %v (err %v), want the write's n = 2", id, written, res, err)
				}
			}
		})
	}
}

// TestCreateTableDuringCopyReachesTarget creates a table while a copy holds
// its first apply: the copy listed the source's tables before the create, so
// a create let through then would never reach the target. It is refused as
// retryable and succeeds once retried after the copy, and the registered
// target holds the table and takes its writes like every replica.
func TestCreateTableDuringCopyReachesTarget(t *testing.T) {
	opts, net := netOpts(5)
	c := newTestCluster(t, 3, opts)
	clusterExec(t, c, "CREATE TABLE a (id INT PRIMARY KEY, n INT)")
	clusterExec(t, c, "INSERT INTO a VALUES (1, 1)")
	target := otherMachine(t, c)

	atApply, applyGo := make(chan struct{}), make(chan struct{})
	var applies atomic.Int32
	net.OnDeliver(func(ci netsim.CallInfo) {
		if ci.Op == "copy_apply" && applies.Add(1) == 1 {
			close(atApply)
			<-applyGo
		}
	})
	copied := make(chan error, 1)
	go func() { copied <- c.CreateReplica("app", target) }()
	<-atApply
	const create = "CREATE TABLE z (id INT PRIMARY KEY, n INT)"
	_, err := c.Exec("app", create)
	if err != nil && !IsRetryable(err) {
		t.Fatalf("CREATE TABLE during the copy: %v, want success or a retryable refusal", err)
	}
	close(applyGo)
	if err := <-copied; err != nil {
		t.Fatalf("CreateReplica: %v", err)
	}
	if err != nil {
		clusterExec(t, c, create)
	}
	reps, _ := c.Replicas("app")
	if len(reps) != 3 || !contains(reps, target) {
		t.Fatalf("replicas = %v, want the target %s registered", reps, target)
	}
	for i := 1; i <= 4; i++ {
		if _, err := c.Exec("app", "INSERT INTO z VALUES (?, 1)", sqldb.NewInt(int64(i))); err != nil {
			t.Fatalf("INSERT INTO z after the copy: %v", err)
		}
	}
	head, _ := c.Machine(reps[0])
	for _, id := range reps[1:] {
		m, _ := c.Machine(id)
		wantSameTables(t, head, m)
	}
}

// holdCreate starts CREATE TABLE z on app and returns once it is routed
// but has not run anywhere: a netsim hook holds its head session's begin
// until release is called. done yields the statement's error.
func holdCreate(t *testing.T, c *Cluster, net *netsim.Network) (release func(), done <-chan error) {
	t.Helper()
	var armed atomic.Bool
	atBegin, beginGo := make(chan struct{}), make(chan struct{})
	net.OnDeliver(func(ci netsim.CallInfo) {
		if ci.Op == "begin" && armed.CompareAndSwap(true, false) {
			close(atBegin)
			<-beginGo
		}
	})
	armed.Store(true)
	created := make(chan error, 1)
	go func() {
		_, err := c.Exec("app", "CREATE TABLE z (id INT PRIMARY KEY, n INT)")
		created <- err
	}()
	<-atBegin
	return func() { close(beginGo) }, created
}

// TestCopyWaitsForCreateInFlight routes a CREATE TABLE and holds it before
// its head share, then asks for a copy. A copy that began now would list
// the source's tables without z, and the create, let go while the copy
// runs, would settle its rest without the target. The copy waits for the
// create instead, and carries z to its target.
func TestCopyWaitsForCreateInFlight(t *testing.T) {
	opts, net := netOpts(5)
	c := newTestCluster(t, 3, opts)
	clusterExec(t, c, "CREATE TABLE a (id INT PRIMARY KEY, n INT)")
	target := otherMachine(t, c)

	release, created := holdCreate(t, c, net)
	atApply, applyGo := make(chan struct{}), make(chan struct{})
	var applies atomic.Int32
	net.OnDeliver(func(ci netsim.CallInfo) {
		if ci.Op == "copy_apply" && applies.Add(1) == 1 {
			close(atApply)
			<-applyGo
		}
	})
	copied := make(chan error, 1)
	go func() { copied <- c.CreateReplica("app", target) }()
	select {
	case <-atApply:
		t.Error("the copy reached its first apply with a create in flight")
	case <-time.After(200 * time.Millisecond):
	}
	release()
	if err := <-created; err != nil {
		t.Fatalf("CREATE TABLE: %v", err)
	}
	close(applyGo)
	if err := <-copied; err != nil {
		t.Fatalf("CreateReplica after the create: %v", err)
	}
	clusterExec(t, c, "INSERT INTO z VALUES (1, 1)")
	reps, _ := c.Replicas("app")
	if !contains(reps, target) {
		t.Fatalf("replicas = %v, want the target %s registered", reps, target)
	}
	head, _ := c.Machine(reps[0])
	for _, id := range reps[1:] {
		m, _ := c.Machine(id)
		wantSameTables(t, head, m)
	}
}

// TestRecoveryWaitsForCreateInFlight fails a replica and re-replicates its
// database while a CREATE TABLE is in flight: the recovery's copy waits for
// the create rather than failing, and the database is back at two replicas
// that both hold z.
func TestRecoveryWaitsForCreateInFlight(t *testing.T) {
	opts, net := netOpts(5)
	c := newTestCluster(t, 3, opts)
	clusterExec(t, c, "CREATE TABLE a (id INT PRIMARY KEY, n INT)")
	reps, _ := c.Replicas("app")
	affected, err := c.FailMachine(reps[1])
	if err != nil {
		t.Fatal(err)
	}

	release, created := holdCreate(t, c, net)
	recovered := make(chan RecoveryReport, 1)
	go func() { recovered <- c.RecoverDatabases(affected, 1) }()
	time.Sleep(20 * time.Millisecond)
	release()
	if err := <-created; err != nil {
		t.Fatalf("CREATE TABLE: %v", err)
	}
	if report := <-recovered; len(report.Failed) != 0 {
		t.Fatalf("recovery with a create in flight: %v", report.Failed)
	}
	clusterExec(t, c, "INSERT INTO z VALUES (1, 1)")
	reps, _ = c.Replicas("app")
	if len(reps) != 2 {
		t.Fatalf("replicas = %v after recovery, want 2", reps)
	}
	head, _ := c.Machine(reps[0])
	m, _ := c.Machine(reps[1])
	wantSameTables(t, head, m)
}

// TestCopyGivesUpOnCreatePastLockTimeout holds a create past the engines'
// lock timeout: the copy stops waiting and is refused as in progress.
func TestCopyGivesUpOnCreatePastLockTimeout(t *testing.T) {
	opts, net := netOpts(5)
	opts.EngineConfig = sqldb.DefaultConfig()
	opts.EngineConfig.LockTimeout = 50 * time.Millisecond
	c := newTestCluster(t, 3, opts)
	clusterExec(t, c, "CREATE TABLE a (id INT PRIMARY KEY, n INT)")
	target := otherMachine(t, c)

	release, created := holdCreate(t, c, net)
	start := time.Now()
	err := c.CreateReplica("app", target)
	if !errors.Is(err, ErrCopyInProgress) || time.Since(start) < opts.EngineConfig.LockTimeout {
		t.Errorf("CreateReplica after %v with a create held: %v, want ErrCopyInProgress after the lock timeout", time.Since(start), err)
	}
	release()
	if err := <-created; err != nil {
		t.Fatalf("CREATE TABLE: %v", err)
	}
}

// otherMachine returns a machine of c that is no replica of app.
func otherMachine(t *testing.T, c *Cluster) string {
	t.Helper()
	reps, _ := c.Replicas("app")
	for _, id := range c.MachineIDs() {
		if !contains(reps, id) {
			return id
		}
	}
	t.Fatal("every machine is a replica of app")
	return ""
}

// holdHeadBegin installs a netsim hook that, once armed, stops the next
// branch opening on head: it closes at and waits for release. Every other
// call goes to also, if it is set.
func holdHeadBegin(net *netsim.Network, head string, at, release chan struct{}, also func(netsim.CallInfo)) *atomic.Bool {
	var armed atomic.Bool
	net.OnDeliver(func(ci netsim.CallInfo) {
		if ci.Op == "begin" && ci.To == head && armed.CompareAndSwap(true, false) {
			close(at)
			<-release
			return
		}
		if also != nil {
			also(ci)
		}
	})
	return &armed
}

// TestPendingWriteWaitsForDumpLock routes a write on table b while a copy
// applies table a, with b still pending, and holds the write's head share
// until the dump holds b's read lock. The share must wait for the lock, and
// the write must then commit and be on the registered target: its rest is
// settled after b's image, so it goes there.
func TestPendingWriteWaitsForDumpLock(t *testing.T) {
	opts, net := netOpts(5)
	c := newTestCluster(t, 3, opts)
	for _, tbl := range []string{"a", "b"} {
		clusterExec(t, c, "CREATE TABLE "+tbl+" (id INT PRIMARY KEY, n INT)")
		clusterExec(t, c, "INSERT INTO "+tbl+" VALUES (1, 1)")
	}
	reps, _ := c.Replicas("app")
	target := otherMachine(t, c)

	atA, aGo := make(chan struct{}), make(chan struct{})
	atB, bGo := make(chan struct{}), make(chan struct{})
	writeAt := make(chan struct{})
	var applies atomic.Int32
	armed := holdHeadBegin(net, reps[0], writeAt, atB, func(ci netsim.CallInfo) {
		if ci.Op != "copy_apply" {
			return
		}
		switch applies.Add(1) {
		case 1:
			close(atA)
			<-aGo
		case 2:
			close(atB)
			<-bGo
		}
	})
	copied := make(chan error, 1)
	go func() { copied <- c.CreateReplica("app", target) }()
	<-atA
	c.mu.Lock()
	phase := c.dbs["app"].copying.tables["b"]
	c.mu.Unlock()
	if phase != replcopy.Pending {
		t.Fatalf("b is %v in a's apply, want pending", phase)
	}
	armed.Store(true)
	wrote := make(chan error, 1)
	go func() {
		_, err := c.Exec("app", "UPDATE b SET n = 2 WHERE id = 1")
		wrote <- err
	}()
	<-writeAt
	close(aGo)
	<-atB
	select {
	case err := <-wrote:
		t.Fatalf("the write returned %v while the dump held b's lock; want it to wait", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(bGo)
	if err := <-wrote; err != nil {
		t.Fatalf("write on b: %v", err)
	}
	if err := <-copied; err != nil {
		t.Fatalf("CreateReplica: %v", err)
	}
	if reps, _ = c.Replicas("app"); !contains(reps, target) {
		t.Fatalf("replicas = %v, want the target %s registered", reps, target)
	}
	for _, id := range reps {
		m, _ := c.Machine(id)
		if got := tableDigest(t, m, "b"); got != "(1, 2)" {
			t.Fatalf("%s: b's digest %s, want the write's (1, 2)", id, got)
		}
	}
}

// TestStaleHeadWriteRetries routes a write and retires its head before the
// head share runs, while an open transaction keeps the retired copy from
// being dropped. The head share runs there, but the write must then abort
// as a retryable stale route rather than go anywhere else, and its retry
// must commit on every replica.
func TestStaleHeadWriteRetries(t *testing.T) {
	opts, net := netOpts(6)
	opts.Replicas = 3
	c := newTestCluster(t, 3, opts)
	for _, tbl := range []string{"a", "b"} {
		clusterExec(t, c, "CREATE TABLE "+tbl+" (id INT PRIMARY KEY, n INT)")
		clusterExec(t, c, "INSERT INTO "+tbl+" VALUES (1, 1)")
	}
	reps, _ := c.Replicas("app")
	head := reps[0]
	open, err := c.Begin("app")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := open.Exec("UPDATE b SET n = 2 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}

	writeAt, writeGo := make(chan struct{}), make(chan struct{})
	holdHeadBegin(net, head, writeAt, writeGo, nil).Store(true)
	wrote := make(chan error, 1)
	go func() {
		_, err := c.Exec("app", "UPDATE a SET n = 2 WHERE id = 1")
		wrote <- err
	}()
	<-writeAt
	retired := make(chan error, 1)
	go func() { retired <- c.RetireReplica("app", head) }()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if reps, _ = c.Replicas("app"); !contains(reps, head) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the retire never took the head out of the replica set")
		}
	}
	close(writeGo)
	if err := <-wrote; !errors.Is(err, ErrStaleRoute) || !IsRetryable(err) {
		t.Fatalf("write = %v, want a retryable ErrStaleRoute", err)
	}
	if err := open.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := <-retired; err != nil {
		t.Fatalf("RetireReplica: %v", err)
	}
	execRetry(t, c, "app", "UPDATE a SET n = 2 WHERE id = 1")
	for _, id := range reps {
		m, _ := c.Machine(id)
		if got := tableDigest(t, m, "a"); got != "(1, 2)" {
			t.Fatalf("%s: a's digest %s, want the retry's (1, 2)", id, got)
		}
	}
}

// TestMarksCountOnlySentWrites routes a write and, before its head share
// runs, registers a new replica by a copy, then fails and restarts it. The
// write's rest is settled without the failed machine, so the machine's
// failure-time marks must not count the write: the recovery that catches
// the machine up copies the table again rather than trust its log.
func TestMarksCountOnlySentWrites(t *testing.T) {
	opts, net := netOpts(8)
	c := newTestCluster(t, 3, opts)
	clusterExec(t, c, "CREATE TABLE a (id INT PRIMARY KEY, n INT)")
	clusterExec(t, c, "INSERT INTO a VALUES (1, 1)")
	reps, _ := c.Replicas("app")
	target := otherMachine(t, c)

	writeAt, writeGo := make(chan struct{}), make(chan struct{})
	holdHeadBegin(net, reps[0], writeAt, writeGo, nil).Store(true)
	wrote := make(chan error, 1)
	go func() {
		_, err := c.Exec("app", "UPDATE a SET n = 2 WHERE id = 1")
		wrote <- err
	}()
	<-writeAt
	if err := c.CreateReplica("app", target); err != nil {
		t.Fatalf("CreateReplica: %v", err)
	}
	if _, err := c.FailMachine(target); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RestartMachine(target); err != nil {
		t.Fatal(err)
	}
	close(writeGo)
	if err := <-wrote; err != nil {
		t.Fatalf("write: %v", err)
	}
	if rep := c.RecoverDatabases([]string{"app"}, 1); len(rep.Recovered) != 1 {
		t.Fatalf("recovery: %+v", rep)
	}
	if reps, _ = c.Replicas("app"); !contains(reps, target) {
		t.Fatalf("replicas = %v, want %s caught up", reps, target)
	}
	m, _ := c.Machine(target)
	if got := tableDigest(t, m, "a"); got != "(1, 2)" {
		t.Fatalf("%s: a's digest %s, want the write's (1, 2)", target, got)
	}
}

// TestWritesBetweenApplyAndIndexBuild writes to a copied table after the
// dump has released the source's locks and before the target builds the
// indexes its restore left pending (a netsim hook on copy_dump's delivery
// runs them), at both granularities: the writes reach the target while its
// index on k is pending, and the target registers with that index built and
// answering every lookup as the source's does.
func TestWritesBetweenApplyAndIndexBuild(t *testing.T) {
	for _, gran := range []sqldb.DumpGranularity{sqldb.GranularityTable, sqldb.GranularityDatabase} {
		t.Run(gran.String(), func(t *testing.T) {
			opts, net := netOpts(5)
			opts.CopyGranularity = gran
			c := newTestCluster(t, 3, opts)
			clusterExec(t, c, "CREATE TABLE a (id INT PRIMARY KEY, k INT)")
			clusterExec(t, c, "CREATE INDEX a_k ON a (k)")
			for id := 1; id <= 40; id++ {
				clusterExec(t, c, "INSERT INTO a VALUES (?, ?)", sqldb.NewInt(int64(id)), sqldb.NewInt(int64(id%4)))
			}
			target := otherMachine(t, c)
			tm, _ := c.Machine(target)
			var pending atomic.Bool
			net.OnDeliver(func(ci netsim.CallInfo) {
				if ci.Op != "copy_dump" {
					return
				}
				pending.Store(!tm.Engine().IndexesBuilt("app"))
				for _, w := range []string{
					"INSERT INTO a VALUES (41, 1)",
					"UPDATE a SET k = 9 WHERE id = 2",
					"DELETE FROM a WHERE id = 3",
					"UPDATE a SET k = 1 WHERE id = 41",
				} {
					clusterExec(t, c, w)
				}
			})
			if err := c.CreateReplica("app", target); err != nil {
				t.Fatalf("CreateReplica: %v", err)
			}
			net.ClearHooks()
			if !pending.Load() {
				t.Fatal("the target's index was built before the source's locks were released")
			}
			if reps, _ := c.Replicas("app"); len(reps) != 3 || !contains(reps, target) {
				t.Fatalf("replicas = %v, want the target %s registered", reps, target)
			}
			if !tm.Engine().IndexesBuilt("app") {
				t.Fatal("the target registered with an index pending")
			}
			reps, _ := c.Replicas("app")
			src, _ := c.Machine(reps[0])
			for k := 0; k <= 9; k++ {
				q := "SELECT id FROM a WHERE k = ? ORDER BY id"
				want, werr := src.Engine().Exec("app", q, sqldb.NewInt(int64(k)))
				got, err := tm.Engine().Exec("app", q, sqldb.NewInt(int64(k)))
				if err != nil || werr != nil || fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
					t.Fatalf("k = %d: the target finds %v (%v), the source %v (%v)", k, got, err, want, werr)
				}
			}
		})
	}
}

// TestTargetCrashBeforeIndexBuildAborts fails the target after the dump
// has released the source's locks and before its index build: the copy
// aborts with ErrCopyAborted and the replica set stays as it was.
func TestTargetCrashBeforeIndexBuildAborts(t *testing.T) {
	opts, net := netOpts(5)
	c := newTestCluster(t, 3, opts)
	clusterExec(t, c, "CREATE TABLE a (id INT PRIMARY KEY, k INT)")
	clusterExec(t, c, "CREATE INDEX a_k ON a (k)")
	clusterExec(t, c, "INSERT INTO a VALUES (1, 1), (2, 2)")
	target := otherMachine(t, c)
	net.OnDeliver(func(ci netsim.CallInfo) {
		if ci.Op == "copy_dump" {
			if _, err := c.FailMachine(target); err != nil {
				t.Errorf("FailMachine: %v", err)
			}
		}
	})
	err := c.CreateReplica("app", target)
	net.ClearHooks()
	if !errors.Is(err, ErrCopyAborted) {
		t.Fatalf("CreateReplica = %v, want ErrCopyAborted", err)
	}
	if reps, _ := c.Replicas("app"); len(reps) != 2 || contains(reps, target) {
		t.Fatalf("replicas = %v, want the two before the copy", reps)
	}
	clusterExec(t, c, "INSERT INTO a VALUES (3, 3)")
}

// TestCreateIndexOrderedAgainstCopy starts a copy of app while the head
// holds the share of a CREATE INDEX on a: a netsim hook on the head's exec
// of the statement starts CreateReplica, and returns once the target has
// applied a's image or, if the dump waits for the statement instead, after
// 200 ms. CREATE INDEX holds the IX lock writers hold, which the dump's read
// lock waits for, so the image is taken after the statement commits, with
// the index in it, and the statement's rest does not go to the target. The
// statement succeeds, the copy registers, and every replica holds the one
// index a_k, answering k = 1 as the source does.
func TestCreateIndexOrderedAgainstCopy(t *testing.T) {
	opts, net := netOpts(5)
	c := newTestCluster(t, 3, opts)
	clusterExec(t, c, "CREATE TABLE a (id INT PRIMARY KEY, k INT)")
	for id := 1; id <= 30; id++ {
		clusterExec(t, c, "INSERT INTO a VALUES (?, ?)", sqldb.NewInt(int64(id)), sqldb.NewInt(int64(id%3)))
	}
	reps, _ := c.Replicas("app")
	target := otherMachine(t, c)
	var armed, shareHeld atomic.Bool
	applied, copied := make(chan struct{}), make(chan error, 1)
	var applies atomic.Int32
	net.OnDeliver(func(ci netsim.CallInfo) {
		switch {
		case ci.Op == "copy_apply":
			if shareHeld.Load() {
				t.Error("the target applied a's image while the head's CREATE INDEX was running")
			}
			if applies.Add(1) == 1 {
				close(applied)
			}
		case ci.Op == "exec" && ci.To == reps[0] && armed.CompareAndSwap(true, false):
			shareHeld.Store(true)
			go func() { copied <- c.CreateReplica("app", target) }()
			select {
			case <-applied:
			case <-time.After(200 * time.Millisecond):
			}
			shareHeld.Store(false)
		}
	})
	armed.Store(true)
	if _, err := c.Exec("app", "CREATE INDEX a_k ON a (k)"); err != nil {
		t.Fatalf("CREATE INDEX beside the copy: %v", err)
	}
	if err := <-copied; err != nil {
		t.Fatalf("CreateReplica: %v", err)
	}
	net.ClearHooks()
	if reps, _ = c.Replicas("app"); len(reps) != 3 || !contains(reps, target) {
		t.Fatalf("replicas = %v, want the target %s registered", reps, target)
	}
	src, _ := c.Machine(reps[0])
	const q = "SELECT id FROM a WHERE k = 1 ORDER BY id"
	want, err := src.Engine().Exec("app", q)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range reps {
		m, _ := c.Machine(id)
		var indexes []sqldb.IndexDef
		if err := m.Engine().DumpTables("app", []string{"a"}, func(ds []sqldb.TableDump) error {
			indexes = ds[0].Indexes
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(indexes) != 1 || indexes[0].Name != "a_k" {
			t.Fatalf("%s: a's indexes %v, want the one a_k", id, indexes)
		}
		got, err := m.Engine().Exec("app", q)
		if err != nil || fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
			t.Fatalf("%s: k = 1 finds %v (%v), the source %v", id, got, err, want.Rows)
		}
	}
}
