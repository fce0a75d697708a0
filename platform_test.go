package sdp

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"sdp/internal/colo"
	"sdp/internal/placement"
)

// TestPlatformDisasterRecovery exercises the full public-API DR flow: a
// database with a cross-colo replica, asynchronous shipping, colo failure,
// DR promotion, and continued service.
func TestPlatformDisasterRecovery(t *testing.T) {
	p := New(Config{ClusterSize: 2})
	p.AddColo("west", "us-west", 2)
	p.AddColo("east", "us-east", 2)

	if err := p.CreateDatabase("app", SLA{SizeMB: 250, MinTPS: 1}, "west", "east"); err != nil {
		t.Fatal(err)
	}
	conn := p.Open("app")
	if _, err := conn.Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := conn.Exec("INSERT INTO t VALUES (?, ?)", Int(int64(i)), Int(int64(i*i))); err != nil {
			t.Fatal(err)
		}
	}
	p.System().Flush("app")

	affected, err := p.System().FailColo("west")
	if err != nil {
		t.Fatal(err)
	}
	if len(affected) != 1 || affected[0] != "app" {
		t.Fatalf("affected = %v", affected)
	}
	if _, err := conn.Exec("SELECT 1"); err == nil {
		t.Fatal("query succeeded with primary colo down and no promotion")
	}
	if err := p.System().PromoteDR("app", "east"); err != nil {
		t.Fatal(err)
	}
	res, err := conn.Query("SELECT COUNT(*), SUM(v) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 20 {
		t.Errorf("count after failover = %v", res.Rows[0][0])
	}
	// Writes continue at the new primary.
	if _, err := conn.Exec("INSERT INTO t VALUES (100, 0)"); err != nil {
		t.Fatal(err)
	}
}

// TestPlatformUnifiedMetrics checks the tentpole property: one registry
// snapshot covers every layer — system replicator, colo provisioning,
// cluster 2PC, and per-engine statistics.
func TestPlatformUnifiedMetrics(t *testing.T) {
	p := New(Config{ClusterSize: 2})
	p.AddColo("west", "us-west", 2)
	p.AddColo("east", "us-east", 2)
	if err := p.CreateDatabase("app", SLA{SizeMB: 250, MinTPS: 1}, "west", "east"); err != nil {
		t.Fatal(err)
	}
	conn := p.Open("app")
	if _, err := conn.Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := conn.Exec("INSERT INTO t VALUES (?, ?)", Int(int64(i)), Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Query("SELECT COUNT(*) FROM t"); err != nil {
		t.Fatal(err)
	}
	p.System().Flush("app")

	s := p.Metrics().Snapshot()
	for _, name := range []string{
		"core_txn_committed_total",
		"core_2pc_prepare_total",
		"core_sla_probe_total",
		"system_repl_batches_total",
	} {
		if s.Counter(name) == 0 {
			t.Errorf("%s is zero in the platform snapshot", name)
		}
	}
	if got := s.Counter("colo_machines_provisioned_total", "colo", "west"); got == 0 {
		t.Error("west colo reported no provisioned machines")
	}
	if h, ok := s.Histogram("core_2pc_prepare_seconds"); !ok || h.Count == 0 {
		t.Error("no 2PC prepare latencies in the platform snapshot")
	}
	if h, ok := s.Histogram("system_repl_apply_seconds"); !ok || h.Count == 0 {
		t.Error("no replication apply latencies in the platform snapshot")
	}
	// Engine stats are bridged per cluster; at least one cluster must show
	// plan-cache traffic.
	found := false
	for _, pnt := range s.Metrics {
		if pnt.Name == "sqldb_engine_stat" && pnt.Labels["stat"] == "plan_cache_hits" && pnt.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no bridged engine plan-cache stats in the platform snapshot")
	}
}

// TestPlatformConfigKnobs verifies the facade threads its configuration
// down to the machines.
func TestPlatformConfigKnobs(t *testing.T) {
	p := New(Config{
		ReadOption:      ReadOption3,
		AckMode:         Aggressive,
		Replicas:        2,
		CopyGranularity: CopyByDatabase,
		ClusterSize:     2,
		PoolPages:       7,
		DiskLatency:     time.Microsecond,
		LockTimeout:     123 * time.Millisecond,
	})
	p.AddColo("west", "us-west", 2)
	if err := p.CreateDatabase("app", SLA{SizeMB: 100, MinTPS: 1}, "west"); err != nil {
		t.Fatal(err)
	}
	co, err := p.System().Colo("west")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := co.Route("app")
	if err != nil {
		t.Fatal(err)
	}
	opts := cl.Options()
	if opts.ReadOption != ReadOption3 || opts.AckMode != Aggressive {
		t.Errorf("cluster options = %+v", opts)
	}
	if opts.CopyGranularity != CopyByDatabase {
		t.Errorf("granularity = %v", opts.CopyGranularity)
	}
	eng := opts.EngineConfig
	if eng.PoolPages != 7 || eng.MissLatency != time.Microsecond || eng.LockTimeout != 123*time.Millisecond {
		t.Errorf("engine config = %+v", eng)
	}
	// The cluster actually works under these knobs.
	conn := p.Open("app")
	if _, err := conn.Exec("CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	res, err := conn.Query("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 1 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

// TestPlatformPlacementPinned pins where a 4-machine, two-replica platform
// puts 16 equal-SLA tenants — the benchmark's set-up. The expected machines
// were recorded at the commit before placement moved behind one selector
// (First-Fit fills a machine pair with eight 125 MB tenants, then the next);
// a change here moves every benchmark number with it. The controller's
// state machine rotates each new database's list, so heads alternate
// between the pair's machines.
func TestPlatformPlacementPinned(t *testing.T) {
	p := New(Config{ClusterSize: 4, Replicas: 2})
	co := p.AddColo("local", "local", 4)
	for i := 0; i < 16; i++ {
		db := fmt.Sprintf("shop%02d", i)
		if err := p.CreateDatabase(db, SLA{SizeMB: 125, MinTPS: 0.1, MaxRejectFraction: 0.05}, "local"); err != nil {
			t.Fatal(err)
		}
		cl, err := co.Route(db)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cl.Replicas(db)
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"local-m1", "local-m2"}
		if i >= 8 {
			want = []string{"local-m3", "local-m4"}
		}
		if i%2 == 1 {
			want[0], want[1] = want[1], want[0]
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s placed on %v, want %v", db, got, want)
		}
	}
}

// TestPlatformSQLSurface sends, through the platform to a database on two
// replicas, the statement shapes no experiment or benchmark happens to use:
// DELETE, DROP TABLE, BETWEEN on the primary key and on a secondary index,
// NOT, unary minus, a constant on the left of a comparison, joins on non-key
// columns, IN on the primary key, a text key holding a quote, a UNIQUE
// column and an ambiguous one. Every machine logs, so each write is also
// rendered back to SQL; the writes are then read back from each replica's
// own engine.
func TestPlatformSQLSurface(t *testing.T) {
	p := New(Config{ClusterSize: 2})
	west := p.AddColo("west", "us-west", 2)
	if err := p.CreateDatabase("app", SLA{SizeMB: 100, MinTPS: 1}, "west"); err != nil {
		t.Fatal(err)
	}
	conn := p.Open("app")
	exec := func(sql string, params ...Value) *Result {
		t.Helper()
		res, err := conn.Exec(sql, params...)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	ints := func(res *Result) []int64 {
		out := []int64{}
		for _, r := range res.Rows {
			out = append(out, r[0].Int)
		}
		return out
	}
	exec("CREATE TABLE item (id INT PRIMARY KEY, grp INT, price INT)")
	exec("CREATE INDEX item_price ON item (price)")
	exec("CREATE TABLE tag (name TEXT PRIMARY KEY, grp INT UNIQUE)")
	for i := 1; i <= 8; i++ {
		exec("INSERT INTO item VALUES (?, ?, ?)", Int(int64(i)), Int(int64(i%3)), Int(int64(i*10)))
	}
	exec("INSERT INTO tag VALUES ('it''s', 1), ('plain', 2)")

	for _, c := range []struct {
		sql  string
		want []int64
	}{
		{"SELECT id FROM item WHERE id BETWEEN 3 AND 5 ORDER BY id", []int64{3, 4, 5}},
		{"SELECT id FROM item WHERE price BETWEEN 20 AND 40 ORDER BY id", []int64{2, 3, 4}},
		{"SELECT id FROM item WHERE 70 <= price ORDER BY id", []int64{7, 8}},
		{"SELECT id FROM item WHERE NOT (grp = 0 OR grp = 1) ORDER BY id", []int64{2, 5, 8}},
		{"SELECT id FROM item WHERE -price < -60 ORDER BY id", []int64{7, 8}},
		{"SELECT id FROM item WHERE id IN (2, 9, 4) ORDER BY id", []int64{2, 4}},
		{"SELECT i.id FROM item i JOIN tag g ON i.grp = g.grp WHERE g.name = 'it''s' ORDER BY i.id", []int64{1, 4, 7}},
		{"SELECT i.id FROM item i JOIN tag g ON i.grp < g.grp WHERE i.id <= 3 AND g.name = 'plain' ORDER BY i.id", []int64{1, 3}},
		{"SELECT COUNT(*) FROM tag WHERE name = 'it''s'", []int64{1}},
	} {
		if got := ints(exec(c.sql)); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.sql, got, c.want)
		}
	}
	if _, err := conn.Exec("SELECT grp FROM item i JOIN tag g ON i.grp = g.grp"); err == nil {
		t.Error("ambiguous column was accepted")
	}
	if _, err := conn.Exec("INSERT INTO tag VALUES ('other', 2)"); err == nil {
		t.Error("a second row with grp = 2 passed the UNIQUE column")
	}
	if _, err := conn.Exec("DELETE FROM"); err == nil {
		t.Error("truncated DELETE parsed")
	}

	if n := exec("DELETE FROM item WHERE id BETWEEN 1 AND 2").Affected; n != 2 {
		t.Errorf("DELETE affected %d rows, want 2", n)
	}
	exec("DROP TABLE tag")
	for _, cl := range west.Clusters() {
		reps, _ := cl.Replicas("app")
		if len(reps) != 2 {
			t.Fatalf("replicas = %v", reps)
		}
		for _, id := range reps {
			m, _ := cl.Machine(id)
			res, err := m.Engine().Exec("app", "SELECT COUNT(*), SUM(price) FROM item")
			if err != nil {
				t.Fatal(err)
			}
			if res.Rows[0][0].Int != 6 || res.Rows[0][1].Int != 330 {
				t.Errorf("%s: item holds %v after the DELETE", id, res.Rows[0])
			}
			if _, err := m.Engine().Exec("app", "SELECT COUNT(*) FROM tag"); err == nil {
				t.Errorf("%s: tag survived the DROP", id)
			}
		}
	}
}

// TestPlatformAggressiveSecondStatement runs a two-statement transaction
// under the aggressive controller: the second statement is the first point at
// which a write answered by one replica is checked on the other.
func TestPlatformAggressiveSecondStatement(t *testing.T) {
	p := New(Config{ClusterSize: 2, AckMode: Aggressive})
	p.AddColo("west", "us-west", 2)
	if err := p.CreateDatabase("app", SLA{SizeMB: 100, MinTPS: 1}, "west"); err != nil {
		t.Fatal(err)
	}
	conn := p.Open("app")
	if _, err := conn.Exec("CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	tx, err := conn.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := tx.Exec("INSERT INTO t VALUES (?)", Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err := conn.Query("SELECT COUNT(*) FROM t")
	if err != nil || res.Rows[0][0].Int != 3 {
		t.Fatalf("count = %v, err = %v", res, err)
	}
}

// TestPlatformPlacementShrinksToBudget lowers the replica budget under a
// database that holds two replicas: the adaptive loop must retire one, and
// say why, whatever the tenant's load class.
func TestPlatformPlacementShrinksToBudget(t *testing.T) {
	p := New(Config{ClusterSize: 2})
	west := p.AddColo("west", "us-west", 2)
	if err := p.CreateDatabase("app", SLA{SizeMB: 100, MinTPS: 1}, "west"); err != nil {
		t.Fatal(err)
	}
	p.StartPlacement(PlacementOptions{Interval: 5 * time.Millisecond, MinReplicas: 1, MaxReplicas: 1})
	defer p.StopPlacement()
	var recent []placement.ActionRecord
	for deadline := time.Now().Add(5 * time.Second); len(recent) == 0; time.Sleep(5 * time.Millisecond) {
		if recent = p.PlacementReport().Recent; time.Now().After(deadline) {
			t.Fatal("the loop recorded no action")
		}
	}
	if recent[0].Kind != placement.Shrink || recent[0].Err != "" || recent[0].Reason != "cold: offered load far under declared floor" {
		t.Errorf("recent actions = %+v", recent)
	}
	cl, err := west.Route("app")
	if err != nil {
		t.Fatal(err)
	}
	if reps, _ := cl.Replicas("app"); len(reps) != 1 {
		t.Errorf("replicas = %v, want one", reps)
	}
}

// TestOneShotStatementsAreNotRetained loads a replicated, logged database
// with statements that each run once — literal multi-row INSERTs, the shape
// of a bulk load — and restarts a replica so its engine replays them from the
// log: neither the platform's statement cache nor any replica engine's keeps
// one of them, while a statement that does repeat is cached on its second
// sighting and served, plan included, from its third.
func TestOneShotStatementsAreNotRetained(t *testing.T) {
	p := New(Config{ClusterSize: 3})
	co := p.AddColo("west", "us-west", 3)
	if err := p.CreateDatabase("app", SLA{SizeMB: 300, MinTPS: 2}, "west"); err != nil {
		t.Fatal(err)
	}
	conn := p.Open("app")
	if _, err := conn.Exec("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	const loads = 2000
	for i := 0; i < loads; i++ {
		sql := fmt.Sprintf("INSERT INTO t VALUES (%d, 'a%d'), (%d, 'b%d'), (%d, 'c%d')", 3*i, i, 3*i+1, i, 3*i+2, i)
		if _, err := conn.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := co.Route("app")
	if err != nil {
		t.Fatal(err)
	}
	replicas, err := cl.Replicas("app")
	if err != nil || len(replicas) != 2 {
		t.Fatalf("replicas = %v, %v", replicas, err)
	}
	if _, err := co.CrashMachine(replicas[0]); err != nil {
		t.Fatal(err)
	}
	if stats, _, err := co.RestartMachine(replicas[0]); err != nil || stats.Applied < loads {
		t.Fatalf("restart replayed %+v, %v", stats, err)
	}

	planHits := func() (hits uint64) {
		for _, id := range replicas {
			m, err := cl.Machine(id)
			if err != nil {
				t.Fatal(err)
			}
			if st := m.Engine().StmtCache().Stats(); st.Entries != 0 {
				t.Errorf("replica %s's engine retains %+v after a load and a replay", id, st)
			}
			hits += m.Engine().Stats().PlanCache.Hits
		}
		return hits
	}
	before := planHits()
	if st := p.stmts.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("platform cache retains %+v after %d one-shot statements", st, loads)
	}
	snap := p.Metrics().Snapshot()
	for _, cache := range []string{"platform", "engine"} {
		if n := snap.Counter("sqldb_stmt_cache_bypass_total", "cache", cache); n < loads {
			t.Errorf("sqldb_stmt_cache_bypass_total{cache=%q} = %d, want >= %d", cache, n, loads)
		}
	}

	const q = "SELECT v FROM t WHERE id = ?"
	for call := 1; call <= 3; call++ {
		res, err := conn.Query(q, Int(4))
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Str != "b1" {
			t.Fatalf("call %d: %v, %v", call, res, err)
		}
		wantEntries := 1
		if call == 1 {
			wantEntries = 0
		}
		if st := p.stmts.Stats(); st.Entries != wantEntries {
			t.Errorf("after call %d the platform cache holds %+v, want %d entries", call, st, wantEntries)
		}
		// A plan hit means the replica was handed the statement it had bound
		// before: the cached one.
		if hits := planHits() - before; (hits > 0) != (call == 3) {
			t.Errorf("after call %d: %d plan hits", call, hits)
		}
	}
	if got := p.Metrics().Snapshot().Gauge("sqldb_stmt_cache_entries", "cache", "platform"); got != 1 {
		t.Errorf("sqldb_stmt_cache_entries{cache=\"platform\"} = %v, want 1", got)
	}
}

// TestRestartOnDefaultPlatform restarts a crashed machine of a platform
// configured with nothing about logs or controllers: every machine logs, so
// the machine rejoins by log replay plus delta catch-up, and a branch it
// left prepared is settled at its restart by the in-doubt rule.
func TestRestartOnDefaultPlatform(t *testing.T) {
	boot := func(t *testing.T) (*Platform, *colo.Controller, *Conn, []string) {
		p := New(Config{ClusterSize: 2})
		co := p.AddColo("west", "us-west", 2)
		if err := p.CreateDatabase("app", SLA{SizeMB: 100, MinTPS: 1}, "west"); err != nil {
			t.Fatal(err)
		}
		conn := p.Open("app")
		for _, sql := range []string{
			"CREATE TABLE hot (id INT PRIMARY KEY)",
			"CREATE TABLE cold (id INT PRIMARY KEY)",
			"INSERT INTO hot VALUES (1)",
			"INSERT INTO cold VALUES (1)",
		} {
			if _, err := conn.Exec(sql); err != nil {
				t.Fatal(err)
			}
		}
		cl, err := co.Route("app")
		if err != nil {
			t.Fatal(err)
		}
		replicas, err := cl.Replicas("app")
		if err != nil || len(replicas) != 2 {
			t.Fatalf("replicas = %v, %v", replicas, err)
		}
		return p, co, conn, replicas
	}
	// rows reads a table's ids from each replica's own engine.
	rows := func(t *testing.T, co *colo.Controller, replicas []string, table string) [][]int64 {
		t.Helper()
		cl, _ := co.Route("app")
		var out [][]int64
		for _, id := range replicas {
			m, err := cl.Machine(id)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Engine().Exec("app", "SELECT id FROM "+table+" ORDER BY id")
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			var ids []int64
			for _, r := range res.Rows {
				ids = append(ids, r[0].Int)
			}
			out = append(out, ids)
		}
		return out
	}

	t.Run("replay plus delta", func(t *testing.T) {
		p, co, conn, replicas := boot(t)
		if _, err := co.CrashMachine(replicas[1]); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Exec("INSERT INTO hot VALUES (2)"); err != nil {
			t.Fatal(err)
		}
		stats, report, err := co.RestartMachine(replicas[1])
		if err != nil {
			t.Fatal(err)
		}
		if stats.Applied == 0 || len(report.Failed) != 0 {
			t.Fatalf("restart replayed %+v, recovery %+v", stats, report)
		}
		snap := p.Metrics().Snapshot()
		if fast, full := snap.Counter("wal_recovery_total", "path", "fast"), snap.Counter("wal_recovery_total", "path", "full"); fast != 1 || full != 0 {
			t.Fatalf("wal_recovery_total fast=%d full=%d, want 1 and 0", fast, full)
		}
		if got := snap.Counter("core_copy_phase_total", "phase", "table_copied"); got != 1 {
			t.Errorf("catch-up copied %d tables, want 1 (hot)", got)
		}
		want := [][]int64{{1, 2}, {1, 2}}
		if got := rows(t, co, replicas, "hot"); !reflect.DeepEqual(got, want) {
			t.Errorf("hot per replica = %v, want %v", got, want)
		}
	})

	t.Run("in doubt at the crash", func(t *testing.T) {
		_, co, _, replicas := boot(t)
		cl, _ := co.Route("app")
		// One transaction's branches prepare on both replicas; the first
		// commits, and the second machine crashes before its COMMIT.
		const gid = 1 << 40
		for i, id := range replicas {
			m, _ := cl.Machine(id)
			tx, err := m.Engine().BeginWithID("app", gid)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Exec("INSERT INTO cold VALUES (2)"); err != nil {
				t.Fatal(err)
			}
			if err := tx.Prepare(); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				if err := tx.CommitPrepared(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := co.CrashMachine(replicas[1]); err != nil {
			t.Fatal(err)
		}
		stats, report, err := co.RestartMachine(replicas[1])
		if err != nil {
			t.Fatal(err)
		}
		if stats.InDoubt != 1 || len(report.Failed) != 0 {
			t.Fatalf("restart found %d in-doubt branches, recovery %+v; want 1", stats.InDoubt, report)
		}
		want := [][]int64{{1, 2}, {1, 2}}
		if got := rows(t, co, replicas, "cold"); !reflect.DeepEqual(got, want) {
			t.Errorf("cold per replica = %v, want %v", got, want)
		}
		m, _ := cl.Machine(replicas[1])
		if gids := m.Engine().PreparedGIDs(); len(gids) != 0 {
			t.Errorf("prepared branches %v after restart", gids)
		}
	})
	t.Run("values no literal spells", func(t *testing.T) {
		_, co, conn, replicas := boot(t)
		if _, err := conn.Exec("CREATE TABLE m (id INT PRIMARY KEY, f FLOAT, n INT)"); err != nil {
			t.Fatal(err)
		}
		ins, err := conn.Prepare("INSERT INTO m VALUES (?, ?, ?)")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ins.Exec(Int(1), Float(math.NaN()), Int(math.MinInt64)); err != nil {
			t.Fatal(err)
		}
		if _, err := co.CrashMachine(replicas[1]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := co.RestartMachine(replicas[1]); err != nil {
			t.Fatal(err)
		}
		cl, _ := co.Route("app")
		for _, id := range replicas {
			m, _ := cl.Machine(id)
			res, err := m.Engine().Exec("app", "SELECT f, n FROM m WHERE id = 1")
			if err != nil || len(res.Rows) != 1 {
				t.Fatalf("%s: %v, %v", id, res, err)
			}
			f, n := res.Rows[0][0].Float, res.Rows[0][1].Int
			if math.Float64bits(f) != math.Float64bits(math.NaN()) || n != math.MinInt64 {
				t.Errorf("%s holds f=%#x n=%d, want f=%#x n=%d", id, math.Float64bits(f), n, math.Float64bits(math.NaN()), int64(math.MinInt64))
			}
		}
	})
}
