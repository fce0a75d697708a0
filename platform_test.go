package sdp

import (
	"fmt"
	"reflect"
	"testing"
	"time"
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
// a change here moves every benchmark number with it.
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
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s placed on %v, want %v", db, got, want)
		}
	}
}
