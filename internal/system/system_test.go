package system

import (
	"errors"
	"fmt"
	"testing"

	"sdp/internal/colo"
	"sdp/internal/obs"
	"sdp/internal/sla"
)

func newSystem(t *testing.T) (*Controller, *colo.Controller, *colo.Controller) {
	t.Helper()
	s := NewWithRegistry(obs.NewRegistry())
	west := colo.New("west", colo.Options{ClusterSize: 2})
	west.AddFreeMachines(4)
	east := colo.New("east", colo.Options{ClusterSize: 2})
	east.AddFreeMachines(4)
	s.AddColo(west, "us-west")
	s.AddColo(east, "us-east")
	return s, west, east
}

func TestCreateAndRoute(t *testing.T) {
	s, west, _ := newSystem(t)
	req := sla.Profile(300, 1)
	if err := s.CreateDatabase("app", req, 2, "west", "east"); err != nil {
		t.Fatal(err)
	}
	co, err := s.Route("app")
	if err != nil {
		t.Fatal(err)
	}
	if co != west {
		t.Errorf("routed to %s, want west", co.Name())
	}
	if _, err := s.Route("missing"); !errors.Is(err, ErrNoDatabase) {
		t.Errorf("err = %v", err)
	}
	if err := s.CreateDatabase("app", req, 2, "west"); err == nil {
		t.Error("duplicate database accepted")
	}
	if err := s.CreateDatabase("x", req, 2, "nowhere"); !errors.Is(err, ErrNoColo) {
		t.Errorf("err = %v", err)
	}
}

func TestRouteReadPrefersLocalDR(t *testing.T) {
	s, west, east := newSystem(t)
	if err := s.CreateDatabase("app", sla.Profile(300, 1), 2, "west", "east"); err != nil {
		t.Fatal(err)
	}
	co, err := s.RouteRead("app", "us-east")
	if err != nil {
		t.Fatal(err)
	}
	if co != east {
		t.Errorf("read routed to %s, want east", co.Name())
	}
	co, err = s.RouteRead("app", "eu-central")
	if err != nil {
		t.Fatal(err)
	}
	if co != west {
		t.Errorf("read with no local DR routed to %s, want primary", co.Name())
	}
}

func TestAsyncReplicationToDR(t *testing.T) {
	s, _, east := newSystem(t)
	if err := s.CreateDatabase("app", sla.Profile(300, 1), 2, "west", "east"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("app", "CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	tx, err := s.Begin("app")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := tx.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i*2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Flush("app")
	if lag := s.repl.totalPending(); lag != 0 {
		t.Errorf("lag after flush = %d", lag)
	}
	eastCl, err := east.Route("app")
	if err != nil {
		t.Fatal(err)
	}
	res, err := eastCl.Exec("app", "SELECT COUNT(*), SUM(v) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 10 || res.Rows[0][1].Int != 90 {
		t.Errorf("DR copy = %v", res.Rows[0])
	}
}

// TestNoDRColoCapturesNothing commits a write on a database with no DR colo:
// nothing is captured, so no batch is queued, pending or counted.
func TestNoDRColoCapturesNothing(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewWithRegistry(reg)
	west := colo.New("west", colo.Options{ClusterSize: 2})
	west.AddFreeMachines(2)
	s.AddColo(west, "us-west")
	if err := s.CreateDatabase("app", sla.Profile(300, 1), 2, "west"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("app", "CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	tx, err := s.Begin("app")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO t VALUES (1, 2)"); err != nil {
		t.Fatal(err)
	}
	if len(tx.writes) != 0 {
		t.Errorf("%d writes captured", len(tx.writes))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if g := reg.Snapshot().Gauge("system_repl_pending_batches"); g != 0 {
		t.Errorf("system_repl_pending_batches = %v after the commit, want 0", g)
	}
	s.Flush("app")
	if n := reg.Snapshot().Counter("system_repl_batches_total"); n != 0 {
		t.Errorf("system_repl_batches_total = %d, want 0", n)
	}
}

func TestRollbackNotReplicated(t *testing.T) {
	s, _, east := newSystem(t)
	if err := s.CreateDatabase("app", sla.Profile(300, 1), 2, "west", "east"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("app", "CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	tx, _ := s.Begin("app")
	if _, err := tx.Exec("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	s.Flush("app")
	eastCl, _ := east.Route("app")
	res, err := eastCl.Exec("app", "SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 0 {
		t.Errorf("aborted write reached DR: %v", res.Rows[0][0])
	}
}

func TestDisasterFailover(t *testing.T) {
	s, _, east := newSystem(t)
	if err := s.CreateDatabase("app", sla.Profile(300, 1), 2, "west", "east"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("app", "CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("app", "INSERT INTO t VALUES (1, 7)"); err != nil {
		t.Fatal(err)
	}
	s.Flush("app")

	affected, err := s.FailColo("west")
	if err != nil {
		t.Fatal(err)
	}
	if len(affected) != 1 || affected[0] != "app" {
		t.Errorf("affected = %v", affected)
	}
	if _, err := s.Route("app"); !errors.Is(err, ErrColoDown) {
		t.Fatalf("route after disaster: %v", err)
	}
	if err := s.PromoteDR("app", "east"); err != nil {
		t.Fatal(err)
	}
	co, err := s.Route("app")
	if err != nil {
		t.Fatal(err)
	}
	if co != east {
		t.Errorf("promoted primary = %s", co.Name())
	}
	// The database continues at the new primary with the replicated data.
	res, err := s.Exec("app", "SELECT v FROM t WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 7 {
		t.Errorf("v = %v", res.Rows[0][0])
	}
	if _, err := s.Exec("app", "INSERT INTO t VALUES (2, 8)"); err != nil {
		t.Fatal(err)
	}
}

func TestPromoteDRUnknown(t *testing.T) {
	s, _, _ := newSystem(t)
	if err := s.CreateDatabase("app", sla.Profile(300, 1), 2, "west"); err != nil {
		t.Fatal(err)
	}
	if err := s.PromoteDR("app", "east"); err == nil {
		t.Error("promoting a non-DR colo succeeded")
	}
	if err := s.PromoteDR("missing", "east"); !errors.Is(err, ErrNoDatabase) {
		t.Errorf("err = %v", err)
	}
}
