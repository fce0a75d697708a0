package system

import (
	"fmt"
	"sync"
	"testing"

	"sdp/internal/obs"
	"sdp/internal/sla"
)

func TestReplicatorOrderingPerDatabase(t *testing.T) {
	s, _, east := newSystem(t)
	if err := s.CreateDatabase("app", sla.Profile(300, 1), 2, "west", "east"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("app", "CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	// Commit-order-dependent writes: insert then repeatedly overwrite. If
	// batches were replayed out of order the final value would differ.
	if _, err := s.Exec("app", "INSERT INTO t VALUES (1, 0)"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		if _, err := s.Exec("app", fmt.Sprintf("UPDATE t SET v = %d WHERE id = 1", i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush("app")
	eastCl, _ := east.Route("app")
	res, err := eastCl.Exec("app", "SELECT v FROM t WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 50 {
		t.Errorf("DR value = %v, want 50 (batches reordered?)", res.Rows[0][0])
	}
}

// TestReplicatorDrainReleasesBatches checks that an applied batch — SQL text
// and parameter values — is not kept reachable by the queue it was taken from.
func TestReplicatorDrainReleasesBatches(t *testing.T) {
	s, _, _ := newSystem(t)
	if err := s.CreateDatabase("app", sla.Profile(300, 1), 2, "west", "east"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("app", "CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	s.Flush("app")
	r := s.repl
	r.mu.Lock()
	for r.running["app"] {
		r.cond.Wait()
	}
	r.running["app"] = true // hold the worker off while batches queue up
	r.mu.Unlock()
	for i := 0; i < 4; i++ {
		if _, err := s.Exec("app", fmt.Sprintf("INSERT INTO t VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	r.mu.Lock()
	queued := r.queues["app"] // shares the backing array drain reslices
	r.mu.Unlock()
	if len(queued) != 4 {
		t.Fatalf("queued %d batches, want 4", len(queued))
	}
	go r.drain("app")
	s.Flush("app")
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, batch := range queued {
		if batch != nil {
			t.Errorf("slot %d still holds its applied batch (%d statements)", i, len(batch))
		}
	}
}

func TestReplicatorConcurrentDatabases(t *testing.T) {
	s, _, east := newSystem(t)
	for i := 0; i < 3; i++ {
		db := fmt.Sprintf("db%d", i)
		if err := s.CreateDatabase(db, sla.Profile(250, 0.5), 2, "west", "east"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Exec(db, "CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(db string) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if _, err := s.Exec(db, fmt.Sprintf("INSERT INTO t VALUES (%d)", j)); err != nil {
					t.Error(err)
					return
				}
			}
		}(fmt.Sprintf("db%d", i))
	}
	wg.Wait()
	for i := 0; i < 3; i++ {
		db := fmt.Sprintf("db%d", i)
		s.Flush(db)
		eastCl, _ := east.Route(db)
		res, err := eastCl.Exec(db, "SELECT COUNT(*) FROM t")
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].Int != 20 {
			t.Errorf("%s DR count = %v", db, res.Rows[0][0])
		}
	}
}

func TestReplicatorRecordsErrorsAndContinues(t *testing.T) {
	s, _, _ := newSystem(t)
	if err := s.CreateDatabase("app", sla.Profile(300, 1), 2, "west", "east"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("app", "CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	s.Flush("app")
	// Sabotage the DR copy: create a conflicting row directly at east so
	// the replayed insert fails there.
	east, _ := s.Colo("east")
	eastCl, _ := east.Route("app")
	if _, err := eastCl.Exec("app", "INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("app", "INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("app", "INSERT INTO t VALUES (2)"); err != nil {
		t.Fatal(err)
	}
	s.Flush("app")
	if s.metrics.replBatches.With("failed").Value() == 0 {
		t.Error("conflicting replay recorded no failed batch")
	}
	// Later batches still applied (best-effort, per batch).
	res, err := eastCl.Exec("app", "SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 2 {
		t.Errorf("east count = %v, want 2", res.Rows[0][0])
	}
	if lag := s.repl.totalPending(); lag != 0 {
		t.Errorf("lag = %d", lag)
	}
}

func TestFailColoUnknown(t *testing.T) {
	s := NewWithRegistry(obs.NewRegistry())
	if _, err := s.FailColo("nope"); err == nil {
		t.Error("failing unknown colo succeeded")
	}
}
