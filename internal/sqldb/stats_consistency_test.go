package sqldb

import (
	"sync"
	"testing"
)

// TestPoolStatsNeverTorn drives the buffer pool from many goroutines while
// concurrent readers snapshot Stats(). Every Get is exactly one hit or one
// miss, so the invariants are exact: totals are monotone, never exceed the
// number of issued accesses, and at the end equal them precisely. Run under
// -race by `make race` / `make vet`.
func TestPoolStatsNeverTorn(t *testing.T) {
	const goroutines = 8
	const perG = 3000
	p := NewBufferPool(64, 0)
	page := sealedWith()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers: snapshots must be coherent while writers are mid-flight.
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastHits, lastMisses uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := p.Stats()
				if s.Hits < lastHits || s.Misses < lastMisses {
					t.Errorf("counters went backwards: %+v after hits=%d misses=%d", s, lastHits, lastMisses)
					return
				}
				if total := s.Hits + s.Misses; total > goroutines*perG {
					t.Errorf("total accesses %d exceeds issued %d", total, goroutines*perG)
					return
				}
				if hr := s.HitRate(); hr < 0 || hr > 1 {
					t.Errorf("hit rate %v out of range", hr)
					return
				}
				lastHits, lastMisses = s.Hits, s.Misses
			}
		}()
	}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := PageKey{Table: uint32(i % 4), Page: uint32(i % 128)}
				if _, err := p.Get(key, page); err != nil {
					t.Errorf("get: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	s := p.Stats()
	if got := s.Hits + s.Misses; got != goroutines*perG {
		t.Fatalf("final hits+misses = %d, want exactly %d", got, goroutines*perG)
	}
}

// TestEngineStatsCommitAbortExact checks the engine-level pair: with known
// numbers of committed and rolled-back transactions run concurrently, the
// final commit/abort counts are exact and intermediate snapshots coherent.
func TestEngineStatsCommitAbortExact(t *testing.T) {
	e := NewEngine(DefaultConfig())
	if err := e.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec("app", "CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	base := e.Stats() // the DDL above already committed some transactions

	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tx, err := e.Begin("app")
				if err != nil {
					t.Errorf("begin: %v", err)
					return
				}
				if _, err := tx.Exec("INSERT INTO t VALUES (?, ?)", NewInt(int64(g*perG+i)), NewInt(0)); err != nil {
					t.Errorf("insert: %v", err)
					_ = tx.Rollback()
					return
				}
				if i%2 == 0 {
					if err := tx.Commit(); err != nil {
						t.Errorf("commit: %v", err)
					}
				} else {
					if err := tx.Rollback(); err != nil {
						t.Errorf("rollback: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	s := e.Stats()
	wantCommits := base.Commits + goroutines*perG/2
	wantAborts := base.Aborts + goroutines*perG/2
	if s.Commits != wantCommits || s.Aborts != wantAborts {
		t.Fatalf("commits=%d aborts=%d, want %d and %d", s.Commits, s.Aborts, wantCommits, wantAborts)
	}
}
