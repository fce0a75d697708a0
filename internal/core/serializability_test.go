package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sdp/internal/history"
	"sdp/internal/sqldb"
)

// runAdversarialTrials drives pairs of transactions shaped like the paper's
// Section 3.1 example — T1: r(x) w(y), T2: r(y) w(x) — against a two-machine
// cluster under the given read option and ack mode, and returns the number
// of serializability violations found by the history checker.
//
// Per Table 1 the expectation is: zero violations for every option with a
// conservative controller and for Option 1 with an aggressive controller;
// violations possible (and in practice frequent) for Options 2 and 3 with an
// aggressive controller.
func runAdversarialTrials(t *testing.T, opt ReadOption, mode AckMode, trials int) int {
	t.Helper()
	rec := history.NewRecorder()
	cfg := sqldb.DefaultConfig()
	cfg.LockTimeout = 50 * time.Millisecond
	c := NewCluster("t1", Options{
		ReadOption:   opt,
		AckMode:      mode,
		Replicas:     2,
		EngineConfig: cfg,
		Recorder:     rec,
	})
	if _, err := c.AddMachines(2); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("app", "CREATE TABLE obj (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("app", "INSERT INTO obj VALUES (1, 0), (2, 0)"); err != nil {
		t.Fatal(err)
	}

	violations := 0
	for trial := 0; trial < trials; trial++ {
		rec.Reset()

		run := func(readID, writeID int) {
			tx, err := c.Begin("app")
			if err != nil {
				return
			}
			if _, err := tx.Exec("SELECT v FROM obj WHERE id = ?", sqldb.NewInt(int64(readID))); err != nil {
				return // aborted (deadlock/timeout); excluded from the check
			}
			if _, err := tx.Exec("UPDATE obj SET v = v + 1 WHERE id = ?", sqldb.NewInt(int64(writeID))); err != nil {
				return
			}
			_ = tx.Commit()
		}

		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); run(1, 2) }() // T1: r(x) w(y)
		go func() { defer wg.Done(); run(2, 1) }() // T2: r(y) w(x)
		wg.Wait()

		if ok, _, _ := history.Check(rec); !ok {
			violations++
		}
	}
	return violations
}

func TestTable1ConservativeAlwaysSerializable(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-heavy")
	}
	for _, opt := range []ReadOption{ReadOption1, ReadOption2, ReadOption3} {
		t.Run(opt.String(), func(t *testing.T) {
			if v := runAdversarialTrials(t, opt, Conservative, 30); v != 0 {
				t.Errorf("conservative %s: %d violations, want 0 (Theorem 2)", opt, v)
			}
		})
	}
}

func TestTable1AggressiveOption1Serializable(t *testing.T) {
	if v := runAdversarialTrials(t, ReadOption1, Aggressive, 60); v != 0 {
		t.Errorf("aggressive option1: %d violations, want 0 (Theorem 1)", v)
	}
}

func TestTable1AggressiveOption2And3NotSerializable(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-heavy")
	}
	// The anomaly is a race; it does not fire on every trial, but over
	// enough trials it must appear for Options 2 and 3.
	total := 0
	for _, opt := range []ReadOption{ReadOption2, ReadOption3} {
		v := runAdversarialTrials(t, opt, Aggressive, 150)
		t.Logf("aggressive %s: %d violations in 150 trials", opt, v)
		total += v
	}
	if total == 0 {
		t.Error("aggressive options 2/3 produced no serializability violations; the paper's anomaly did not reproduce")
	}
}

// TestAnomalyRequiresPrepareOptimisation is the ablation the paper implies:
// with the release-read-locks-at-PREPARE optimisation disabled, even the
// aggressive controller with Options 2/3 cannot produce the anomaly, because
// strict 2PL + 2PC then guarantee one-copy serializability.
func TestAnomalyRequiresPrepareOptimisation(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-heavy")
	}
	rec := history.NewRecorder()
	cfg := sqldb.DefaultConfig()
	cfg.LockTimeout = 50 * time.Millisecond
	cfg.ReleaseReadLocksAtPrepare = false
	c := NewCluster("ablate", Options{
		ReadOption:   ReadOption3,
		AckMode:      Aggressive,
		Replicas:     2,
		EngineConfig: cfg,
		Recorder:     rec,
	})
	if _, err := c.AddMachines(2); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("app", "CREATE TABLE obj (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("app", "INSERT INTO obj VALUES (1, 0), (2, 0)"); err != nil {
		t.Fatal(err)
	}

	violations := 0
	for trial := 0; trial < 50; trial++ {
		rec.Reset()
		var wg sync.WaitGroup
		run := func(readID, writeID int64) {
			defer wg.Done()
			tx, err := c.Begin("app")
			if err != nil {
				return
			}
			if _, err := tx.Exec("SELECT v FROM obj WHERE id = ?", sqldb.NewInt(readID)); err != nil {
				return
			}
			if _, err := tx.Exec("UPDATE obj SET v = v + 1 WHERE id = ?", sqldb.NewInt(writeID)); err != nil {
				return
			}
			_ = tx.Commit()
		}
		wg.Add(2)
		go run(1, 2)
		go run(2, 1)
		wg.Wait()
		if ok, _, _ := history.Check(rec); !ok {
			violations++
		}
	}
	if violations != 0 {
		t.Errorf("without the prepare optimisation: %d violations, want 0", violations)
	}
}

// TestDDLAndRestoreNeverReadDroppedIncarnation runs readers and writers on a
// two-replica database while one loop drops and re-creates a table, every
// incarnation holding its generation number in every row, and every few
// generations fails, restarts and catches up a replica, whose table the
// catch-up copy replaces by restore. A committed reader reads one
// incarnation: its reads of two rows show one generation (or both rows
// absent, from a table still being filled). The history check finds the
// execution serializable, and the replicas converge.
func TestDDLAndRestoreNeverReadDroppedIncarnation(t *testing.T) {
	rec := history.NewRecorder()
	cfg := sqldb.DefaultConfig()
	cfg.LockTimeout = 100 * time.Millisecond
	c := newTestCluster(t, 2, Options{Replicas: 2, Recorder: rec, EngineConfig: cfg})
	// retry runs a statement in its own transaction until it commits.
	retry := func(sql string, params ...sqldb.Value) {
		t.Helper()
		for {
			_, err := c.Exec("app", sql, params...)
			if err == nil {
				return
			}
			if !IsRetryable(err) {
				t.Fatalf("%s: %v", sql, err)
			}
		}
	}
	const fill = "INSERT INTO t VALUES (1, ?), (2, ?), (3, ?)"
	retry("CREATE TABLE t (id INT PRIMARY KEY, g INT)")
	retry(fill, intv(0), intv(0), intv(0))

	stop := make(chan struct{})
	errc := make(chan error, 4)
	var wg sync.WaitGroup
	gen := func(tx *Txn, id int64) (int64, error) {
		res, err := tx.Exec("SELECT g FROM t WHERE id = ?", intv(id))
		if err != nil || len(res.Rows) == 0 {
			return -1, err
		}
		return res.Rows[0][0].Int, nil
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := c.Begin("app")
				if err != nil {
					continue
				}
				if w%2 == 1 { // a writer: rewrite a row's generation as it is
					if _, err := tx.Exec("UPDATE t SET g = g WHERE id = ?", intv(1+i%3)); err != nil {
						_ = tx.Rollback()
						continue
					}
					_ = tx.Commit()
					continue
				}
				first, err := gen(tx, 1)
				if err == nil {
					time.Sleep(50 * time.Microsecond) // room for a DDL statement
					var second int64
					if second, err = gen(tx, 2); err == nil && tx.Commit() == nil && first != second {
						errc <- fmt.Errorf("a committed reader read generation %d, then %d", first, second)
						return
					}
				}
				_ = tx.Rollback()
			}
		}()
	}
	for g := int64(1); g <= 30; g++ {
		retry("DROP TABLE t")
		retry("CREATE TABLE t (id INT PRIMARY KEY, g INT)")
		retry(fill, intv(g), intv(g), intv(g))
		if g%6 != 0 {
			continue
		}
		reps, err := c.Replicas("app")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.FailMachine(reps[1]); err != nil {
			t.Fatal(err)
		}
		retry("UPDATE t SET g = g WHERE id = 1") // the table the restart's copy replaces
		if _, err := c.RestartMachine(reps[1]); err != nil {
			t.Fatal(err)
		}
		if r := c.RecoverDatabases([]string{"app"}, 1); len(r.Failed) != 0 {
			t.Fatalf("recovery failures: %v", r.Failed)
		}
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if ok, cycle, g := history.Check(rec); !ok {
		t.Errorf("history not serializable:\n%s", g.Describe(cycle))
	}
	reps, err := c.Replicas("app")
	if err != nil || len(reps) != 2 {
		t.Fatalf("replicas %v, %v", reps, err)
	}
	var images []string
	for _, id := range reps {
		m, _ := c.Machine(id)
		res, err := m.Engine().Exec("app", "SELECT id, g FROM t ORDER BY id")
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, fmt.Sprint(res.Rows))
	}
	if images[0] != images[1] {
		t.Errorf("replicas diverge: %s against %s", images[0], images[1])
	}
}
