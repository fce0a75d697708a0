package sqldb

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// newLockFixture returns a lock manager and a transaction factory backed by
// a throwaway engine.
func newLockFixture(t *testing.T, timeout time.Duration) (*lockManager, func() *Txn) {
	t.Helper()
	e := NewEngine(Config{LockTimeout: timeout})
	if err := e.CreateDatabase("d"); err != nil {
		t.Fatal(err)
	}
	lm := e.locks
	return lm, func() *Txn {
		txn, err := e.Begin("d")
		if err != nil {
			t.Fatal(err)
		}
		return txn
	}
}

func TestLockCompatMatrix(t *testing.T) {
	// The standard multi-granularity compatibility matrix.
	want := map[[2]LockMode]bool{
		{LockIS, LockIS}: true, {LockIS, LockIX}: true, {LockIS, LockS}: true, {LockIS, LockX}: false,
		{LockIX, LockIS}: true, {LockIX, LockIX}: true, {LockIX, LockS}: false, {LockIX, LockX}: false,
		{LockS, LockIS}: true, {LockS, LockIX}: false, {LockS, LockS}: true, {LockS, LockX}: false,
		{LockX, LockIS}: false, {LockX, LockIX}: false, {LockX, LockS}: false, {LockX, LockX}: false,
	}
	for pair, compat := range want {
		if lockCompat[pair[0]][pair[1]] != compat {
			t.Errorf("compat[%s][%s] = %v, want %v", pair[0], pair[1], lockCompat[pair[0]][pair[1]], compat)
		}
	}
}

func TestLockSharedConcurrent(t *testing.T) {
	lm, newTxn := newLockFixture(t, time.Second)
	id := lockID{Table: 1, Key: "1"}
	t1, t2 := newTxn(), newTxn()
	if err := lm.acquire(t1, id, LockS); err != nil {
		t.Fatal(err)
	}
	if err := lm.acquire(t2, id, LockS); err != nil {
		t.Fatal(err)
	}
	lm.releaseAll(t1)
	lm.releaseAll(t2)
}

func TestLockExclusiveBlocks(t *testing.T) {
	lm, newTxn := newLockFixture(t, time.Second)
	id := lockID{Table: 1, Key: "1"}
	t1, t2 := newTxn(), newTxn()
	if err := lm.acquire(t1, id, LockX); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- lm.acquire(t2, id, LockX) }()
	select {
	case err := <-got:
		t.Fatalf("second X acquired while first held: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	lm.releaseAll(t1)
	if err := <-got; err != nil {
		t.Fatalf("second X after release: %v", err)
	}
	lm.releaseAll(t2)
}

func TestLockUpgradeSToX(t *testing.T) {
	lm, newTxn := newLockFixture(t, time.Second)
	id := lockID{Table: 1, Key: "1"}
	t1 := newTxn()
	if err := lm.acquire(t1, id, LockS); err != nil {
		t.Fatal(err)
	}
	// Sole holder: the upgrade succeeds immediately.
	if err := lm.acquire(t1, id, LockX); err != nil {
		t.Fatal(err)
	}
	// Another S request must now block.
	t2 := newTxn()
	got := make(chan error, 1)
	go func() { got <- lm.acquire(t2, id, LockS) }()
	select {
	case err := <-got:
		t.Fatalf("S granted against upgraded X: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	lm.releaseAll(t1)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	lm.releaseAll(t2)
}

func TestLockUpgradeDeadlockDetected(t *testing.T) {
	// Two transactions holding S both requesting X is the classic upgrade
	// deadlock; one of them must be aborted, not both stuck.
	lm, newTxn := newLockFixture(t, time.Second)
	id := lockID{Table: 1, Key: "1"}
	t1, t2 := newTxn(), newTxn()
	if err := lm.acquire(t1, id, LockS); err != nil {
		t.Fatal(err)
	}
	if err := lm.acquire(t2, id, LockS); err != nil {
		t.Fatal(err)
	}
	type labelled struct {
		txn *Txn
		err error
	}
	errs := make(chan labelled, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); errs <- labelled{t1, lm.acquire(t1, id, LockX)} }()
	go func() { defer wg.Done(); errs <- labelled{t2, lm.acquire(t2, id, LockX)} }()

	// Exactly one of them must be chosen as the deadlock victim; releasing
	// the victim unblocks the survivor's upgrade.
	deadlocked := 0
	for i := 0; i < 2; i++ {
		got := <-errs
		if errors.Is(got.err, ErrDeadlock) {
			deadlocked++
			lm.releaseAll(got.txn)
		} else if got.err != nil {
			t.Fatalf("unexpected error for %v: %v", got.txn, got.err)
		}
	}
	wg.Wait()
	if deadlocked == 0 {
		t.Fatal("upgrade deadlock not detected")
	}
	lm.releaseAll(t1)
	lm.releaseAll(t2)
}

func TestLockReleaseSharedKeepsExclusive(t *testing.T) {
	lm, newTxn := newLockFixture(t, 50*time.Millisecond)
	sID := lockID{Table: 1, Key: "s"}
	xID := lockID{Table: 1, Key: "x"}
	t1 := newTxn()
	if err := lm.acquire(t1, sID, LockS); err != nil {
		t.Fatal(err)
	}
	if err := lm.acquire(t1, xID, LockX); err != nil {
		t.Fatal(err)
	}
	lm.releaseShared(t1)

	t2 := newTxn()
	// The S lock is gone: an X on it succeeds.
	if err := lm.acquire(t2, sID, LockX); err != nil {
		t.Fatalf("X on released S object: %v", err)
	}
	// The X lock is retained: another X times out.
	if err := lm.acquire(t2, xID, LockX); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("X on retained X object: %v", err)
	}
	lm.releaseAll(t1)
	lm.releaseAll(t2)
}

func TestLockFIFOFairness(t *testing.T) {
	// A writer queued behind a reader must not be starved by later readers:
	// X arrives while S held, then more S requests arrive — they must wait
	// behind the X.
	lm, newTxn := newLockFixture(t, time.Second)
	id := lockID{Table: 1, Key: "1"}
	r1, w, r2 := newTxn(), newTxn(), newTxn()
	if err := lm.acquire(r1, id, LockS); err != nil {
		t.Fatal(err)
	}
	wGot := make(chan error, 1)
	go func() { wGot <- lm.acquire(w, id, LockX) }()
	time.Sleep(10 * time.Millisecond) // let the X enqueue
	r2Got := make(chan error, 1)
	go func() { r2Got <- lm.acquire(r2, id, LockS) }()
	select {
	case <-r2Got:
		t.Fatal("late reader jumped the queued writer")
	case <-time.After(30 * time.Millisecond):
	}
	lm.releaseAll(r1)
	if err := <-wGot; err != nil {
		t.Fatalf("writer: %v", err)
	}
	lm.releaseAll(w)
	if err := <-r2Got; err != nil {
		t.Fatalf("late reader: %v", err)
	}
	lm.releaseAll(r2)
}

func TestLockThreeWayDeadlock(t *testing.T) {
	lm, newTxn := newLockFixture(t, time.Second)
	a := lockID{Table: 1, Key: "a"}
	b := lockID{Table: 1, Key: "b"}
	c := lockID{Table: 1, Key: "c"}
	t1, t2, t3 := newTxn(), newTxn(), newTxn()
	for _, pair := range []struct {
		txn *Txn
		id  lockID
	}{{t1, a}, {t2, b}, {t3, c}} {
		if err := lm.acquire(pair.txn, pair.id, LockX); err != nil {
			t.Fatal(err)
		}
	}
	t1Got := make(chan error, 1)
	t2Got := make(chan error, 1)
	go func() { t1Got <- lm.acquire(t1, b, LockX) }()
	go func() { t2Got <- lm.acquire(t2, c, LockX) }()
	time.Sleep(20 * time.Millisecond)
	// Closing the cycle must be detected immediately.
	err := lm.acquire(t3, a, LockX)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("cycle close err = %v, want ErrDeadlock", err)
	}
	// Aborting the victim unblocks t2 (waiting on c); releasing t2 then
	// unblocks t1 (waiting on b) — strict 2PL chains resolve in order.
	lm.releaseAll(t3)
	if err := <-t2Got; err != nil {
		t.Fatalf("t2 after victim abort: %v", err)
	}
	lm.releaseAll(t2)
	if err := <-t1Got; err != nil {
		t.Fatalf("t1 after t2 release: %v", err)
	}
	lm.releaseAll(t1)
}

func TestLockReacquireSameModeIsNoop(t *testing.T) {
	lm, newTxn := newLockFixture(t, time.Second)
	id := lockID{Table: 1, Key: "1"}
	t1 := newTxn()
	for i := 0; i < 3; i++ {
		if err := lm.acquire(t1, id, LockS); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(t1.heldLocksForTest()); n != 1 {
		t.Errorf("held %d locks, want 1", n)
	}
	lm.releaseAll(t1)
}

func TestUpgradeModeLattice(t *testing.T) {
	cases := []struct {
		a, b, want LockMode
	}{
		{LockIS, LockIS, LockIS},
		{LockIS, LockIX, LockIX},
		{LockIS, LockS, LockS},
		{LockS, LockX, LockX},
		{LockS, LockIX, LockX}, // SIX approximated as X
		{LockIX, LockS, LockX},
		{LockIX, LockX, LockX},
	}
	for _, c := range cases {
		if got := upgradeMode(c.a, c.b); got != c.want {
			t.Errorf("upgradeMode(%s, %s) = %s, want %s", c.a, c.b, got, c.want)
		}
		// Symmetric.
		if got := upgradeMode(c.b, c.a); got != c.want {
			t.Errorf("upgradeMode(%s, %s) = %s, want %s", c.b, c.a, got, c.want)
		}
	}
}

// TestLockEntryInvariants drives the lock manager through a seeded random
// sequence of acquisitions, upgrades, releases and timed-out waits, and checks
// after every step that each transaction's held list points at the live
// entries, that the entries hold exactly the modes a model predicts, that no
// recycled entry keeps a holder, a request or a transaction alive, and that
// heldCount agrees with the held lists.
func TestLockEntryInvariants(t *testing.T) {
	lm, newTxn := newLockFixture(t, 200*time.Microsecond)
	txns := []*Txn{newTxn(), newTxn(), newTxn(), newTxn()}
	ids := []lockID{{Table: 1}, {Table: 1, Key: "1"}, {Table: 1, Key: "2"}}
	model := map[*Txn]map[lockID]LockMode{}
	for _, tx := range txns {
		model[tx] = map[lockID]LockMode{}
	}
	rng := rand.New(rand.NewSource(1))
	upgrades, freed := 0, 0
	for step := 0; step < 400; step++ {
		tx := txns[rng.Intn(len(txns))]
		switch op := rng.Intn(10); {
		case op < 7: // acquire; an upgrade when tx already holds the id
			id, mode := ids[rng.Intn(len(ids))], LockMode(rng.Intn(4))
			err := lm.acquire(tx, id, mode)
			if err == nil {
				held, ok := model[tx][id]
				if !ok {
					held = mode
				} else if upgradeMode(held, mode) != held {
					upgrades++
				}
				model[tx][id] = upgradeMode(held, mode)
			} else if !errors.Is(err, ErrLockTimeout) {
				t.Fatalf("step %d: acquire %s on %v: %v", step, mode, id, err)
			}
		case op < 9:
			lm.releaseShared(tx)
			for id, mode := range model[tx] {
				if mode.shared() {
					delete(model[tx], id)
				}
			}
		default:
			lm.releaseAll(tx)
			clear(model[tx])
		}

		lm.mu.Lock()
		held := 0
		for _, tx := range txns {
			held += len(tx.locks)
			if len(tx.locks) != len(model[tx]) {
				t.Fatalf("step %d: txn %d holds %d locks, model %d", step, tx.id, len(tx.locks), len(model[tx]))
			}
			for _, e := range tx.locks {
				if lm.locks[e.id] != e {
					t.Fatalf("step %d: txn %d holds %v through an entry that is not the live one", step, tx.id, e.id)
				}
				if i := e.find(tx); i < 0 || e.granted[i].mode != model[tx][e.id] {
					t.Fatalf("step %d: txn %d holds %v in mode %v, model %v", step, tx.id, e.id, e.granted, model[tx][e.id])
				}
			}
		}
		for id, e := range lm.locks {
			for i, a := range e.granted {
				for _, b := range e.granted[i+1:] {
					if a.txn == b.txn || !lockCompat[a.mode][b.mode] {
						t.Fatalf("step %d: %v has conflicting holders %v", step, id, e.granted)
					}
				}
			}
		}
		freed += len(lm.free)
		for _, e := range lm.free {
			if len(e.granted) != 0 || e.queue != nil || e.id != (lockID{}) {
				t.Fatalf("step %d: free entry %v has holders %v or requests %v", step, e.id, e.granted, e.queue)
			}
			for _, h := range e.granted[:cap(e.granted)] {
				if h.txn != nil {
					t.Fatalf("step %d: free entry keeps txn %d alive", step, h.txn.id)
				}
			}
		}
		lm.mu.Unlock()
		if n := lm.heldCount(); n != uint64(held) {
			t.Fatalf("step %d: heldCount %d, held lists %d", step, n, held)
		}
	}
	if _, timeouts := lm.failedWaits(); upgrades == 0 || timeouts == 0 || freed == 0 {
		t.Fatalf("sequence made %d upgrades, %d timed-out waits, %d free entries; want each > 0", upgrades, timeouts, freed)
	}
}

// heldLocksForTest exposes the held set under the lock-manager mutex.
func (t *Txn) heldLocksForTest() []*lockEntry {
	t.engine.locks.mu.Lock()
	defer t.engine.locks.mu.Unlock()
	return t.locks
}
