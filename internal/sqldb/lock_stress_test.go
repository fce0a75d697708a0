package sqldb

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLockManagerStressInvariants hammers the lock manager with random
// acquire/release sequences from many goroutines and checks the two core
// invariants directly:
//
//   - mutual exclusion: while a goroutine holds X on a key, no other
//     goroutine holds any lock on it (checked with a shadow counter);
//   - liveness: every acquire eventually returns (granted, deadlock, or
//     timeout) — no lost wakeups.
func TestLockManagerStressInvariants(t *testing.T) {
	e := NewEngine(Config{LockTimeout: 200 * time.Millisecond})
	if err := e.CreateDatabase("d"); err != nil {
		t.Fatal(err)
	}
	lm := e.locks

	const keys = 6
	const workers = 8
	const iters = 300

	// shadow[k] tracks holders: -1000 per X holder, +1 per S holder.
	var shadow [keys]atomic.Int64
	var violations atomic.Int64

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				txn, err := e.Begin("d")
				if err != nil {
					t.Error(err)
					return
				}
				n := 1 + rng.Intn(3)
				type held struct {
					key  int
					mode LockMode
				}
				var locks []held
				aborted := false
				for j := 0; j < n && !aborted; j++ {
					k := rng.Intn(keys)
					mode := LockS
					if rng.Intn(2) == 0 {
						mode = LockX
					}
					err := lm.acquire(txn, lockID{Table: 1, Key: string(rune('a' + k))}, mode)
					switch {
					case err == nil:
						// Check and update the shadow state. Upgrades and
						// re-acquisitions make exact accounting hard, so
						// only fresh keys count.
						fresh := true
						for _, h := range locks {
							if h.key == k {
								fresh = false
							}
						}
						if fresh {
							if mode == LockX {
								if shadow[k].Load() != 0 {
									violations.Add(1)
								}
								shadow[k].Add(-1000)
							} else {
								if shadow[k].Load() < 0 {
									violations.Add(1)
								}
								shadow[k].Add(1)
							}
							locks = append(locks, held{key: k, mode: mode})
						}
					case errors.Is(err, ErrDeadlock), errors.Is(err, ErrLockTimeout), errors.Is(err, ErrTxnAborted):
						aborted = true
					default:
						t.Errorf("unexpected error: %v", err)
						aborted = true
					}
				}
				// Undo the shadow state before releasing the real locks so
				// a waiter granted immediately after release never sees a
				// stale shadow entry.
				for _, h := range locks {
					if h.mode == LockX {
						shadow[h.key].Add(1000)
					} else {
						shadow[h.key].Add(-1)
					}
				}
				lm.releaseAll(txn)
			}
		}(int64(w) * 7919)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stress test hung: lost wakeup in the lock manager")
	}
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d mutual-exclusion violations", v)
	}
	// All locks released: the lock table must be empty.
	lm.mu.Lock()
	remaining := len(lm.locks)
	lm.mu.Unlock()
	if remaining != 0 {
		t.Errorf("%d lock entries leaked", remaining)
	}
}
