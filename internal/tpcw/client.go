package tpcw

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"sdp/internal/sqldb"
)

// ErrorClass categorises a transaction failure for accounting.
type ErrorClass int

// Failure classes.
const (
	// ClassFatal is an unexpected error; the session stops.
	ClassFatal ErrorClass = iota
	// ClassAborted is an application-inherent abort (deadlock, lock
	// timeout); per the paper's SLA model these do not count as proactive
	// rejections.
	ClassAborted
	// ClassRejected is a proactive rejection by the controller during
	// replica creation — the paper's availability metric.
	ClassRejected
)

// Classifier maps an error to its class. The default knows the engine's
// errors; platform layers wrap it to tag their own rejection errors.
type Classifier func(error) ErrorClass

// DefaultClassifier treats deadlocks, lock timeouts and branch aborts as
// ClassAborted and everything else as fatal.
func DefaultClassifier(err error) ErrorClass {
	switch {
	case errors.Is(err, sqldb.ErrDeadlock),
		errors.Is(err, sqldb.ErrLockTimeout),
		errors.Is(err, sqldb.ErrTxnAborted):
		return ClassAborted
	default:
		return ClassFatal
	}
}

// Stats accumulates the outcome counts of a workload run.
type Stats struct {
	Committed uint64
	Aborted   uint64
	Rejected  uint64
	Fatal     uint64
	// ByKind counts committed transactions per profile.
	ByKind [numTxKinds]uint64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// TPS returns committed transactions per second.
func (s Stats) TPS() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Committed) / s.Elapsed.Seconds()
}

// merge adds o into s.
func (s *Stats) merge(o Stats) {
	s.Committed += o.Committed
	s.Aborted += o.Aborted
	s.Rejected += o.Rejected
	s.Fatal += o.Fatal
	for k := range s.ByKind {
		s.ByKind[k] += o.ByKind[k]
	}
}

// Client drives TPC-W sessions against a database.
type Client struct {
	DB       DB
	Mix      Mix
	Workload *Workload
	Classify Classifier
	// RejectBackoff, when positive, is slept after a proactively rejected
	// transaction before retrying, like a well-behaved application server.
	RejectBackoff time.Duration
}

// RunSession executes transactions until stop closes, using a session-local
// PRNG derived from seed.
func (c *Client) RunSession(seed int64, stop <-chan struct{}) Stats {
	return c.run(seed, c.RejectBackoff, func(int) bool {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	})
}

// RunN executes exactly n mix-weighted transactions and returns the
// statistics. Unlike RunSession it is driven by a count rather than a stop
// channel, which makes it suitable for benchmark loops that charge each
// transaction to one iteration, and it never backs off. A fatal error ends
// the run early.
func (c *Client) RunN(seed int64, n int) Stats {
	return c.run(seed, 0, func(done int) bool { return done < n })
}

// run is the one session loop: transactions drawn from the mix while more
// says so, each outcome classified and counted.
func (c *Client) run(seed int64, backoff time.Duration, more func(done int) bool) Stats {
	classify := c.Classify
	if classify == nil {
		classify = DefaultClassifier
	}
	rng := rand.New(rand.NewSource(seed))
	var st Stats
	start := time.Now()
	for i := 0; st.Fatal == 0 && more(i); i++ {
		kind := c.Mix.pick(rng)
		err := c.runOne(kind, rng)
		if err == nil {
			st.Committed++
			st.ByKind[kind]++
			continue
		}
		switch classify(err) {
		case ClassAborted:
			st.Aborted++
		case ClassRejected:
			st.Rejected++
			if backoff > 0 {
				time.Sleep(backoff)
			}
		default:
			st.Fatal++
		}
	}
	st.Elapsed = time.Since(start)
	return st
}

// runOne executes one transaction with commit/rollback handling.
func (c *Client) runOne(kind TxKind, rng *rand.Rand) error {
	tx, err := c.DB.Begin()
	if err != nil {
		return err
	}
	if err := c.Workload.Run(kind, tx, rng); err != nil {
		_ = tx.Rollback()
		return err
	}
	return tx.Commit()
}

// RunConcurrent drives `sessions` concurrent sessions for the given
// duration and returns the merged statistics.
func (c *Client) RunConcurrent(sessions int, d time.Duration, seed int64) Stats {
	stop := make(chan struct{})
	results := make([]Stats, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.RunSession(seed+int64(i)*7919, stop)
		}(i)
	}
	time.Sleep(d)
	close(stop)
	wg.Wait()
	var total Stats
	for _, r := range results {
		total.merge(r)
	}
	total.Elapsed = d
	return total
}
