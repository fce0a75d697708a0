package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"sdp/internal/core"
	"sdp/internal/sqldb"
	"sdp/internal/wire"
)

// numClients is the closed-loop client count: callers are application
// servers that wait for each reply, and load comes from no more goroutines
// and connections than the box has processors.
func numClients() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// errClass is the benchmark's view of an operation's error.
type errClass int

const (
	classFatal       errClass = iota // not retryable: the operation fails
	classRejected                    // Algorithm 1 refused a write during a replica copy
	classDeadlock                    // deadlock victim
	classLockTimeout                 // lock wait exceeded LockTimeout
	classLease                       // no controller held the quorum lease
	classStaleTable                  // routed to a replica whose database a finished copy or shrink had dropped
	classRetryable                   // any other transient condition
	numClasses
)

// classify sorts an error from any layer, in process or decoded from a wire
// error code (wire.Error unwraps to the same sentinels).
func classify(err error) errClass {
	switch {
	case errors.Is(err, errIncorrect):
		return classFatal
	case core.IsRejection(err):
		return classRejected
	case errors.Is(err, sqldb.ErrDeadlock):
		return classDeadlock
	case errors.Is(err, sqldb.ErrLockTimeout):
		return classLockTimeout
	case errors.Is(err, core.ErrNotLeader), errors.Is(err, core.ErrNoQuorum):
		return classLease
	case errors.Is(err, sqldb.ErrNoTable):
		// Not retryable by sdp.IsRetryable, though it is core.ErrStaleRoute in
		// all but name: replica_churn sees it when a statement reaches a
		// replica that ShrinkReplica has just dropped. Retried and counted (see
		// README.md, "Observed behaviours"); a genuinely missing table still
		// fails once the retries run out.
		return classStaleTable
	case core.IsRetryable(err), errors.Is(err, sqldb.ErrOptimisticConflict), wire.IsRetryable(err):
		return classRetryable
	}
	return classFatal
}

// Retry policy: a retryable error is retried up to maxRetries times with a
// doubling backoff; latency runs from the first attempt to the final outcome.
// On the wire workloads wire.Client has already retried five times inside
// each attempt, so this loop only sees what it gave up on.
const (
	maxRetries   = 8
	firstBackoff = time.Millisecond
	maxBackoff   = 50 * time.Millisecond
)

// nextBackoff doubles a retry backoff up to maxBackoff.
func nextBackoff(b time.Duration) time.Duration {
	if b *= 2; b > maxBackoff {
		return maxBackoff
	}
	return b
}

// tally is what one client (or, merged, one window) observed.
type tally struct {
	lat       []int64 // latency in ns of each committed operation, completion order
	end       []int64 // when each of them completed, in ns since the window opened
	sliceEnd  []int   // len(lat) when each time slice of the window ended
	attempted int64
	failed    int64
	incorrect int64
	retried   int64 // operations that needed at least one retry
	byClass   [numClasses]int64
	firstErr  error // first fatal error, for the report
}

// runOp runs c's next logical transaction to its final outcome and returns
// its latency.
func runOp(c client, t *tally) (time.Duration, bool) {
	c.next()
	start := time.Now()
	err := c.attempt()
	backoff := firstBackoff
	for tries := 0; err != nil; tries++ {
		cl := classify(err)
		t.byClass[cl]++
		if cl == classFatal || tries == maxRetries {
			break
		}
		if tries == 0 {
			t.retried++
		}
		time.Sleep(backoff)
		backoff = nextBackoff(backoff)
		err = c.attempt()
	}
	lat := time.Since(start)
	t.attempted++
	if err != nil {
		t.failed++
		if errors.Is(err, errIncorrect) {
			t.incorrect++
		}
		if t.firstErr == nil {
			t.firstErr = err
		}
		return lat, false
	}
	return lat, true
}

// warm runs n operations on every client concurrently and returns what they
// saw; a failure here fails the run like one in the window.
func warm(clients []client, n int) tally {
	tallies := make([]tally, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(c client, t *tally) {
			defer wg.Done()
			for k := 0; k < n; k++ {
				runOp(c, t)
			}
		}(c, &tallies[i])
	}
	wg.Wait()
	return merge(tallies)
}

// measure drives every client closed-loop for window, cut into slices equal
// time slices. An operation counts when it completes inside the window.
// background, when set, runs beside the clients and is stopped and waited for
// once they are done.
func measure(clients []client, window time.Duration, slices int, background func(stop <-chan struct{})) tally {
	tallies := make([]tally, len(clients))
	stop, bgDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(bgDone)
		if background != nil {
			background(stop)
		}
	}()
	start := time.Now()
	sliceDur := window / time.Duration(slices)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(c client, t *tally) {
			defer wg.Done()
			t.lat = make([]int64, 0, 1<<16)
			for {
				lat, ok := runOp(c, t)
				at := time.Since(start)
				if at >= window {
					t.attempted-- // completed outside the window: not counted
					if !ok {
						t.failed--
					}
					break
				}
				for len(t.sliceEnd) < int(at/sliceDur) {
					t.sliceEnd = append(t.sliceEnd, len(t.lat))
				}
				if ok {
					t.lat = append(t.lat, int64(lat))
					t.end = append(t.end, int64(at))
				}
			}
			for len(t.sliceEnd) < slices {
				t.sliceEnd = append(t.sliceEnd, len(t.lat))
			}
		}(c, &tallies[i])
	}
	wg.Wait()
	close(stop)
	<-bgDone
	return merge(tallies)
}

// merge folds the clients' tallies into one whose slices hold every client's
// samples of that time slice.
func merge(ts []tally) tally {
	var m tally
	slices := 0
	for _, t := range ts {
		m.attempted += t.attempted
		m.failed += t.failed
		m.incorrect += t.incorrect
		m.retried += t.retried
		for i := range m.byClass {
			m.byClass[i] += t.byClass[i]
		}
		if m.firstErr == nil {
			m.firstErr = t.firstErr
		}
		if len(t.sliceEnd) > slices {
			slices = len(t.sliceEnd)
		}
	}
	for s := 0; s < slices; s++ {
		for _, t := range ts {
			lo := 0
			if s > 0 {
				lo = t.sliceEnd[s-1]
			}
			m.lat = append(m.lat, t.lat[lo:t.sliceEnd[s]]...)
			m.end = append(m.end, t.end[lo:t.sliceEnd[s]]...)
		}
		m.sliceEnd = append(m.sliceEnd, len(m.lat))
	}
	return m
}

// slice returns the latencies of time slice s.
func (t *tally) slice(s int) []int64 {
	lo := 0
	if s > 0 {
		lo = t.sliceEnd[s-1]
	}
	return t.lat[lo:t.sliceEnd[s]]
}

// minSliceSamples is the fewest committed operations a slice needs for its
// latency percentiles to count.
const minSliceSamples = 10

// bestQuartile reports the window's end-to-end statistics from its time
// slices: the committed operations per second of the slice at the 75th
// percentile of slice rates, and the 25th percentile of the slices' p50 and
// p90 latencies in µs. Whatever else runs on the box can only slow a slice
// down, so the better slices are nearer to what the platform does undisturbed
// and hold from run to run where the median over slices moves with the
// neighbours (README.md, "Sizing and A/A runs"). A stall of the platform's own
// making lowers these too once it touches more than a quarter of the slices;
// the whole-window figures are in the per-layer client.* metrics.
func (t *tally) bestQuartile(sliceDur time.Duration) (perSec, p50us, p90us float64) {
	var rates, p50s, p90s []float64
	for s := range t.sliceEnd {
		lat := sortedCopy(t.slice(s))
		rates = append(rates, float64(len(lat))/sliceDur.Seconds())
		if len(lat) >= minSliceSamples {
			p50s = append(p50s, quantile(lat, 0.50)/1e3)
			p90s = append(p90s, quantile(lat, 0.90)/1e3)
		}
	}
	if len(p50s) == 0 { // a window too short for any slice to qualify
		all := sortedCopy(t.lat)
		p50s, p90s = []float64{quantile(all, 0.50) / 1e3}, []float64{quantile(all, 0.90) / 1e3}
	}
	slices.Sort(rates)
	slices.Sort(p50s)
	slices.Sort(p90s)
	fmt.Fprintf(os.Stderr, "bench: slice txn/s min %.0f median %.0f best quartile %.0f max %.0f; slice p50 us best quartile %.1f median %.1f max %.1f\n",
		rates[0], rates[len(rates)/2], rates[len(rates)*3/4], rates[len(rates)-1], p50s[len(p50s)/4], p50s[len(p50s)/2], p50s[len(p50s)-1])
	return rates[len(rates)*3/4], p50s[len(p50s)/4], p90s[len(p90s)/4]
}

// quantile reads the q-quantile from sorted samples (0 when empty).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sortedCopy(v []int64) []int64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

// scalar unpacks a one-row, one-INT-column result.
func scalar(res *sqldb.Result, err error) (int64, error) {
	if err != nil {
		return 0, err
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 || res.Rows[0][0].Typ != sqldb.TypeInt {
		return 0, fmt.Errorf("bench: want one INT, got %v", res.Rows)
	}
	return res.Rows[0][0].Int, nil
}
