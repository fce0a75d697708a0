package main

import (
	"errors"
	"fmt"
	"regexp"
	"testing"
	"time"

	"sdp/internal/core"
	"sdp/internal/sqldb"
	"sdp/internal/wal"
	"sdp/internal/wire"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload in both modes with a 300 ms window and all
// checks on, and holds the emitted metrics to BENCHMARK.json: every metric
// the contract names comes out exactly once, in the mode the contract puts
// it in, with the contract's unit.
func TestSmoke(t *testing.T) {
	var c benchContract
	if err := readJSON("../BENCHMARK.json", &c); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		for trace, want := range [][]contractMetric{c.EndToEnd, c.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace%d", name, trace), func(t *testing.T) {
				t.Parallel()
				res, err := runOne(options{workload: name, seed: 1, window: 300 * time.Millisecond,
					trace: trace == 1, outDir: t.TempDir(), setups: 1, start: time.Now(), smoke: true})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, contract lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s: in BENCHMARK.json, not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s: unit %q, contract says %q", m.Name, got.Unit, m.Unit)
					case !metricName.MatchString(m.Name):
						t.Errorf("%s: not a metric name", m.Name)
					}
				}
			})
		}
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want errClass
	}{
		{core.ErrRejected, classRejected},
		{fmt.Errorf("write to item: %w", core.ErrRejected), classRejected},
		{&wire.Error{Code: wire.ErrCodeRejected}, classRejected},
		{sqldb.ErrDeadlock, classDeadlock},
		{&wire.Error{Code: wire.ErrCodeDeadlock}, classDeadlock},
		{sqldb.ErrLockTimeout, classLockTimeout},
		{&wire.Error{Code: wire.ErrCodeLockTimeout}, classLockTimeout},
		{core.ErrNotLeader, classLease},
		{core.ErrNoQuorum, classLease},
		{&wire.Error{Code: wire.ErrCodeNotLeader}, classLease},
		{fmt.Errorf("%w: database shop01", sqldb.ErrNoTable), classStaleTable},
		{core.ErrStaleRoute, classRetryable},
		{core.ErrMachineFailed, classRetryable},
		{wal.ErrSealed, classRetryable},
		{sqldb.ErrTxnAborted, classRetryable},
		{sqldb.ErrOptimisticConflict, classRetryable},
		{&wire.Error{Code: wire.ErrCodeOptimisticConflict}, classRetryable},
		{&wire.Error{Code: wire.ErrCodeUnavailable}, classRetryable},
		{&wire.Error{Code: wire.ErrCodeShutdown}, classRetryable},
		{&wire.Error{Code: wire.ErrCodeExec, Msg: "duplicate key"}, classFatal},
		{&wire.Error{Code: wire.ErrCodeParse}, classFatal},
		{core.ErrNoDatabase, classFatal},
		{errors.New("anything else"), classFatal},
		{fmt.Errorf("%w: id 3 returned []", errIncorrect), classFatal},
	} {
		if got := classify(tc.err); got != tc.want {
			t.Errorf("classify(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) = [3.5, 13.5, 31.0]
	got := spread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if want := (31.0 - 3.5) / 13.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
