package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"sdp/internal/core"
	"sdp/internal/obs"
	"sdp/internal/sqldb"
	"sdp/internal/wal"
)

// WALBench holds the durability-subsystem benchmark results written by
// cmd/experiments -bench-wal to BENCH_wal.json: commit latency and physical
// flush counts as concurrent committers grow, with and without group commit,
// plus the restart-recovery comparison of log replay against a full
// Algorithm-1 copy.
type WALBench struct {
	FlushLatencyUs      float64          `json:"flush_latency_us"`
	CommitsPerCommitter int              `json:"commits_per_committer"`
	GroupCommit         []WALCommitPoint `json:"group_commit"`
	NoGroupCommit       []WALCommitPoint `json:"no_group_commit"`

	RecoveryRows     int     `json:"recovery_rows"`
	DeltaRows        int     `json:"delta_rows"`
	FastRecoveryMs   float64 `json:"fast_recovery_ms"`
	FastRestartMs    float64 `json:"fast_restart_ms"`
	FastCatchupMs    float64 `json:"fast_catchup_ms"`
	FastReplayed     int     `json:"fast_replayed_statements"`
	FullRecoveryMs   float64 `json:"full_recovery_ms"`
	FastSpeedupRatio float64 `json:"fast_speedup_ratio"`
}

// WALCommitPoint is one measurement of the commit pipeline at a fixed number
// of concurrent committers.
type WALCommitPoint struct {
	Committers       int     `json:"committers"`
	CommitUsPerOp    float64 `json:"commit_us_per_op"`
	Flushes          uint64  `json:"flushes"`
	FlushesPerCommit float64 `json:"flushes_per_commit"`
}

// walBenchCommits picks how many transactions each committer runs.
func (c Config) walBenchCommits() int {
	if c.Quick {
		return 40
	}
	return 200
}

// walBenchRows picks the recovery demo's big-table size.
func (c Config) walBenchRows() int {
	if c.Quick {
		return 2000
	}
	return 10000
}

// walCommitPoint measures mean commit latency and flush counts with the
// given number of concurrent committers. Each committer writes its own table
// so commits conflict only in the log, which is what the experiment
// measures: with group commit one flush — one simulated fsync — satisfies
// every committer waiting at that moment; without it each commit pays the
// full flush latency itself.
func walCommitPoint(committers, commitsEach int, flushLat time.Duration, noGroup bool) (WALCommitPoint, error) {
	pt := WALCommitPoint{Committers: committers}
	reg := obs.NewRegistry()
	m := wal.NewMetrics(reg)
	e := sqldb.NewEngine(sqldb.DefaultConfig())
	e.AttachWAL(wal.New(wal.NewMemStore(), wal.Config{FlushLatency: flushLat, NoGroupCommit: noGroup}, m))
	e.SetWALMetrics(m)
	defer e.Close()
	if err := e.CreateDatabase("app"); err != nil {
		return pt, err
	}
	for j := 0; j < committers; j++ {
		if _, err := e.Exec("app", fmt.Sprintf("CREATE TABLE t%d (id INT PRIMARY KEY)", j)); err != nil {
			return pt, err
		}
	}
	base := m.Flushes.Value()

	var wg sync.WaitGroup
	errs := make([]error, committers)
	start := time.Now()
	for j := 0; j < committers; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for k := 0; k < commitsEach; k++ {
				if _, err := e.Exec("app", fmt.Sprintf("INSERT INTO t%d VALUES (%d)", j, k)); err != nil {
					errs[j] = err
					return
				}
			}
		}(j)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return pt, err
		}
	}
	total := committers * commitsEach
	pt.CommitUsPerOp = elapsed.Seconds() * 1e6 / float64(commitsEach)
	pt.Flushes = m.Flushes.Value() - base
	pt.FlushesPerCommit = float64(pt.Flushes) / float64(total)
	return pt, nil
}

// walRecoveryCluster builds a WAL-enabled cluster with `machines` machines
// and the "app" database holding a big table of `rows` rows.
func walRecoveryCluster(machines, rows int) (*core.Cluster, error) {
	c := core.NewCluster("walbench", core.Options{Replicas: 2, WAL: wal.Config{Compact: true}})
	if _, err := c.AddMachines(machines); err != nil {
		return nil, err
	}
	if err := c.CreateDatabase("app"); err != nil {
		return nil, err
	}
	if _, err := c.Exec("app", "CREATE TABLE big (id INT PRIMARY KEY, v TEXT)"); err != nil {
		return nil, err
	}
	if _, err := c.Exec("app", "CREATE TABLE delta (id INT PRIMARY KEY)"); err != nil {
		return nil, err
	}
	for i := 0; i < rows; i++ {
		if _, err := c.Exec("app", "INSERT INTO big VALUES (?, ?)",
			sqldb.NewInt(int64(i)), sqldb.NewText(fmt.Sprintf("row%d", i))); err != nil {
			return nil, err
		}
	}
	// The periodic checkpoint every deployment runs: restart replay is
	// bounded by the log tail, not the machine's whole history. The writes
	// after it form that tail — statements a restarting machine replays.
	if err := c.CheckpointMachines(); err != nil {
		return nil, err
	}
	for i := rows; i < rows+rows/50; i++ {
		if _, err := c.Exec("app", "INSERT INTO big VALUES (?, ?)",
			sqldb.NewInt(int64(i)), sqldb.NewText(fmt.Sprintf("row%d", i))); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// RunWALBench measures the durability subsystem: the group-commit scaling
// curve (commit latency and flushes per commit as committers grow, against
// the no-group-commit baseline at the same simulated fsync latency) and the
// recovery comparison — a failed machine rejoining by local log replay plus
// delta catch-up versus a full Algorithm-1 copy of the same database.
func RunWALBench(cfg Config) (WALBench, error) {
	const flushLat = 200 * time.Microsecond
	res := WALBench{
		FlushLatencyUs:      float64(flushLat) / float64(time.Microsecond),
		CommitsPerCommitter: cfg.walBenchCommits(),
	}
	for _, n := range []int{1, 2, 4, 8, 16} {
		pt, err := walCommitPoint(n, res.CommitsPerCommitter, flushLat, false)
		if err != nil {
			return res, err
		}
		res.GroupCommit = append(res.GroupCommit, pt)
		pt, err = walCommitPoint(n, res.CommitsPerCommitter, flushLat, true)
		if err != nil {
			return res, err
		}
		res.NoGroupCommit = append(res.NoGroupCommit, pt)
	}

	// Recovery comparison, median of recoveryTrials each (a GC pause can rival
	// the measured interval). Fast path: the failed machine restarts with its
	// log intact, replays it, and only the post-failure delta is copied.
	res.RecoveryRows = cfg.walBenchRows()
	res.DeltaRows = 100
	fasts := make([]walFastTrial, 0, recoveryTrials)
	for i := 0; i < recoveryTrials; i++ {
		tr, err := walFastRecoveryTrial(res.RecoveryRows, res.DeltaRows)
		if err != nil {
			return res, err
		}
		fasts = append(fasts, tr)
	}
	sort.Slice(fasts, func(i, j int) bool { return fasts[i].totalMs < fasts[j].totalMs })
	med := fasts[len(fasts)/2]
	res.FastRecoveryMs = med.totalMs
	res.FastRestartMs = med.restartMs
	res.FastCatchupMs = med.totalMs - med.restartMs
	res.FastReplayed = med.replayed

	// Full path: the machine never comes back; a fresh target receives a
	// complete Algorithm-1 copy of the same data.
	fulls := make([]float64, 0, recoveryTrials)
	for i := 0; i < recoveryTrials; i++ {
		ms, err := walFullRecoveryTrial(res.RecoveryRows)
		if err != nil {
			return res, err
		}
		fulls = append(fulls, ms)
	}
	sort.Float64s(fulls)
	res.FullRecoveryMs = fulls[len(fulls)/2]
	if res.FastRecoveryMs > 0 {
		res.FastSpeedupRatio = res.FullRecoveryMs / res.FastRecoveryMs
	}
	return res, nil
}

// recoveryTrials is how many times each recovery path is measured; the
// reported numbers are the median trial. Both paths load every row of the
// database exactly once (a checkpoint image on restart, a dump image on a
// copy), so they differ by some 10% and a median of three cannot tell them
// apart.
const recoveryTrials = 9

// walFastTrial is one timed fast-path recovery.
type walFastTrial struct {
	totalMs   float64
	restartMs float64
	replayed  int
}

// walFastRecoveryTrial measures one restart-and-catch-up recovery: fail a
// replica, write a small delta, restart the machine (checkpoint restore plus
// log-tail replay) and re-admit it with a delta-only catch-up.
func walFastRecoveryTrial(rows, deltaRows int) (walFastTrial, error) {
	var tr walFastTrial
	c, err := walRecoveryCluster(2, rows)
	if err != nil {
		return tr, err
	}
	replicas, err := c.Replicas("app")
	if err != nil {
		return tr, err
	}
	victim := replicas[1]
	affected, err := c.FailMachine(victim)
	if err != nil {
		return tr, err
	}
	for i := 0; i < deltaRows; i++ {
		if _, err := c.Exec("app", "INSERT INTO delta VALUES (?)", sqldb.NewInt(int64(i))); err != nil {
			return tr, err
		}
	}
	runtime.GC()
	start := time.Now()
	stats, err := c.RestartMachine(victim)
	if err != nil {
		return tr, err
	}
	tr.restartMs = time.Since(start).Seconds() * 1e3
	if rep := c.RecoverDatabases(affected, 1); len(rep.Failed) > 0 {
		return tr, fmt.Errorf("fast recovery failed: %v", rep.Failed)
	}
	tr.totalMs = time.Since(start).Seconds() * 1e3
	tr.replayed = stats.Applied
	return tr, nil
}

// walFullRecoveryTrial measures one full Algorithm-1 recovery of the same
// database onto a fresh target machine.
func walFullRecoveryTrial(rows int) (float64, error) {
	c, err := walRecoveryCluster(3, rows)
	if err != nil {
		return 0, err
	}
	replicas, err := c.Replicas("app")
	if err != nil {
		return 0, err
	}
	affected, err := c.FailMachine(replicas[1])
	if err != nil {
		return 0, err
	}
	runtime.GC()
	start := time.Now()
	if rep := c.RecoverDatabases(affected, 1); len(rep.Failed) > 0 {
		return 0, fmt.Errorf("full recovery failed: %v", rep.Failed)
	}
	return time.Since(start).Seconds() * 1e3, nil
}
