package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"sdp/internal/core"
)

// options select one run.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	outDir   string
	// setups is how many times the workload is set up (boot, load, dial,
	// prepare, warm-up); all but the last are torn down again and setup_s is
	// the median.
	setups int
	start  time.Time // process start, so the first set-up carries the runtime's own start-up
	// smoke shortens every warm-up twentyfold, for the smoke test only.
	smoke bool
}

// warmOps is how many operations each client of w runs before it is measured.
func (o options) warmOps(w workload) int {
	if o.smoke {
		return w.warmOps() / 20
	}
	return w.warmOps()
}

// windowSlices is how many equal time slices the measured window is cut
// into; txn_per_s, lat_p50_us and lat_p90_us are the best quartile of them.
const windowSlices = 100

// prepared is a workload set up on its top rung, clients warmed, ready for
// the window.
type prepared struct {
	w       workload
	s       *stack
	clients []client
}

// setUp boots a fresh stack, loads the workload, connects the clients and
// warms them up.
func setUp(o options) (*prepared, error) {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	return setUpOn(w, w.topRung(), w.clients(), o.warmOps(w))
}

func setUpOn(w workload, r rung, nClients, warmOps int) (*prepared, error) {
	s, err := boot(r, w.poolPages())
	if err != nil {
		return nil, err
	}
	p := &prepared{w: w, s: s}
	if err := w.load(s); err != nil {
		s.close()
		return nil, fmt.Errorf("load %s: %w", w.name(), err)
	}
	for i := 0; i < nClients; i++ {
		c, err := w.client(s, i)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
		p.clients = append(p.clients, c)
	}
	if t := warm(p.clients, warmOps); t.failed > 0 {
		s.close()
		return nil, fmt.Errorf("warm-up of %s: %d of %d operations failed, first: %w", w.name(), t.failed, t.attempted, t.firstErr)
	}
	return p, nil
}

// runOne is one benchmark run: set up, measure one window, check, report.
func runOne(o options) (result, error) {
	var setupTimes []float64
	var p *prepared
	from := o.start
	for i := 0; i < o.setups; i++ {
		if p != nil {
			p.s.close()
		}
		var err error
		if p, err = setUp(o); err != nil {
			return result{}, err
		}
		setupTimes = append(setupTimes, time.Since(from).Seconds())
		from = time.Now()
	}
	defer p.s.close()
	// Collect what the torn-down set-ups left and hand it back, so that the
	// resident size is the loaded, warmed platform's and every window starts
	// from the same heap.
	runtime.GC()
	debug.FreeOSMemory()
	resident, err := procStatusMB("VmRSS")
	if err != nil {
		return result{}, err
	}

	window := o.window
	if o.trace {
		window = o.window * 2 / 5 // the ladder gets the rest
	}
	var churn *churnDriver
	var background func(stop <-chan struct{})
	if tw, ok := p.w.(*tpcwWorkload); ok && tw.churn() {
		var err error
		if churn, err = newChurnDriver(p.s, tw); err != nil {
			return result{}, err
		}
		background = churn.run
	}

	reg := regDelta{before: p.s.p.Metrics().Snapshot()}
	procBefore := readProc()
	t := measure(p.clients, window, windowSlices, background)
	procAfter := readProc()
	reg.after = p.s.p.Metrics().Snapshot()
	peak, err := procStatusMB("VmHWM")
	if err != nil {
		return result{}, err
	}

	if stolen := procAfter.steal - procBefore.steal; stolen > 0 {
		fmt.Fprintf(os.Stderr, "bench: the hypervisor took %v of processor time from the box during the window\n", stolen)
	}
	res := result{Correct: t.incorrect == 0, Attempted: t.attempted, Failed: t.failed}
	if t.firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %d of %d operations failed, first: %v\n", t.failed, t.attempted, t.firstErr)
	}
	if err := p.w.verify(p.s); err != nil {
		fmt.Fprintf(os.Stderr, "bench: correctness check failed: %v\n", err)
		res.Correct = false
	}
	restartMs := 0.0
	if kv, ok := p.w.(*kvWorkload); ok && !kv.read {
		if restartMs, err = durabilityCheck(p.s, kv); err != nil {
			fmt.Fprintf(os.Stderr, "bench: durability check failed: %v\n", err)
			res.Correct = false
		}
	}

	perSec, p50, p90 := t.bestQuartile(window / windowSlices)
	if !o.trace {
		m := newMetricSet(endToEnd)
		m.set("txn_per_s", perSec)
		m.set("lat_p50_us", p50)
		m.set("lat_p90_us", p90)
		m.set("resident_mb", resident)
		m.set("setup_s", median(setupTimes))
		res.Metrics = m.finish()
		m.print(o.workload)
		return res, nil
	}

	m := newMetricSet(perLayer)
	txns := float64(len(t.lat))
	copies := 0.0
	if churn != nil {
		copies = float64(len(churn.copyNs))
		m.set("core.copies_per_s", copies/window.Seconds())
		m.set("core.copy_ms_p50", quantile(sortedCopy(churn.copyNs), 0.5)/1e6)
		m.set("core.copy_failures", float64(churn.failures))
	}
	registryMetrics(m, reg, txns, copies)
	processMetrics(m, procBefore, procAfter, txns, window)
	windowP50 := clientMetrics(m, &t, window)
	m.set("process.resident_mb", resident)
	m.set("process.peak_rss_mb", peak)
	m.set("wal.restart_ms", restartMs)
	if err := tracedRun(m, o, windowP50, churn, &t); err != nil {
		return result{}, err
	}
	res.Metrics = m.finish()
	m.print(o.workload)
	return res, nil
}

// clientMetrics reports what the clients counted themselves (source C).
// It returns the whole-window median latency in µs, the total the layer budget
// is drawn against.
func clientMetrics(m *metricSet, t *tally, window time.Duration) float64 {
	all := sortedCopy(t.lat)
	attempts := float64(t.attempted)
	var errs float64
	for _, n := range t.byClass {
		errs += float64(n)
	}
	m.set("client.samples", float64(len(all)))
	m.set("client.txn_per_s_mean", float64(len(all))/window.Seconds())
	p50us := quantile(all, 0.50) / 1e3
	m.set("client.lat_p50_us", p50us)
	m.set("client.lat_p95_us", quantile(all, 0.95)/1e3)
	m.set("client.lat_p99_us", quantile(all, 0.99)/1e3)
	m.set("client.lat_p999_us", quantile(all, 0.999)/1e3)
	m.set("client.lat_max_ms", quantile(all, 1)/1e6)
	m.set("client.retry_share", div(float64(t.retried), attempts))
	m.set("client.failed_share", div(float64(t.failed), attempts))
	m.set("core.rejected_share", div(float64(t.byClass[classRejected]), attempts+errs-float64(t.failed)))
	m.set("core.stale_table_errors_per_ktxn", div(1000*float64(t.byClass[classStaleTable]), attempts))
	m.set("core.lease_refusals_per_ktxn", div(1000*float64(t.byClass[classLease]), attempts))
	m.set("sqldb.deadlocks_per_ktxn", div(1000*float64(t.byClass[classDeadlock]), attempts))
	m.set("sqldb.lock_timeouts_per_ktxn", div(1000*float64(t.byClass[classLockTimeout]), attempts))
	return p50us
}

// durabilityCheck crashes one replica of the write workload's database —
// which drops whatever its log had not synced — restarts it from its own
// log, and requires the restarted engine to hold every acknowledged update
// before the controller has had any chance to catch it up from the survivor.
// It returns the time from crash to rejoined replica set.
func durabilityCheck(s *stack, w *kvWorkload) (float64, error) {
	cl := s.cluster(kvDB)
	cl.DrainResolvers()
	ids, err := cl.Replicas(kvDB)
	if err != nil {
		return 0, err
	}
	victim := ids[len(ids)-1]
	start := time.Now()
	if _, err := s.co.CrashMachine(victim); err != nil {
		return 0, fmt.Errorf("crash %s: %w", victim, err)
	}
	if _, err := cl.RestartMachine(victim); err != nil {
		return 0, fmt.Errorf("restart %s: %w", victim, err)
	}
	m, err := cl.Machine(victim)
	if err != nil {
		return 0, err
	}
	got, err := scalar(m.Engine().Exec(kvDB, "SELECT SUM(v) FROM "+w.table))
	if err != nil {
		return 0, fmt.Errorf("read restarted %s: %w", victim, err)
	}
	if got != w.wantSum() {
		return 0, fmt.Errorf("restarted %s holds SUM(v) = %d, want %d: %d acknowledged updates lost",
			victim, got, w.wantSum(), w.wantSum()-got)
	}
	report := cl.RecoverDatabases(m.Engine().Databases(), 1)
	for db, err := range report.Failed {
		return 0, fmt.Errorf("rejoin %s on %s: %w", db, victim, err)
	}
	ms := float64(time.Since(start)) / 1e6
	return ms, w.verify(s)
}

// churnDriver is replica_churn's background load: Algorithm 1 copies back to
// back, one tenant after another.
type churnDriver struct {
	cl       *core.Cluster
	dbs      []string
	targets  [][]string
	copyNs   []int64 // wall time of each successful GrowReplica
	failures int64   // GrowReplica or ShrinkReplica calls that returned an error
	spans    []span
	origin   time.Time
}

func newChurnDriver(s *stack, w *tpcwWorkload) (*churnDriver, error) {
	targets, cl, err := churnTargets(s, w)
	if err != nil {
		return nil, err
	}
	d := &churnDriver{cl: cl, targets: targets}
	for _, t := range w.tenants {
		d.dbs = append(d.dbs, t.db)
	}
	return d, nil
}

// run grows a third replica of the next tenant and shrinks it away again
// until stop closes. Every grow is followed by its shrink, so the replica
// sets are back at two when run returns.
func (d *churnDriver) run(stop <-chan struct{}) {
	d.origin = time.Now()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		db := d.dbs[i%len(d.dbs)]
		targets := d.targets[i%len(d.dbs)]
		target := targets[(i/len(d.dbs))%len(targets)]
		t0 := time.Now()
		err := d.cl.GrowReplica(db, target)
		t1 := time.Now()
		d.spans = append(d.spans, span{Op: int64(i), Name: "copy.grow", Start: int64(t0.Sub(d.origin)), End: int64(t1.Sub(d.origin))})
		if err != nil {
			d.failures++
			fmt.Fprintf(os.Stderr, "bench: grow %s onto %s: %v\n", db, target, err)
			continue
		}
		d.copyNs = append(d.copyNs, int64(t1.Sub(t0)))
		// The shrink is retried: while it fails the tenant has three replicas
		// and the end-of-run replica check would not hold.
		for try := 0; ; try++ {
			err = d.cl.ShrinkReplica(db, target)
			if err == nil || try == maxRetries {
				break
			}
			d.failures++
			time.Sleep(firstBackoff)
		}
		d.spans = append(d.spans, span{Op: int64(i), Name: "copy.shrink", Start: int64(t1.Sub(d.origin)), End: int64(time.Since(d.origin))})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: shrink %s off %s: %v\n", db, target, err)
		}
	}
}
