package core

import (
	"errors"
	"sync"
	"time"

	"sdp/internal/obs"
	"sdp/internal/placement"
	"sdp/internal/sla"
)

// This file closes the loop from the SLA monitor into placement: a periodic
// decision loop samples the monitor's per-database windows, classifies
// tenants hot/warm/cold (internal/placement), grows hot tenants' replica
// degree and shrinks cold ones within the replica budget, and corrects load
// skew by migration. Every target is chosen by placement.Pick over the one
// view placementView builds per round.
// Decisions execute through the same replicated control-plane primitives as
// manual operations (GrowReplica → Algorithm 1 copy, ShrinkReplica →
// replicated retire, MigrateReplica), so they survive controller failover;
// the loop itself only acts while its controller holds the quorum lease,
// and every action is level-triggered — an action lost to ErrNotLeader or
// ErrNoQuorum is simply re-planned by the next leader's next round from
// fresh signals.

// AdaptiveConfig tunes the adaptive provisioning controller.
type AdaptiveConfig struct {
	// Interval is the decision-loop period. Zero selects 500ms. Rounds
	// re-plan from scratch, so the interval bounds reaction time, not
	// correctness.
	Interval time.Duration
	// Budget bounds every tenant's replica degree (TCDRM-style).
	Budget placement.Budget
	// MaxConcurrentMoves caps Algorithm 1 copies in flight from this
	// controller (K in the issue); actions beyond it wait for the next
	// round. Zero selects 2.
	MaxConcurrentMoves int
	// RebalanceMinGain is the relative peak-utilisation reduction a
	// skew-correcting migration must achieve before the loop launches it.
	// Observed loads jitter window to window; without a margin the
	// rebalancer chases the noise, ping-ponging replicas between
	// near-equal machines (each move an Algorithm 1 copy that costs real
	// latency). Zero selects 0.1 (a move must cut the peak by 10%);
	// negative selects any strict improvement, the manual Rebalance
	// semantics.
	RebalanceMinGain float64
}

func (cfg AdaptiveConfig) withDefaults() AdaptiveConfig {
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.MaxConcurrentMoves <= 0 {
		cfg.MaxConcurrentMoves = 2
	}
	if cfg.RebalanceMinGain == 0 {
		cfg.RebalanceMinGain = 0.1
	} else if cfg.RebalanceMinGain < 0 {
		cfg.RebalanceMinGain = 0
	}
	return cfg
}

// loadSmoothing is the EWMA coefficient applied to observed per-replica
// loads across rounds (new = α·observed + (1−α)·previous). One SLA window is
// a noisy throughput sample; smoothing is what lets the migration planner
// see the persistent skew through the jitter.
const loadSmoothing = 0.3

// placementMetrics carries the adaptive controller's instruments, resolved
// once at construction like clusterMetrics.
type placementMetrics struct {
	rounds   *obs.CounterVec
	actions  *obs.CounterVec
	tenants  *obs.GaugeVec
	inflight *obs.Gauge
}

func newPlacementMetrics(reg *obs.Registry) *placementMetrics {
	return &placementMetrics{
		rounds: reg.CounterVec("placement_rounds_total",
			"Adaptive placement decision rounds by result (acted, noop, skipped_not_leader).", "result"),
		actions: reg.CounterVec("placement_actions_total",
			"Adaptive placement actions by kind (grow, shrink, migrate) and result (ok, retry, error).", "kind", "result"),
		tenants: reg.GaugeVec("placement_tenants",
			"Tenants by hot/warm/cold class as of the last decision round.", "class"),
		inflight: reg.Gauge("placement_moves_inflight",
			"Replica copies and retires currently executing on behalf of the adaptive controller."),
	}
}

// AdaptiveController runs the adaptive provisioning loop for one cluster.
// Create it with NewAdaptiveController, then Start it; Stop waits for the
// loop and any in-flight actions to finish.
type AdaptiveController struct {
	c       *Cluster
	cfg     AdaptiveConfig
	metrics *placementMetrics

	sem     chan struct{} // MaxConcurrentMoves tokens
	stopCh  chan struct{}
	started bool
	stopped bool
	loopWG  sync.WaitGroup
	moveWG  sync.WaitGroup

	// loadEWMA is the smoothed per-replica observed load carried across
	// rounds (accessed only from the decision loop / RunOnce callers).
	loadEWMA map[string]sla.Resources
	// pendingMove is last round's planned-but-unconfirmed migration: a
	// skew-correcting move only launches when two consecutive rounds plan
	// the identical move, so a single noisy load sample never triggers an
	// Algorithm 1 copy. Same access discipline as loadEWMA.
	pendingMove placement.Action

	mu               sync.Mutex
	rounds           uint64
	skippedNotLeader uint64
	done             map[placement.ActionKind]uint64 // successful actions by kind
	tenants          []placement.TenantStatus
	recent           []placement.ActionRecord
}

// NewAdaptiveController builds an adaptive provisioning controller for the
// cluster, registering its placement_* metrics on the cluster's registry.
// The cluster must have been built with Options.SLAMonitor for hot/cold
// classification to see any signals; without a monitor the loop still
// repairs replica degrees against the budget and corrects declared-load
// skew.
func (c *Cluster) NewAdaptiveController(cfg AdaptiveConfig) *AdaptiveController {
	cfg = cfg.withDefaults()
	return &AdaptiveController{
		c:        c,
		cfg:      cfg,
		metrics:  newPlacementMetrics(c.metrics.reg),
		sem:      make(chan struct{}, cfg.MaxConcurrentMoves),
		stopCh:   make(chan struct{}),
		loadEWMA: map[string]sla.Resources{},
		done:     map[placement.ActionKind]uint64{},
	}
}

// Start launches the periodic decision loop. Safe to call once.
func (a *AdaptiveController) Start() {
	a.mu.Lock()
	if a.started || a.stopped {
		a.mu.Unlock()
		return
	}
	a.started = true
	a.mu.Unlock()
	a.loopWG.Add(1)
	go func() {
		defer a.loopWG.Done()
		ticker := time.NewTicker(a.cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-a.stopCh:
				return
			case <-ticker.C:
				a.RunOnce()
			}
		}
	}()
}

// Stop halts the loop and waits for in-flight actions. Idempotent.
func (a *AdaptiveController) Stop() {
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		return
	}
	a.stopped = true
	a.mu.Unlock()
	close(a.stopCh)
	a.loopWG.Wait()
	a.moveWG.Wait()
}

// RunOnce executes one decision round synchronously (the planning; action
// execution is handed to bounded workers) and returns the number of
// actions launched. Rounds on a controller that does not hold the quorum
// lease are skipped: only the leader acts, followers count the skip and
// stand by — after failover the new leader's loop takes over seamlessly
// because every prior action was replicated.
func (a *AdaptiveController) RunOnce() int {
	if a.c.ctl.leaseTerm() == 0 {
		a.mu.Lock()
		a.skippedNotLeader++
		a.mu.Unlock()
		a.metrics.rounds.With("skipped_not_leader").Inc()
		return 0
	}

	view := a.c.placementView(a.loadEWMA)
	res := placement.Plan(view, a.cfg.Budget)
	a.publishRound(view.Tenants, res)

	launched := 0
	for _, act := range res.Actions {
		if a.launch(act) {
			launched++
		}
	}
	if launched == 0 && len(a.sem) == 0 {
		// Degree changes settle first, and skew correction runs only on
		// fully quiet rounds (nothing planned, nothing in flight), so a
		// grow and a migration never chase the same hotspot and copies
		// never stack up behind each other. A move must also be planned
		// identically by two consecutive rounds before it launches.
		move, ok := placement.PlanMove(view, a.cfg.RebalanceMinGain)
		confirmed := ok && move == a.pendingMove
		a.pendingMove = move
		if confirmed {
			move.Reason = "skew: peak improvement confirmed twice"
			if a.launch(move) {
				launched++
				a.pendingMove = placement.Action{}
			}
		}
	}
	if launched > 0 {
		a.metrics.rounds.With("acted").Inc()
	} else {
		a.metrics.rounds.With("noop").Inc()
	}
	return launched
}

// launch hands one action to a bounded worker; it reports false when every
// worker slot is busy (the action is dropped and re-planned next round).
func (a *AdaptiveController) launch(act placement.Action) bool {
	select {
	case a.sem <- struct{}{}:
	default:
		return false
	}
	a.moveWG.Add(1)
	a.metrics.inflight.Inc()
	go func() {
		defer func() {
			a.metrics.inflight.Dec()
			<-a.sem
			a.moveWG.Done()
		}()
		a.execute(act)
	}()
	return true
}

// execute performs one action through the cluster's replicated primitives
// and records the outcome.
func (a *AdaptiveController) execute(act placement.Action) {
	var err error
	switch act.Kind {
	case placement.Grow:
		err = a.c.GrowReplica(act.DB, act.To)
	case placement.Shrink:
		err = a.c.ShrinkReplica(act.DB, act.From)
	case placement.Migrate:
		err = a.c.MigrateReplica(act.DB, act.From, act.To)
	}
	result := "ok"
	switch {
	case err == nil:
	case errors.Is(err, ErrNotLeader), errors.Is(err, ErrNoQuorum),
		errors.Is(err, ErrCopyInProgress), errors.Is(err, ErrCopyAborted),
		errors.Is(err, ErrMachineFailed), errors.Is(err, ErrNoCapacity):
		// Transient cluster churn: leadership moved, a copy raced ours,
		// or a machine died under the move. Level-triggered recovery —
		// the next round re-plans from fresh state.
		result = "retry"
	default:
		result = "error"
	}
	a.metrics.actions.With(string(act.Kind), result).Inc()

	rec := placement.ActionRecord{Action: act, At: time.Now()}
	if err != nil {
		rec.Err = err.Error()
	}
	a.mu.Lock()
	if err == nil {
		a.done[act.Kind]++
	}
	a.recent = append(a.recent, rec)
	if len(a.recent) > 32 {
		a.recent = a.recent[len(a.recent)-32:]
	}
	a.mu.Unlock()
}

// publishRound updates the per-round report state and class gauges.
func (a *AdaptiveController) publishRound(tenants []placement.Tenant, res placement.PlanResult) {
	counts := map[placement.Class]int{}
	statuses := make([]placement.TenantStatus, 0, len(tenants))
	for _, t := range tenants {
		class := res.Classes[t.Signal.DB]
		counts[class]++
		statuses = append(statuses, placement.TenantStatus{
			DB:         t.Signal.DB,
			Class:      class.String(),
			Replicas:   len(t.Replicas),
			Target:     res.Targets[t.Signal.DB],
			Compliant:  t.Signal.Compliant,
			OfferedTPS: t.Signal.OfferedTPS(),
		})
	}
	for _, class := range []placement.Class{placement.Hot, placement.Warm, placement.Cold} {
		a.metrics.tenants.With(class.String()).Set(float64(counts[class]))
	}
	a.mu.Lock()
	a.rounds++
	a.tenants = statuses
	a.mu.Unlock()
}

// Actions returns the cumulative successful grow/shrink/migrate counts.
func (a *AdaptiveController) Actions() (grows, shrinks, migrates uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.done[placement.Grow], a.done[placement.Shrink], a.done[placement.Migrate]
}

// Report assembles the controller's public state for /placementz.
func (a *AdaptiveController) Report() placement.Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	return placement.Report{
		GeneratedAt:      time.Now(),
		Enabled:          a.started && !a.stopped,
		Rounds:           a.rounds,
		SkippedNotLeader: a.skippedNotLeader,
		MovesInFlight:    len(a.sem),
		Tenants:          append([]placement.TenantStatus(nil), a.tenants...),
		Recent:           append([]placement.ActionRecord(nil), a.recent...),
	}
}

// nominalDBLoad is the effective footprint assumed for a database with
// neither an observed load nor a declared reservation. Non-zero so that a
// machine buried under hundreds of unmanaged databases still reads as
// loaded; small so one such database never looks worth moving on its own.
var nominalDBLoad = sla.Resources{CPU: 0.02, Memory: 0.02, Disk: 0.005, DiskBW: 0.01}

// placementView samples the cluster into the planners' one input: the live
// machines, and every database with its replica set, declared reservation
// and effective per-replica load — so SLA-managed and unmanaged databases
// alike are visible to skew correction.
//
// ewma, when non-nil, is the caller's smoothed observed-load state: each
// tenant's last SLA window is profiled into a per-replica load, blended in,
// and preferred over the declared reservation, so the planners chase
// traffic rather than paper reservations; the map is updated in place. Nil
// plans over declared reservations alone and samples no monitor (the manual
// Rebalance).
func (c *Cluster) placementView(ewma map[string]sla.Resources) placement.View {
	// Sample the monitor outside c.mu (it has its own locking).
	signals := map[string]placement.TenantSignal{}
	if ewma != nil && c.slamon != nil {
		rep := c.slamon.Report()
		for _, db := range rep.Databases {
			sig := placement.TenantSignal{
				DB:            db.Database,
				SLA:           db.SLA,
				Compliant:     db.Compliant,
				WindowSeconds: rep.WindowSeconds,
				Violation:     db.LastViolation,
			}
			if db.LastWindow != nil {
				sig.HasWindow = true
				sig.Window = *db.LastWindow
			}
			signals[db.Database] = sig
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	var view placement.View
	view.Machines, _ = c.liveMachinesLocked(nil)
	at := make(map[string]int, len(view.Machines))
	for i, m := range view.Machines {
		at[m.ID] = i
	}
	for name := range ewma {
		if _, ok := c.dbs[name]; !ok {
			delete(ewma, name)
		}
	}
	for _, name := range sortedKeys(c.dbs) {
		ds := c.dbs[name]
		sig, tracked := signals[name]
		if !tracked {
			// No SLA, so nothing to violate: the classifier holds it warm
			// and only budget repair and skew moves apply.
			sig = placement.TenantSignal{DB: name, Compliant: true}
		}
		load := ds.req
		if sig.HasWindow && sig.Window.TPS > 0 && len(ds.replicas) > 0 {
			observed := sla.Profile(0, sig.Window.TPS/float64(len(ds.replicas)))
			if prev, ok := ewma[name]; ok {
				observed = prev.Scale(1 - loadSmoothing).Add(observed.Scale(loadSmoothing))
			}
			ewma[name] = observed
		}
		if est, ok := ewma[name]; ok {
			load = est
		} else if load == (sla.Resources{}) {
			load = nominalDBLoad
		}
		view.Tenants = append(view.Tenants, placement.Tenant{
			Signal:   sig,
			Replicas: append([]string(nil), ds.replicas...),
			Copying:  ds.copying != nil,
			Req:      ds.req,
			Load:     load,
		})
		for _, id := range ds.replicas {
			if i, ok := at[id]; ok {
				view.Machines[i].Load = view.Machines[i].Load.Add(load)
			}
		}
	}
	return view
}

// RebalanceReport summarises a Rebalance run.
type RebalanceReport struct {
	// Moves are the migrations performed, in order.
	Moves []placement.Action
	// PeakBefore and PeakAfter are the maximum machine utilisations (the
	// dominant resource dimension of the machines' effective loads, as a
	// fraction of capacity) before and after.
	PeakBefore float64
	PeakAfter  float64
}

// Rebalance migrates up to maxMoves replicas to reduce the cluster's peak
// machine utilisation — the "more sophisticated methods for allocating
// databases to machines" the paper leaves as future work, as repeated
// placement.PlanMove rounds over declared reservations (and nominal
// footprints for unmanaged databases). A move is performed only when the
// peak strictly decreases and the target has reservation capacity; each
// goes through MigrateReplica, so serving transactions are never interrupted
// and each counts against the SLA's reallocation_rate.
func (c *Cluster) Rebalance(maxMoves int) (RebalanceReport, error) {
	view := c.placementView(nil)
	peak := view.Peak()
	report := RebalanceReport{PeakBefore: peak, PeakAfter: peak}
	for len(report.Moves) < maxMoves {
		move, ok := placement.PlanMove(view, 0)
		if !ok {
			break
		}
		if err := c.MigrateReplica(move.DB, move.From, move.To); err != nil {
			// Capacity may have changed under us; stop rather than loop.
			return report, err
		}
		report.Moves = append(report.Moves, move)
		view = c.placementView(nil)
		report.PeakAfter = view.Peak()
	}
	return report, nil
}
