package core

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdp/internal/obs"
	"sdp/internal/placement"
	"sdp/internal/sla"
	"sdp/internal/sqldb"
)

// fakeClock drives the SLA monitor deterministically in adaptive tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

// adaptiveHarness is a 4-machine cluster with a fake-clock SLA monitor and
// one tracked database "app" on two replicas.
func adaptiveHarness(t *testing.T, declared sla.SLA) (*Cluster, *sla.Monitor, *fakeClock) {
	t.Helper()
	clk := &fakeClock{now: time.Unix(1_000_000, 0)}
	mon := sla.NewMonitor(obs.NewRegistry(), sla.MonitorOptions{
		Window:  time.Second,
		Windows: 16,
		Now:     clk.Now,
	})
	c := NewCluster("adapt", Options{Replicas: 2, SLAMonitor: mon})
	if _, err := c.AddMachines(4); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateDatabaseOn("app", []string{"m1", "m2"}); err != nil {
		t.Fatal(err)
	}
	mon.Track("app", declared)
	return c, mon, clk
}

// feedWindow records n commits at the given latency into the current
// window, then advances the clock past it so it is closed and evaluable.
func feedWindow(mon *sla.Monitor, clk *fakeClock, db string, n int, latency time.Duration) {
	for i := 0; i < n; i++ {
		mon.ObserveCommit(db, latency)
	}
	clk.Advance(time.Second)
}

func TestAdaptiveGrowsHotTenant(t *testing.T) {
	declared := sla.SLA{MinThroughput: 10, MaxRejectFraction: 0.5, MaxMeanLatency: 5 * time.Millisecond}
	c, mon, clk := adaptiveHarness(t, declared)
	// Latency blows through the declared ceiling: a violation the
	// classifier reads as overload.
	feedWindow(mon, clk, "app", 50, 20*time.Millisecond)

	a := c.NewAdaptiveController(AdaptiveConfig{Budget: placement.Budget{MinReplicas: 2, MaxReplicas: 3}})
	launched := a.RunOnce()
	a.moveWG.Wait()
	if launched != 1 {
		t.Fatalf("launched = %d, want 1 grow", launched)
	}
	if reps, err := c.Replicas("app"); err != nil || len(reps) != 3 {
		t.Fatalf("replicas after grow = %v (%v), want 3", reps, err)
	}
	grows, shrinks, migrates := a.Actions()
	if grows != 1 || shrinks != 0 || migrates != 0 {
		t.Fatalf("actions = %d/%d/%d, want 1 grow only", grows, shrinks, migrates)
	}

	// At budget: another hot round must be inert.
	feedWindow(mon, clk, "app", 50, 20*time.Millisecond)
	if n := a.RunOnce(); n != 0 {
		t.Fatalf("at-budget round launched %d actions, want 0", n)
	}

	rep := a.Report()
	if len(rep.Tenants) != 1 || rep.Tenants[0].Class != "hot" || rep.Tenants[0].Replicas != 3 {
		t.Fatalf("report tenants = %+v, want one hot tenant at 3 replicas", rep.Tenants)
	}
}

// TestAdaptiveGrowSkipsReservationFullMachine: the coldest machine that
// does not host the hot tenant has no room left for the tenant's declared
// reservation; a warmer one has. The grow must land on the latter. Chosen by
// load alone it went to the former, the copy failed with ErrNoCapacity, and
// every later round planned the same grow again.
func TestAdaptiveGrowSkipsReservationFullMachine(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1_000_000, 0)}
	mon := sla.NewMonitor(obs.NewRegistry(), sla.MonitorOptions{Window: time.Second, Windows: 16, Now: clk.Now})
	c := NewCluster("adapt", Options{Replicas: 2, SLAMonitor: mon})
	if _, err := c.AddMachines(4); err != nil {
		t.Fatal(err)
	}
	// app reserves half a machine's memory on m1 and m2.
	if reps, err := c.PlaceWithSLA("app", sla.Resources{Memory: 0.5}, 2); err != nil || !reflect.DeepEqual(reps, []string{"m1", "m2"}) {
		t.Fatalf("app placed on %v (%v), want m1 m2", reps, err)
	}
	// m3: lightly loaded, but with too little memory left for app.
	// m4: heavily loaded in CPU, memory untouched.
	for _, other := range []struct {
		db, on string
		req    sla.Resources
	}{{"memhog", "m3", sla.Resources{Memory: 0.6}}, {"cpuhog", "m4", sla.Resources{CPU: 0.9}}} {
		m, _ := c.Machine(other.on)
		if !m.reserve(other.req) {
			t.Fatalf("%s does not fit %s", other.db, other.on)
		}
		if err := c.createDatabaseOn(other.db, []string{other.on}, other.req); err != nil {
			t.Fatal(err)
		}
	}
	mon.Track("app", sla.SLA{MinThroughput: 10, MaxRejectFraction: 0.5, MaxMeanLatency: 5 * time.Millisecond})
	feedWindow(mon, clk, "app", 50, 20*time.Millisecond)

	a := c.NewAdaptiveController(AdaptiveConfig{Budget: placement.Budget{MinReplicas: 1, MaxReplicas: 3}})
	launched := a.RunOnce()
	a.moveWG.Wait()
	if grows, _, _ := a.Actions(); launched != 1 || grows != 1 {
		t.Fatalf("launched %d actions, %d grows succeeded, want one grow: %+v", launched, grows, a.Report().Recent)
	}
	if reps, _ := c.Replicas("app"); !reflect.DeepEqual(reps, []string{"m1", "m2", "m4"}) {
		t.Fatalf("replicas after grow = %v, want the new one on m4", reps)
	}
}

func TestAdaptiveShrinksColdTenant(t *testing.T) {
	declared := sla.SLA{MinThroughput: 100, MaxRejectFraction: 0.5}
	c, mon, clk := adaptiveHarness(t, declared)
	if err := c.CreateReplica("app", "m3"); err != nil {
		t.Fatal(err)
	}
	// A trickle of offered load: far under the floor, demand-limited.
	feedWindow(mon, clk, "app", 3, time.Millisecond)

	a := c.NewAdaptiveController(AdaptiveConfig{Budget: placement.Budget{MinReplicas: 2, MaxReplicas: 3}})
	launched := a.RunOnce()
	a.moveWG.Wait()
	if launched != 1 {
		t.Fatalf("launched = %d, want 1 shrink", launched)
	}
	reps, err := c.Replicas("app")
	if err != nil || len(reps) != 2 {
		t.Fatalf("replicas after shrink = %v (%v), want 2", reps, err)
	}

	// At the floor: the cold tenant must not shrink further.
	feedWindow(mon, clk, "app", 3, time.Millisecond)
	if n := a.RunOnce(); n != 0 {
		t.Fatalf("at-floor round launched %d actions, want 0", n)
	}
}

func TestAdaptiveInertOnBalancedLoad(t *testing.T) {
	declared := sla.SLA{MinThroughput: 10, MaxRejectFraction: 0.5, MaxMeanLatency: 100 * time.Millisecond}
	c, mon, clk := adaptiveHarness(t, declared)
	a := c.NewAdaptiveController(AdaptiveConfig{})

	// Healthy traffic comfortably inside the SLA, replicas balanced:
	// every round must plan nothing.
	for i := 0; i < 5; i++ {
		feedWindow(mon, clk, "app", 50, time.Millisecond)
		if n := a.RunOnce(); n != 0 {
			t.Fatalf("round %d launched %d actions on balanced load", i, n)
		}
	}
	if reps, _ := c.Replicas("app"); len(reps) != 2 {
		t.Fatalf("replicas changed on balanced load: %v", reps)
	}
	rep := a.Report()
	if rep.Rounds != 5 || len(rep.Recent) != 0 {
		t.Fatalf("report = rounds %d recent %d, want 5 rounds and no actions", rep.Rounds, len(rep.Recent))
	}
}

// TestRebalanceSeesNonSLADatabases is the regression test for the shared
// candidate path: databases created without PlaceWithSLA (no declared
// reservation) used to be invisible to the rebalancer.
func TestRebalanceSeesNonSLADatabases(t *testing.T) {
	c := NewCluster("rb2", Options{Replicas: 1})
	if _, err := c.AddMachines(4); err != nil {
		t.Fatal(err)
	}
	// Six unmanaged single-replica databases, all piled onto m1.
	for i := 0; i < 6; i++ {
		db := fmt.Sprintf("pile%d", i)
		if err := c.CreateDatabaseOn(db, []string{"m1"}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Exec(db, "CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
			t.Fatal(err)
		}
	}
	report, err := c.Rebalance(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Moves) == 0 {
		t.Fatal("rebalancer planned no moves for non-SLA databases")
	}
	if report.PeakAfter >= report.PeakBefore {
		t.Errorf("peak did not improve: %v -> %v", report.PeakBefore, report.PeakAfter)
	}
	// The pile must actually have spread.
	perMachine := map[string]int{}
	for i := 0; i < 6; i++ {
		reps, err := c.Replicas(fmt.Sprintf("pile%d", i))
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range reps {
			perMachine[id]++
		}
	}
	if perMachine["m1"] == 6 {
		t.Fatalf("all databases still on m1: %v", perMachine)
	}
}

// TestRetireReplicaSurvivesFailover: the retire commits to the consensus
// log, so a controller failover must not resurrect the retired replica
// (whose engine copy is gone) into the replica set.
func TestRetireReplicaSurvivesFailover(t *testing.T) {
	c := newTestCluster(t, 3, ctlOpts())
	if err := c.CreateReplica("app", "m3"); err != nil {
		t.Fatal(err)
	}
	if err := c.RetireReplica("app", "m2"); err != nil {
		t.Fatal(err)
	}
	reps, _ := c.Replicas("app")
	if len(reps) != 2 || contains(reps, "m2") {
		t.Fatalf("replicas after retire = %v, want m1+m3", reps)
	}

	if _, err := c.KillLeaderController(); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitControllerSettled(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	reps, _ = c.Replicas("app")
	if len(reps) != 2 || contains(reps, "m2") {
		t.Fatalf("failover resurrected the retired replica: %v", reps)
	}
	execRetry(t, c, "app", "CREATE TABLE t2 (id INT PRIMARY KEY)")
}

// TestRetireReplicaGuards: the primitive refuses the last replica and
// unknown hosts.
func TestRetireReplicaGuards(t *testing.T) {
	c := newTestCluster(t, 3, Options{Replicas: 2})
	if err := c.RetireReplica("app", "m3"); err == nil {
		t.Fatal("retire of a non-hosting machine succeeded")
	}
	if err := c.RetireReplica("app", "m1"); err != nil {
		t.Fatal(err)
	}
	if err := c.RetireReplica("app", "m2"); err == nil {
		t.Fatal("retire of the last replica succeeded")
	}
	if err := c.RetireReplica("nope", "m1"); err == nil {
		t.Fatal("retire on unknown database succeeded")
	}
}

// TestAdaptiveRaceLoop runs the decision loop at full speed against
// concurrent Algorithm 1 copies, controller failovers, and live traffic —
// the -race exercise from the issue. Correctness here is "no race, no
// deadlock, cluster still serves"; the loop's decisions are incidental.
func TestAdaptiveRaceLoop(t *testing.T) {
	mon := sla.NewMonitor(obs.NewRegistry(), sla.MonitorOptions{Window: 20 * time.Millisecond, Windows: 32})
	opts := ctlOpts()
	opts.SLAMonitor = mon
	c := newTestCluster(t, 4, opts)
	mon.Track("app", sla.SLA{MinThroughput: 1, MaxRejectFraction: 0.95, MaxMeanLatency: 50 * time.Millisecond})
	execRetry(t, c, "app", "CREATE TABLE t (id INT PRIMARY KEY, n INT)")

	a := c.NewAdaptiveController(AdaptiveConfig{
		Interval: 5 * time.Millisecond,
		Budget:   placement.Budget{MinReplicas: 2, MaxReplicas: 3},
	})
	a.Start()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var committed atomic.Int64
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, err := c.Exec("app", "INSERT INTO t VALUES (?, ?)", sqldb.NewInt(int64(w*1_000_000+i)), sqldb.NewInt(int64(i)))
				if err == nil {
					committed.Add(1)
				}
			}
		}(w)
	}
	// Manual copies race the loop's own moves.
	wg.Add(1)
	go func() {
		defer wg.Done()
		targets := []string{"m3", "m4", "m3", "m4"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = c.CreateReplica("app", targets[i%len(targets)])
			_ = c.RetireReplica("app", targets[i%len(targets)])
			time.Sleep(2 * time.Millisecond)
		}
	}()
	// Controller failovers under the loop.
	for i := 0; i < 3; i++ {
		time.Sleep(60 * time.Millisecond)
		if _, err := c.KillLeaderController(); err == nil {
			if err := c.WaitControllerSettled(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			c.RestartControllers()
		}
	}
	time.Sleep(60 * time.Millisecond)
	close(stop)
	wg.Wait()
	a.Stop()

	if err := c.WaitControllerSettled(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if reps, err := c.Replicas("app"); err != nil || len(reps) < 2 {
		t.Fatalf("replicas after soak = %v (%v), want >= 2", reps, err)
	}
	if committed.Load() == 0 {
		t.Fatal("no transaction committed during the soak")
	}
	execRetry(t, c, "app", "INSERT INTO t VALUES (9999999, 1)")
}
