package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// controllerState returns the state machine the cluster routes by: the
// leader's with a replicated controller, the only one otherwise.
func controllerState(t *testing.T, c *Cluster) *ctlState {
	t.Helper()
	leader, _ := c.LeaderController()
	if leader == "" {
		if ids := c.ControllerIDs(); len(ids) > 0 {
			t.Fatalf("no controller leader among %v", ids)
		}
		return c.ctl.states[0]
	}
	return c.ctl.states[slices.Index(c.ControllerIDs(), leader)]
}

// routing renders the controller's materialized routing state: every
// database's replicas, read home and epoch.
func routing(c *Cluster) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.dbs))
	for name := range c.dbs {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		ds := c.dbs[name]
		fmt.Fprintf(&b, "%s{replicas=%s,home=%s,epoch=%d};", name, strings.Join(ds.replicas, ","), ds.readHome, ds.epoch)
	}
	return b.String()
}

// TestConcurrentCreateSameName races two creates of one name on disjoint
// machine pairs. The state machine is the one place a create is decided, so
// exactly one call succeeds, the loser's machines keep no copy, and the
// routing entry is the state machine's record — the one a failover adopts,
// so a row acknowledged before a leader kill reads back after it.
func TestConcurrentCreateSameName(t *testing.T) {
	for _, controllers := range []int{0, 3} {
		t.Run(fmt.Sprintf("controllers=%d", controllers), func(t *testing.T) {
			opts := ctlOpts()
			opts.Controllers = controllers
			c := NewCluster("race", opts)
			t.Cleanup(func() { stopControllers(c) })
			ids, err := c.AddMachines(4)
			if err != nil {
				t.Fatal(err)
			}
			pairs := [2][]string{ids[:2], ids[2:]}
			const rounds = 30
			for round := 0; round < rounds; round++ {
				db := fmt.Sprintf("db%d", round)
				var errs [2]error
				var wg sync.WaitGroup
				for i := range pairs {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						errs[i] = c.CreateDatabaseOn(db, pairs[i])
					}(i)
				}
				wg.Wait()
				won := -1
				for i, err := range errs {
					switch {
					case err == nil && won >= 0:
						t.Fatalf("round %d: both creates of %s succeeded", round, db)
					case err == nil:
						won = i
					case !errors.Is(err, ErrDatabaseExists):
						t.Fatalf("round %d: create on %v: %v", round, pairs[i], err)
					}
				}
				if won < 0 {
					t.Fatalf("round %d: neither create of %s succeeded: %v", round, db, errs)
				}
				reps, _ := c.Replicas(db)
				fp := controllerState(t, c).Fingerprint()
				if !slices.Equal(reps, pairs[won]) || !strings.Contains(fp, "db="+db+"{replicas="+strings.Join(reps, ",")+",") {
					t.Fatalf("round %d: routing %v, winner %v, state machine %s", round, reps, pairs[won], fp)
				}
				for _, id := range pairs[1-won] {
					if m, _ := c.Machine(id); m.Engine().HasDatabase(db) {
						t.Fatalf("round %d: loser's machine %s still holds %s", round, id, db)
					}
				}
				execRetry(t, c, db, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
				execRetry(t, c, db, "INSERT INTO t VALUES (1, ?)", intv(int64(round)))
			}
			if controllers == 0 {
				return
			}
			if _, err := c.KillLeaderController(); err != nil {
				t.Fatal(err)
			}
			if err := c.WaitControllerSettled(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < rounds; round++ {
				res := execRetry(t, c, fmt.Sprintf("db%d", round), "SELECT n FROM t WHERE id = 1")
				if len(res.Rows) != 1 || res.Rows[0][0].Int != int64(round) {
					t.Fatalf("db%d after failover: rows %v", round, res.Rows)
				}
			}
		})
	}
}

// TestControlPathsAgree runs one scripted sequence of control operations on
// a cluster with one controller and on one with three. Both apply the same
// state machine, so they must end with the same routing state and the same
// state machine fingerprint.
func TestControlPathsAgree(t *testing.T) {
	var got [2]string
	for i, controllers := range []int{0, 3} {
		opts := ctlOpts()
		opts.Controllers = controllers
		c := NewCluster("agree", opts)
		t.Cleanup(func() { stopControllers(c) })
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("controllers=%d: %v", controllers, err)
			}
		}
		spare := func(db string) string {
			reps, _ := c.Replicas(db)
			for _, id := range liveMachineIDs(c) {
				if !contains(reps, id) {
					return id
				}
			}
			t.Fatalf("no machine outside %v", reps)
			return ""
		}
		_, err := c.AddMachines(5)
		must(err)
		for _, db := range []string{"a", "b", "c"} {
			must(c.CreateDatabase(db))
			execRetry(t, c, db, "CREATE TABLE t (id INT PRIMARY KEY)")
			execRetry(t, c, db, "INSERT INTO t VALUES (1)")
		}
		must(c.GrowReplica("a", spare("a")))
		reps, _ := c.Replicas("b")
		affected, err := c.FailMachine(reps[0])
		must(err)
		_, err = c.RestartMachine(reps[0])
		must(err)
		if rep := c.RecoverDatabases(affected, 1); len(rep.Failed) != 0 {
			t.Fatalf("controllers=%d: recovery failed: %v", controllers, rep.Failed)
		}
		reps, _ = c.Replicas("a")
		must(c.RetireReplica("a", reps[0]))
		reps, _ = c.Replicas("c")
		must(c.MigrateReplica("c", reps[0], spare("c")))
		must(c.DropDatabase("b"))
		must(c.WaitControllerConvergence(2 * time.Second))
		got[i] = routing(c) + "\n" + controllerState(t, c).Fingerprint()
	}
	if got[0] != got[1] {
		t.Fatalf("control paths disagree:\n one controller   %s\n three            %s", got[0], got[1])
	}
}
