package core

import (
	"sync"
	"testing"
	"time"

	"sdp/internal/history"
	"sdp/internal/sqldb"
	"sdp/internal/tpcw"
)

// tpcwClusterDB adapts one cluster database to the TPC-W client interface.
type tpcwClusterDB struct {
	c  *Cluster
	db string
}

func (d tpcwClusterDB) Begin() (tpcw.Txn, error) { return d.c.Begin(d.db) }

// TestTPCWSerializableUnderConservative runs the real TPC-W ordering mix —
// not a hand-built adversarial pair — against a replicated cluster with the
// history recorder attached, and verifies global one-copy serializability
// for every read option with the conservative controller (Theorem 2 at
// workload scale).
func TestTPCWSerializableUnderConservative(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-heavy")
	}
	for _, opt := range []ReadOption{ReadOption1, ReadOption2, ReadOption3} {
		t.Run(opt.String(), func(t *testing.T) {
			rec := history.NewRecorder()
			cfg := sqldb.DefaultConfig()
			cfg.LockTimeout = 100 * time.Millisecond
			c := NewCluster("tpcw-ser", Options{
				ReadOption:   opt,
				AckMode:      Conservative,
				Replicas:     2,
				EngineConfig: cfg,
				Recorder:     rec,
			})
			if _, err := c.AddMachines(2); err != nil {
				t.Fatal(err)
			}
			if err := c.CreateDatabase("app"); err != nil {
				t.Fatal(err)
			}
			db := tpcwClusterDB{c: c, db: "app"}
			scale := tpcw.SmallScale(5)
			if err := tpcw.Load(db, scale); err != nil {
				t.Fatal(err)
			}
			// Recording starts after the load so the graph holds only the
			// concurrent workload.
			rec.Reset()

			w := tpcw.NewWorkload(scale)
			client := &tpcw.Client{DB: db, Mix: tpcw.OrderingMix, Workload: w, Classify: func(err error) tpcw.ErrorClass {
				if IsRetryable(err) {
					return tpcw.ClassAborted
				}
				return tpcw.DefaultClassifier(err)
			}}
			// Six sessions of a fixed count, not a fixed time: the graph check
			// is quadratic in the operations recorded.
			var wg sync.WaitGroup
			stats := make([]tpcw.Stats, 6)
			for i := range stats {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					stats[i] = client.RunN(17+int64(i)*7919, 150)
				}(i)
			}
			wg.Wait()
			var st tpcw.Stats
			for _, s := range stats {
				st.Committed += s.Committed
				st.Fatal += s.Fatal
			}
			if st.Fatal > 0 {
				t.Fatalf("fatal client errors: %+v", st)
			}
			if st.Committed < 50 {
				t.Fatalf("too few committed transactions (%d) for a meaningful check", st.Committed)
			}
			ok, cycle, g := history.Check(rec)
			if !ok {
				t.Fatalf("TPC-W execution not one-copy serializable; cycle:\n%s", g.Describe(cycle))
			}
			t.Logf("%s: %d committed transactions, serialization graph acyclic", opt, st.Committed)
		})
	}
}
