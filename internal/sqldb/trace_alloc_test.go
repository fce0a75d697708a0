package sqldb

import (
	"fmt"
	"testing"

	"sdp/internal/obs"
)

// TestPointReadUnsampledZeroAlloc pins the cost of the tracing hooks on the
// point-read hot path when sampling is off: an engine with a span ring
// attached but a zero trace context on every transaction must allocate exactly
// what an engine with no ring allocates. Every recording site short-circuits
// on SpanContext.Traced(), so the sampled-out path is one branch — this test
// fails if a future change makes the unsampled path allocate (a span struct,
// a detail string, anything).
func TestPointReadUnsampledZeroAlloc(t *testing.T) {
	stmt, err := Parse("SELECT v FROM t WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(spans *obs.SpanRing) float64 {
		cfg := DefaultConfig()
		cfg.Spans = spans
		e := NewEngine(cfg)
		if err := e.CreateDatabase("app"); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Exec("app", "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if _, err := e.Exec("app", fmt.Sprintf("INSERT INTO t VALUES (%d, 'val%d')", i, i)); err != nil {
				t.Fatal(err)
			}
		}
		params := []Value{NewInt(0)}
		i := 0
		point := func() {
			tx, err := e.Begin("app")
			if err != nil {
				t.Fatal(err)
			}
			tx.SetTraceContext(obs.SpanContext{}) // sampling off: zero context
			params[0] = NewInt(int64(i % 100))
			i++
			if _, err := tx.ExecStmt(stmt, params...); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		for j := 0; j < 200; j++ { // warm the plan cache
			point()
		}
		return testing.AllocsPerRun(1000, point)
	}
	without, with := allocs(nil), allocs(obs.NewRegistry().Spans())
	if with != without {
		t.Fatalf("unsampled point read allocates %.2f allocs/op with a span ring attached, %.2f without", with, without)
	}
}
