package experiments

import "testing"

// TestNetBenchShape runs the quick wire benchmark and checks the result
// has the documented shape: a monotone connection curve and real traffic on
// every point.
func TestNetBenchShape(t *testing.T) {
	res, err := RunNetBench(Config{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.PreparedReadNsPerOp <= 0 || res.SimpleReadNsPerOp <= 0 {
		t.Fatalf("latencies missing: %+v", res)
	}
	conns := Config{Quick: true}.netBenchConns()
	if len(res.Points) != len(conns) {
		t.Fatalf("got %d points, want %d", len(res.Points), len(conns))
	}
	for i, pt := range res.Points {
		if pt.Conns != conns[i] {
			t.Fatalf("point %d: conns %d, want %d", i, pt.Conns, conns[i])
		}
		if pt.TPS <= 0 || pt.P99Us <= 0 || pt.BytesPerOp <= 0 {
			t.Fatalf("point %d has empty measurements: %+v", i, pt)
		}
		if pt.ConnsActive < pt.Conns {
			t.Fatalf("point %d: only %d of %d connections active", i, pt.ConnsActive, pt.Conns)
		}
		if pt.Errors != 0 {
			t.Fatalf("point %d: %d errors", i, pt.Errors)
		}
	}
	if res.MaxConnsSustained != conns[len(conns)-1] {
		t.Fatalf("sustained %d, want %d", res.MaxConnsSustained, conns[len(conns)-1])
	}
}
