package main

import (
	"encoding/json"
	"fmt"
	"os"

	"sdp/internal/experiments"
)

// runBenchGate re-runs the query-engine bench at the baseline's iteration
// count and fails if the engine point read or the replicated single-row
// write regressed more than pct percent against the committed baseline — one
// threshold per layer: the read is the executor's hot path, the write is
// executor, buffer-pool page write and 2PC over two replicas. CI hardware
// differs from the machine that recorded the baseline, so the gate is
// deliberately loose: it catches structural regressions (a statement dropping
// off the compiled path, an allocation sneaking into the hot loop, a page
// re-encoded per row change), not single-digit noise. A quick pass would be
// cheaper but measures a different thing — at 2000 iterations the one-time
// warmup costs dominate the mean and the comparison is meaningless.
func runBenchGate(baselinePath string, pct float64, seed int64) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	var base experiments.SQLBench
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", baselinePath, err)
	}
	if base.PointReadNsPerOp <= 0 || base.ReplicatedWriteNsPerOp <= 0 {
		return fmt.Errorf("baseline %s lacks point_read_ns_per_op or replicated_write_ns_per_op", baselinePath)
	}
	res, _, err := experiments.RunSQLBench(experiments.Config{Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("allocs/op: %.2f measured vs %.2f baseline; compiled fraction %.3f\n",
		res.PointReadAllocsPerOp, base.PointReadAllocsPerOp, res.CompiledFraction)

	var failed error
	for _, m := range []struct {
		name           string
		measured, base float64
	}{
		{"point read", res.PointReadNsPerOp, base.PointReadNsPerOp},
		{"replicated write", res.ReplicatedWriteNsPerOp, base.ReplicatedWriteNsPerOp},
	} {
		limit := m.base * (1 + pct/100)
		fmt.Printf("%s: %.0f ns/op measured vs %.0f ns/op baseline (limit %.0f, +%.0f%%)\n",
			m.name, m.measured, m.base, limit, pct)
		if m.measured > limit && failed == nil {
			failed = fmt.Errorf("%s regressed: %.0f ns/op > %.0f ns/op (baseline %.0f +%.0f%%)",
				m.name, m.measured, limit, m.base, pct)
		}
	}
	return failed
}
