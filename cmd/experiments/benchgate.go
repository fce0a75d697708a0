package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"sdp/internal/experiments"
)

// gateRuns is how many times the gate runs the bench; it compares medians. One
// run is not enough on a shared box: the same binary's point read has varied
// by more than the gate's 20% from one run to the next.
const gateRuns = 3

// runBenchGate re-runs the query-engine bench at the baseline's iteration
// count and fails if the engine point read or the replicated single-row
// write regressed more than pct percent against the committed baseline — one
// threshold per layer: the read is the executor's hot path, the write is
// executor, buffer-pool page write and 2PC over two replicas. CI hardware
// differs from the machine that recorded the baseline, so the gate is
// deliberately loose: it catches structural regressions (a statement dropping
// off the compiled path, a page re-encoded per row change), not single-digit
// noise. The half of the check that does not depend on the machine is the
// point read's allocation count: one whole allocation per read above the
// baseline fails whatever the clock says. A quick pass would be cheaper but
// measures a different thing — at 2000 iterations the one-time warmup costs
// dominate the mean and the comparison is meaningless.
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
	var reads, writes, allocs []float64
	for i := 0; i < gateRuns; i++ {
		res, _, err := experiments.RunSQLBench(experiments.Config{Seed: seed})
		if err != nil {
			return err
		}
		fmt.Printf("run %d: point read %.0f ns/op, %.2f allocs/op; replicated write %.0f ns/op; compiled fraction %.3f\n",
			i+1, res.PointReadNsPerOp, res.PointReadAllocsPerOp, res.ReplicatedWriteNsPerOp, res.CompiledFraction)
		reads = append(reads, res.PointReadNsPerOp)
		writes = append(writes, res.ReplicatedWriteNsPerOp)
		allocs = append(allocs, res.PointReadAllocsPerOp)
	}

	var failed error
	for _, m := range []struct {
		name           string
		measured, base float64
	}{
		{"point read", median(reads), base.PointReadNsPerOp},
		{"replicated write", median(writes), base.ReplicatedWriteNsPerOp},
	} {
		limit := m.base * (1 + pct/100)
		fmt.Printf("%s: median %.0f ns/op measured vs %.0f ns/op baseline (limit %.0f, +%.0f%%)\n",
			m.name, m.measured, m.base, limit, pct)
		if m.measured > limit && failed == nil {
			failed = fmt.Errorf("%s regressed: %.0f ns/op > %.0f ns/op (baseline %.0f +%.0f%%)",
				m.name, m.measured, limit, m.base, pct)
		}
	}
	got := median(allocs)
	fmt.Printf("point read: median %.2f allocs/op measured vs %.2f baseline (limit: below %.2f)\n",
		got, base.PointReadAllocsPerOp, base.PointReadAllocsPerOp+1)
	if got >= base.PointReadAllocsPerOp+1 && failed == nil {
		failed = fmt.Errorf("point read allocates more: %.2f allocs/op, baseline %.2f", got, base.PointReadAllocsPerOp)
	}
	return failed
}

// median returns the middle value of an odd number of measurements.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}
