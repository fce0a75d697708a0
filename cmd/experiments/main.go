// Command experiments regenerates the tables and figures of the paper's
// evaluation section. Run with no flags to reproduce everything, or select
// one artefact:
//
//	experiments -exp table1      # serializability matrix
//	experiments -exp fig2        # shopping-mix throughput
//	experiments -exp fig3        # browsing-mix throughput
//	experiments -exp fig4        # ordering-mix throughput
//	experiments -exp fig5|6|7    # deadlock rates per mix
//	experiments -exp fig8        # rejected transactions during recovery
//	experiments -exp fig9        # throughput during recovery
//	experiments -exp table2      # SLA placement vs optimal
//
// -quick shrinks the data sizes and durations for a fast pass.
//
// -bench-sqldb runs the hot-path query-engine microbenchmarks (compiled
// point read, replicated write, TPC-W mix — see EXPERIMENTS.md "Hot-path
// engine latencies" for current numbers: ~467 ns point reads at 0
// allocs/op, ~52k TPS mix, compiled_fraction ~0.82) and writes the results
// to BENCH_sqldb.json (or the path given by -bench-out) instead of running
// the figure suite; a unified metrics snapshot of the bench run lands next
// to it with a .metrics.txt suffix.
//
// -bench-net runs the wire-protocol benchmark — single-connection prepared
// vs simple point-read round trips over loopback (with the EXPLAIN
// executor check) and a throughput curve up to >10k concurrent
// connections — and writes BENCH_net.json (or -bench-net-out).
//
// -serve boots a platform with one demo database ("app", token "demo"),
// serves the wire protocol on the given address until interrupted, and
// prints the matching sdpsh -connect invocation; `make net-demo` uses it.
//
// -bench-wal runs the durability benchmarks — commit latency and flushes
// per commit as concurrent committers grow, with and without group commit,
// plus machine-restart recovery by log replay versus a full Algorithm-1
// copy — and writes the results to BENCH_wal.json (or -bench-wal-out).
//
// -bench-consensus runs the replicated-control-plane benchmarks — steady-state
// control-operation latency through the consensus log (create/drop database
// p50/p99), then repeated leader kills under TPC-W load measuring the time
// from each kill to the next committed control-plane operation and to the
// next committed client transaction, plus commit throughput before versus
// across the failovers — and writes BENCH_consensus.json (or
// -bench-consensus-out).
//
// -bench-placement runs the adaptive-placement experiment: eight tenants
// packed by static First-Fit onto four machines, hit with Zipfian-skewed
// TPC-W traffic, once frozen and once with the adaptive provisioning
// controller closing the loop from the SLA monitor, comparing SLA violation
// windows at equal machine count; a third balanced-load phase asserts the
// decision loop proposes nothing when there is nothing to fix. Writes
// BENCH_placement.json (or -bench-placement-out) and exits 1 if the
// adaptive run is worse than static or the balanced phase was not inert.
// CI runs this gate (quick mode) on every push.
//
// -bench-gate re-runs the query-engine benchmark at the committed baseline's
// iteration count and compares the measured point-read and replicated-write
// latencies against the baseline in the file given by -bench-baseline
// (default BENCH_sqldb.json), exiting 1 if either regressed by more than
// -bench-gate-pct percent. CI runs this on every push.
//
// -metrics drives a TPC-W mix with a replica creation mid-run and dumps the
// platform's unified observability snapshot — every family described in
// OBSERVABILITY.md — as text (default) or JSON (-format json). -trace-scope
// restricts the printed trace events to one scope (2pc, copy, recovery,
// repl, dr, sla) and -sla-report appends the SLA compliance report.
//
// -admin boots a full platform with the HTTP admin plane listening on the
// given address (e.g. -admin 127.0.0.1:8344) and drives a TPC-W mix with a
// deliberately under-provisioned SLA for -admin-duration, so /metrics,
// /tracez and /slaz all serve live data while it runs.
//
// -chaos runs one chaos soak: TPC-W traffic on a replicated WAL-backed
// cluster while a scheduler seeded by -seed injects network faults,
// asymmetric partitions, and machine crashes (including kills timed right
// after a 2PC PREPARE ack), then checks one-copy serializability, replica
// convergence, and lock hygiene. -chaos-duration and -chaos-clients size the
// run; the process exits 1 if any invariant was violated, and the same seed
// replays the identical fault schedule. With -placement the adaptive
// replica-provisioning controller runs during the soak, so its grows,
// shrinks, and migrations race the injected faults and the same invariants
// must still hold.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sdp/internal/experiments"
	"sdp/internal/obs"
	"sdp/internal/tpcw"
)

func main() {
	// Child half of the split-process network bench (-bench-net at full
	// scale re-executes this binary with the env set; see
	// experiments.RunNetBenchServer).
	if os.Getenv("SDP_NETBENCH_SERVER") == "1" {
		if err := experiments.RunNetBenchServer(); err != nil {
			fmt.Fprintln(os.Stderr, "netbench server:", err)
			os.Exit(1)
		}
		return
	}
	exp := flag.String("exp", "all", "experiment to run: table1, fig2..fig9, table2, all")
	quick := flag.Bool("quick", false, "shrink sizes and durations")
	seed := flag.Int64("seed", 42, "workload seed")
	format := flag.String("format", "text", "output format: text, csv, or (with -metrics) json")
	benchSQL := flag.Bool("bench-sqldb", false, "run query-engine microbenchmarks and write JSON results")
	benchOut := flag.String("bench-out", "BENCH_sqldb.json", "output path for -bench-sqldb results")
	benchWAL := flag.Bool("bench-wal", false, "run the durability benchmarks (group commit scaling, log-replay vs full-copy recovery) and write JSON results")
	benchWALOut := flag.String("bench-wal-out", "BENCH_wal.json", "output path for -bench-wal results")
	benchConsensus := flag.Bool("bench-consensus", false, "run the replicated-control-plane benchmarks (control-op latency, leader-failover time under load) and write JSON results")
	benchConsensusOut := flag.String("bench-consensus-out", "BENCH_consensus.json", "output path for -bench-consensus results")
	benchNet := flag.Bool("bench-net", false, "run the wire-protocol benchmarks (loopback latency, throughput vs connection count) and write JSON results")
	benchNetOut := flag.String("bench-net-out", "BENCH_net.json", "output path for -bench-net results")
	serveAddr := flag.String("serve", "", "serve the wire protocol with a demo database on this address (e.g. 127.0.0.1:8346) until interrupted")
	benchPlacement := flag.Bool("bench-placement", false, "run the adaptive-placement experiment (static vs adaptive under Zipfian skew, balanced-load inertness) and write JSON results")
	benchPlacementOut := flag.String("bench-placement-out", "BENCH_placement.json", "output path for -bench-placement results")
	benchGate := flag.Bool("bench-gate", false, "re-run the query-engine bench and fail if the point read or the replicated write regressed vs the committed baseline")
	benchBaseline := flag.String("bench-baseline", "BENCH_sqldb.json", "baseline file for -bench-gate")
	benchGatePct := flag.Float64("bench-gate-pct", 20, "allowed regression of each gated latency for -bench-gate, in percent")
	metrics := flag.Bool("metrics", false, "run a TPC-W mix with a mid-run replica copy and dump the unified metrics snapshot")
	traceScope := flag.String("trace-scope", "", "with -metrics: only print control events of this scope (copy, recovery, consensus, 2pc, repl, dr, sla)")
	slaReport := flag.Bool("sla-report", false, "with -metrics or -admin: print the SLA compliance report")
	adminAddr := flag.String("admin", "", "serve the HTTP admin plane on this address (e.g. 127.0.0.1:8344) while driving a demo workload")
	adminDur := flag.Duration("admin-duration", 10*time.Second, "how long the -admin demo workload runs")
	traceDemo := flag.Bool("trace-demo", false, "boot a traced platform, run wire-client calls, and print the span trees and slow-query log")
	slow := flag.Bool("slow", false, "boot a traced platform, run wire-client calls, and print the slow-query log")
	chaos := flag.Bool("chaos", false, "run a chaos soak (TPC-W under injected faults, partitions, and crashes) and verify serializability")
	chaosDur := flag.Duration("chaos-duration", 0, "faulted-traffic duration for -chaos (default 10s, 2s with -quick)")
	chaosClients := flag.Int("chaos-clients", 4, "concurrent TPC-W sessions for -chaos")
	chaosPlacement := flag.Bool("placement", false, "with -chaos: run the adaptive placement controller during the soak so grows, shrinks, and migrations race the fault schedule")
	flag.Parse()

	cfg := experiments.Config{Quick: *quick, Seed: *seed}

	if *traceDemo || *slow {
		if err := runTraceDemo(*slow && !*traceDemo); err != nil {
			fmt.Fprintf(os.Stderr, "trace-demo: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *chaos {
		rep, err := experiments.RunChaos(experiments.ChaosConfig{
			Seed:      *seed,
			Duration:  *chaosDur,
			Clients:   *chaosClients,
			Quick:     *quick,
			Placement: *chaosPlacement,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
			os.Exit(1)
		}
		rep.WriteText(os.Stdout)
		if !rep.Passed() {
			os.Exit(1)
		}
		return
	}

	if *adminAddr != "" {
		if err := runAdminDemo(*adminAddr, *adminDur, *seed, *slaReport); err != nil {
			fmt.Fprintf(os.Stderr, "admin: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *metrics {
		reg, snap, rep, err := experiments.RunMetricsDemo(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
			os.Exit(1)
		}
		if *format == "json" {
			data, err := json.MarshalIndent(snap, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
				os.Exit(1)
			}
			os.Stdout.Write(append(data, '\n'))
		} else {
			snap.WriteText(os.Stdout)
			// The live control ring, through the admin plane's /tracez selector.
			if trace := reg.Control().Select(0, *traceScope, ""); len(trace) > 0 {
				fmt.Printf("\n# control events: the last %d of %d\n", min(len(trace), 20), len(trace))
				obs.WriteSpanTree(os.Stdout, trace[max(len(trace)-20, 0):])
			}
		}
		if *slaReport {
			fmt.Println()
			rep.WriteText(os.Stdout)
		}
		return
	}

	if *serveAddr != "" {
		if err := runWireDemo(*serveAddr); err != nil {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *benchNet {
		res, err := experiments.RunNetBench(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-net: %v\n", err)
			os.Exit(1)
		}
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-net: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*benchNetOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bench-net: %v\n", err)
			os.Exit(1)
		}
		last := res.Points[len(res.Points)-1]
		fmt.Printf("wrote %s: prepared read %.0f ns/op vs simple %.0f ns/op; at %d conns %.0f tps, p99 %.0f µs, %.0f bytes/op, %d sustained\n",
			*benchNetOut, res.PreparedReadNsPerOp, res.SimpleReadNsPerOp,
			last.Conns, last.TPS, last.P99Us, last.BytesPerOp, res.MaxConnsSustained)
		return
	}

	if *benchConsensus {
		res, err := experiments.RunConsensusBench(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-consensus: %v\n", err)
			os.Exit(1)
		}
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-consensus: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*benchConsensusOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bench-consensus: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: %d controllers, ctl op p50 %.0f µs / p99 %.0f µs; %d leader kills under load: ctl commit back in %.1f ms, txn commit in %.1f ms (mean); %.0f tps baseline vs %.0f across failovers\n",
			*benchConsensusOut, res.Controllers, res.CtlOpP50Us, res.CtlOpP99Us,
			len(res.Failovers), res.CtlCommitMeanMs, res.TxnCommitMeanMs,
			res.BaselineTPS, res.FailoverTPS)
		return
	}

	if *benchWAL {
		res, err := experiments.RunWALBench(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-wal: %v\n", err)
			os.Exit(1)
		}
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-wal: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*benchWALOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bench-wal: %v\n", err)
			os.Exit(1)
		}
		last := len(res.GroupCommit) - 1
		fmt.Printf("wrote %s: at %d committers %.3f flushes/commit with group commit vs %.3f without; recovery of %d rows: %.1f ms log replay+delta vs %.1f ms full copy (%.1fx)\n",
			*benchWALOut,
			res.GroupCommit[last].Committers, res.GroupCommit[last].FlushesPerCommit,
			res.NoGroupCommit[last].FlushesPerCommit,
			res.RecoveryRows, res.FastRecoveryMs, res.FullRecoveryMs, res.FastSpeedupRatio)
		return
	}

	if *benchPlacement {
		res := experiments.RunPlacementBench(cfg)
		data, err := json.MarshalIndent(&res, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-placement: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*benchPlacementOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bench-placement: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *benchPlacementOut)
		res.WriteText(os.Stdout)
		if !res.Passed() {
			fmt.Fprintln(os.Stderr, "bench-placement: gate failed (adaptive worse than static, or balanced load was not inert)")
			os.Exit(1)
		}
		return
	}

	if *benchGate {
		if err := runBenchGate(*benchBaseline, *benchGatePct, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "bench-gate: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *benchSQL {
		res, snap, err := experiments.RunSQLBench(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-sqldb: %v\n", err)
			os.Exit(1)
		}
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-sqldb: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*benchOut, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bench-sqldb: %v\n", err)
			os.Exit(1)
		}
		var mb strings.Builder
		snap.WriteText(&mb)
		metricsOut := strings.TrimSuffix(*benchOut, ".json") + ".metrics.txt"
		if err := os.WriteFile(metricsOut, []byte(mb.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bench-sqldb: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: point read %.0f ns/op, replicated write %.0f ns/op, TPC-W mix %.0f ns/op (%.0f tps)\n",
			*benchOut, res.PointReadNsPerOp, res.ReplicatedWriteNsPerOp, res.TPCWMixNsPerOp, res.TPCWMixTPS)
		fmt.Printf("tracing overhead on point reads: off %.0f ns/op, on %.0f ns/op (%.1f%%)\n",
			res.PointReadTracingOffNsPerOp, res.PointReadTracingOnNsPerOp, res.TraceOverheadPct)
		fmt.Printf("wrote %s (bench metrics snapshot)\n", metricsOut)
		return
	}
	out := os.Stdout
	render := func(t *experiments.Table) {
		if *format == "csv" {
			t.WriteCSV(out)
		} else {
			t.Write(out)
		}
	}

	run := func(name string) bool {
		return *exp == "all" || strings.EqualFold(*exp, name)
	}

	ran := false
	if run("table1") {
		ran = true
		fmt.Fprintln(out, "running Table 1 (serializability matrix)...")
		render(experiments.RunTable1(cfg).Render())
	}
	throughput := []struct {
		name string
		mix  tpcw.Mix
	}{
		{"fig2", tpcw.ShoppingMix},
		{"fig3", tpcw.BrowsingMix},
		{"fig4", tpcw.OrderingMix},
	}
	for _, f := range throughput {
		if run(f.name) {
			ran = true
			fmt.Fprintf(out, "running %s (throughput, %s mix)...\n", strings.Replace(f.name, "fig", "Figure ", 1), f.mix.Name)
			render(experiments.RunThroughput(f.mix, cfg).Render(strings.Replace(f.name, "fig", "Figure ", 1)))
		}
	}
	deadlocks := []struct {
		name string
		mix  tpcw.Mix
	}{
		{"fig5", tpcw.ShoppingMix},
		{"fig6", tpcw.BrowsingMix},
		{"fig7", tpcw.OrderingMix},
	}
	for _, f := range deadlocks {
		if run(f.name) {
			ran = true
			fmt.Fprintf(out, "running %s (deadlock rate, %s mix)...\n", strings.Replace(f.name, "fig", "Figure ", 1), f.mix.Name)
			render(experiments.RunDeadlocks(f.mix, cfg).Render(strings.Replace(f.name, "fig", "Figure ", 1)))
		}
	}
	if run("fig8") || run("fig9") {
		ran = true
		fmt.Fprintln(out, "running Figures 8 and 9 (recovery)...")
		rec := experiments.RunRecovery(cfg)
		if run("fig8") {
			render(rec.RenderRejected())
		}
		if run("fig9") {
			render(rec.RenderThroughput())
		}
	}
	if run("table2") {
		ran = true
		fmt.Fprintln(out, "running Table 2 (SLA placement)...")
		render(experiments.RunTable2(cfg).Render())
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}
