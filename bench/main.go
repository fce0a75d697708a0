// Command bench is the repository's benchmark: four workloads on the real
// platform booted in one process, driven closed-loop, with the end-to-end
// metrics a tenant sees (-trace 0) and a per-layer budget from wire to WAL
// (-trace 1). BENCHMARK.json at the repository root is its contract and
// README.md in this directory its glossary.
//
//	bash bench/run.sh -workload wire_point_read -seed 1 -seconds 10 -trace 0
//	bash bench/run.sh                       # all four workloads, one envelope
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	start := time.Now()
	var (
		workload = flag.String("workload", "", "workload to run in this process; empty runs all four, each in a fresh process")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 10, "length of the measured window")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics with all tracing off; 1: the traced run's per-layer metrics")
		runs     = flag.Int("runs", 1, "all-workloads mode: runs per workload, with seeds seed, seed+1, ...")
		outDir   = flag.String("out", "bench/out", "directory for result.json and trace-<workload>.json")
		compare  = flag.Bool("compare", false, "compare two result envelopes: -compare a.json b.json")
		contract = flag.String("contract", "BENCHMARK.json", "the benchmark contract -compare takes bounds from")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	window := time.Duration(*seconds * float64(time.Second))

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two envelope files"))
		}
		ok, err := compareFiles(*contract, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *workload == "":
		if err := runAll(*seed, *runs, *seconds, *trace, *outDir); err != nil {
			fatal(err)
		}
	default:
		res, err := runOne(options{workload: *workload, seed: *seed, window: window,
			trace: *trace == 1, outDir: *outDir, setups: 3, start: start})
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
