package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
)

// envelope is bench/out/result.json: where and how the numbers were taken,
// then the metrics by workload, so files compare across commits.
type envelope struct {
	Schema     int                      `json:"schema"`
	GitSHA     string                   `json:"git_sha"`
	GoVersion  string                   `json:"go_version"`
	GOMAXPROCS int                      `json:"gomaxprocs"`
	NProc      int                      `json:"nproc"`
	Seeds      []int64                  `json:"seeds"`
	WindowS    float64                  `json:"window_s"`
	Config     fixedConfig              `json:"config"`
	Workloads  map[string]*workloadRuns `json:"workloads"`
}

type workloadRuns struct {
	Runs []runRecord `json:"runs"`
	// Median is each metric's median over the runs that reported it.
	Median map[string]float64 `json:"median"`
}

type runRecord struct {
	Seed  int64 `json:"seed"`
	Trace int   `json:"trace"`
	result
}

// gitSHA is the commit the binary was built from, when the build saw a
// repository ("+dirty" with uncommitted changes).
func gitSHA() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	sha, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			sha = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return sha + dirty
}

// runAll runs every workload, each run in a fresh process of this binary so
// that no run inherits another's heap, and writes the envelope. With trace 1
// every run is followed by its traced twin.
func runAll(seed int64, runs int, seconds float64, trace int, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	env := envelope{Schema: 1, GitSHA: gitSHA(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), WindowS: seconds,
		Config: theFixedConfig(), Workloads: map[string]*workloadRuns{}}
	for r := 0; r < runs; r++ {
		env.Seeds = append(env.Seeds, seed+int64(r))
	}
	failed := false
	for _, name := range workloadNames {
		wr := &workloadRuns{Median: map[string]float64{}}
		env.Workloads[name] = wr
		for _, s := range env.Seeds {
			for tr := 0; tr <= trace; tr++ {
				cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(s, 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(tr), "-out", outDir)
				var out bytes.Buffer
				cmd.Stdout, cmd.Stderr = &out, os.Stderr
				runErr := cmd.Run()
				lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					return fmt.Errorf("%s seed %d trace %d: no result (%v): %s", name, s, tr, runErr, out.String())
				}
				os.Stdout.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
				fmt.Println()
				if runErr != nil || !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d trace %d: checks failed\n", name, s, tr)
					failed = true
				}
				wr.Runs = append(wr.Runs, runRecord{Seed: s, Trace: tr, result: res})
			}
		}
		for mname, vals := range wr.values() {
			wr.Median[mname] = median(vals)
		}
	}
	path := filepath.Join(outDir, "result.json")
	if err := writeJSON(path, env); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d workloads x %d seeds, git %s)\n", path, len(workloadNames), runs, env.GitSHA)
	if failed {
		return fmt.Errorf("correctness or durability checks failed")
	}
	return nil
}

// values gathers each metric's values over the workload's runs.
func (w *workloadRuns) values() map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range w.Runs {
		for name, m := range r.Metrics {
			out[name] = append(out[name], m.Value)
		}
	}
	return out
}

// contractMetric is one end_to_end entry of BENCHMARK.json.
type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchContract struct {
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles of Python's statistics.quantiles(v, n=4):
// the measure the benchmark's contract judges steadiness by.
func spread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return div(q(3)-q(1), median(s))
}

// compareFiles prints, per workload and end-to-end metric, how much worse
// envelope b's median is than a's against the contract's bound. A metric
// whose own run-to-run spread exceeds its bound is "unresolved", not "ok". It
// reports false when any metric is worse by more than its bound.
func compareFiles(contractPath, aPath, bPath string) (bool, error) {
	var c benchContract
	var a, b envelope
	if err := readJSON(contractPath, &c); err != nil {
		return false, err
	}
	if err := readJSON(aPath, &a); err != nil {
		return false, err
	}
	if err := readJSON(bPath, &b); err != nil {
		return false, err
	}
	ok := true
	fmt.Printf("%-16s %-12s %14s %14s %8s %7s %9s %9s  %s\n",
		"workload", "metric", "a.median", "b.median", "worse%", "bound%", "a.spread%", "b.spread%", "verdict")
	for _, name := range workloadNames {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			return false, fmt.Errorf("workload %s is missing from an envelope", name)
		}
		va, vb := wa.values(), wb.values()
		for _, m := range c.EndToEnd {
			if len(va[m.Name]) == 0 || len(vb[m.Name]) == 0 {
				return false, fmt.Errorf("%s: metric %s is missing from an envelope", name, m.Name)
			}
			ma, mb := median(va[m.Name]), median(vb[m.Name])
			worse := div(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va[m.Name]), spread(vb[m.Name])
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict, ok = "VIOLATION", false
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			}
			fmt.Printf("%-16s %-12s %14.4f %14.4f %+8.2f %7.1f %9.2f %9.2f  %s\n",
				name, m.Name, ma, mb, 100*worse, 100*m.Bound, 100*sa, 100*sb, verdict)
		}
	}
	return ok, nil
}
