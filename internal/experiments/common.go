// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5): Table 1 (serializability matrix), Figures 2–4
// (throughput under synchronous replication for the three TPC-W mixes),
// Figures 5–7 (deadlock rates), Figures 8–9 (rejections and throughput
// during recovery), and Table 2 (SLA-based placement vs the optimal). The
// same entry points back the root-level benchmarks and the cmd/experiments
// binary; EXPERIMENTS.md records measured-vs-paper shapes.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"sdp/internal/core"
	"sdp/internal/sqldb"
	"sdp/internal/tpcw"
)

// Config controls experiment scale.
type Config struct {
	// Quick shrinks data sizes and durations for CI/bench runs; the full
	// settings are used by cmd/experiments.
	Quick bool
	// Seed makes runs reproducible.
	Seed int64
}

// measureDuration is how long each throughput point runs.
func (c Config) measureDuration() time.Duration {
	if c.Quick {
		return 250 * time.Millisecond
	}
	return 2 * time.Second
}

// dbSizeMB is the per-database nominal size for throughput experiments.
func (c Config) dbSizeMB() float64 {
	if c.Quick {
		return 100
	}
	return 600
}

// engineConfig builds the per-machine DBMS configuration used by the
// throughput experiments: a buffer pool deliberately smaller than the
// combined working set of the hosted databases (as in the paper, where
// 300 GB of data met 2 GB pools), plus a simulated disk latency so pool
// misses cost what they cost on the paper's hardware, proportionally.
func (c Config) engineConfig() sqldb.Config {
	cfg := sqldb.DefaultConfig()
	// Sized so that ONE database's hot working set fits (Option 1's home
	// replica stays warm) but two databases' do not (Options 2/3 thrash):
	// the 2 GB pool vs 300 GB data regime of the paper, scaled down.
	cfg.PoolPages = 64
	cfg.MissLatency = 1 * time.Millisecond
	cfg.LockTimeout = 250 * time.Millisecond
	return cfg
}

// clusterDB adapts one database on a cluster controller to tpcw.DB.
type clusterDB struct {
	c  *core.Cluster
	db string
}

func (d clusterDB) Begin() (tpcw.Txn, error) { return d.c.Begin(d.db) }

// classify maps controller errors onto the TPC-W client's accounting
// classes, counting Algorithm 1 rejections separately.
func classify(err error) tpcw.ErrorClass {
	if core.IsRejection(err) {
		return tpcw.ClassRejected
	}
	if core.IsRetryable(err) {
		return tpcw.ClassAborted
	}
	return tpcw.DefaultClassifier(err)
}

// fatalSampler wraps a classifier and keeps the first few errors it classed
// as fatal, so a report can say what the error was, not just that one
// happened.
type fatalSampler struct {
	mu   sync.Mutex
	errs []string
}

func (s *fatalSampler) wrap(classify func(error) tpcw.ErrorClass) func(error) tpcw.ErrorClass {
	return func(err error) tpcw.ErrorClass {
		class := classify(err)
		if class == tpcw.ClassFatal {
			s.mu.Lock()
			if len(s.errs) < 8 {
				s.errs = append(s.errs, err.Error())
			}
			s.mu.Unlock()
		}
		return class
	}
}

// sampled returns the errors kept so far.
func (s *fatalSampler) sampled() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.errs...)
}

// Table is a generic text table for experiment output.
type Table struct {
	Title   string
	Header  []string
	RowData [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.RowData = append(t.RowData, cells) }

// WriteCSV renders the table as CSV (title as a comment line), ready for
// plotting tools.
func (t *Table) WriteCSV(w io.Writer) {
	cw := csv.NewWriter(w)
	fmt.Fprintf(w, "# %s\n", t.Title)
	_ = cw.Write(t.Header)
	for _, row := range t.RowData {
		_ = cw.Write(row)
	}
	cw.Flush()
	fmt.Fprintln(w)
}

// Write renders the table to w in aligned-column text form.
func (t *Table) Write(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.RowData {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(w, "%s\n", t.Title)
	var sep strings.Builder
	for i, h := range t.Header {
		fmt.Fprintf(w, "%-*s  ", widths[i], h)
		sep.WriteString(strings.Repeat("-", widths[i]))
		sep.WriteString("  ")
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.TrimRight(sep.String(), " "))
	for _, row := range t.RowData {
		for i, c := range row {
			fmt.Fprintf(w, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// f1 formats a float with one decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
