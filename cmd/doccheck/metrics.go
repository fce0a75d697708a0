package main

import (
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"time"

	"sdp"
	"sdp/internal/netsim"
	"sdp/internal/wire"
)

// familyName matches metric-family tokens in OBSERVABILITY.md backtick
// spans: a layer prefix followed by the family name. Prose fragments like
// `core_` or `core_net_` (trailing underscore) and engine-stat labels
// without a layer prefix do not match.
var familyName = regexp.MustCompile("`((?:core|twopc|netsim|sqldb|wal|colo|system|sla|wire|trace|slowlog|consensus|placement)_[a-z0-9_]*[a-z0-9])`")

// notFamilies lists tokens that match familyName but name trace-event
// phases documented in OBSERVABILITY.md's tracing tables, not families.
var notFamilies = map[string]bool{"colo_failed": true}

// statTable matches the doc's table of sqldb_engine_stat's `stat` label
// values: its header, the separator row and the body rows. statName matches a
// backtick span in a body row's first cell.
var (
	statTable = regexp.MustCompile("(?m)^\\| `stat` \\| Meaning \\|\n\\|[-| ]*\\|\n((?:\\|.*\n)+)")
	statName  = regexp.MustCompile("`([a-z0-9_]+)`")
)

// checkMetrics cross-checks the metric families named in the observability
// doc against the families a representative platform run registers, and the
// `stat` label values the doc lists for sqldb_engine_stat against the ones
// that run sets, reporting drift in either direction — so OBSERVABILITY.md
// cannot name a renamed-away family or a statistic of a code path that is
// gone, and a new one cannot ship undocumented.
func checkMetrics(file string) []string {
	data, err := os.ReadFile(file)
	if err != nil {
		return []string{err.Error()}
	}
	inDoc := map[string]bool{}
	for _, m := range familyName.FindAllStringSubmatch(string(data), -1) {
		if !notFamilies[m[1]] {
			inDoc[m[1]] = true
		}
	}
	statsInDoc := map[string]bool{}
	if m := statTable.FindStringSubmatch(string(data)); m != nil {
		for _, row := range strings.Split(m[1], "\n") {
			if cells := strings.Split(row, "|"); len(cells) > 1 {
				for _, name := range statName.FindAllStringSubmatch(cells[1], -1) {
					statsInDoc[name[1]] = true
				}
			}
		}
	}
	families, stats, err := representativeRun()
	if err != nil {
		return []string{fmt.Sprintf("representative run failed: %v", err)}
	}
	var drift []string
	for name := range stats {
		if !statsInDoc[name] {
			drift = append(drift, fmt.Sprintf("sqldb_engine_stat{stat=%q} is set but not listed in %s", name, file))
		}
	}
	for name := range statsInDoc {
		if !stats[name] {
			drift = append(drift, fmt.Sprintf("%s lists sqldb_engine_stat{stat=%q}, which a representative run does not set", file, name))
		}
	}
	for name := range families {
		if !inDoc[name] {
			drift = append(drift, fmt.Sprintf("family %s is registered but not documented in %s", name, file))
		}
	}
	for name := range inDoc {
		if _, ok := families[name]; !ok {
			drift = append(drift, fmt.Sprintf("%s names %s, which a representative run does not register", file, name))
		}
	}
	sort.Strings(drift)
	return drift
}

// representativeRun boots a small platform that exercises every layer
// with a registered instrument family — a WAL-backed cluster, the wire
// server driven by a traced client call, the slow-query log, the SLA
// monitor, and a simulated network — then returns the registry's families
// and the `stat` label values set on sqldb_engine_stat.
func representativeRun() (families map[string]string, stats map[string]bool, err error) {
	p := sdp.New(sdp.Config{
		Listen:      "127.0.0.1:0",
		TraceSample: 1,
		SlowQuery:   time.Nanosecond,
		Controllers: 3, // consensus_* families register with the control plane replicated
	})
	reg := p.Metrics()
	netsim.New(0, reg) // netsim_* families register at network construction
	p.AddColo("local", "local", 4)
	if err := p.CreateDatabase("app", sdp.SLA{SizeMB: 1, MinTPS: 1, MaxRejectFraction: 1}, "local"); err != nil {
		return nil, nil, err
	}
	p.StartPlacement(sdp.PlacementOptions{}) // placement_* families register with the controller
	defer p.StopPlacement()
	srv, err := p.ServeWire()
	if err != nil {
		return nil, nil, err
	}
	defer srv.Close()
	cl, err := wire.Dial(wire.ClientConfig{Addr: srv.Addr(), Database: "app", Metrics: reg, TraceSample: 1})
	if err != nil {
		return nil, nil, err
	}
	defer cl.Close()
	for _, stmt := range []string{
		"CREATE TABLE t (id INT PRIMARY KEY, v TEXT)",
		"INSERT INTO t VALUES (1, 'x')",
		"SELECT v FROM t WHERE id = 1",
	} {
		if _, err := cl.Exec(stmt); err != nil {
			return nil, nil, err
		}
	}
	p.SLAReport()
	stats = map[string]bool{}
	for _, pt := range reg.Snapshot().Metrics { // runs the snapshot bridges (engine stats, SLA gauges)
		if pt.Name == "sqldb_engine_stat" {
			stats[pt.Labels["stat"]] = true
		}
	}
	return reg.Families(), stats, nil
}
