package obs

import (
	"fmt"
	"io"
	"strings"
)

// MetricPoint is one instrument's value in a Snapshot: the family name,
// the label values (aligned with the family's label names), and exactly one
// of the value fields depending on Kind.
type MetricPoint struct {
	// Name is the metric family name.
	Name string `json:"name"`
	// Kind is "counter", "gauge", or "histogram".
	Kind string `json:"kind"`
	// Labels maps label names to values; empty for unlabeled families.
	Labels map[string]string `json:"labels,omitempty"`
	// Value holds counter and gauge readings.
	Value float64 `json:"value"`
	// Histogram holds the snapshot of histogram instruments (nil
	// otherwise).
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
	// Help is the family's registered description.
	Help string `json:"help,omitempty"`
}

// Snapshot is a consistent-enough point-in-time dump of a registry: every
// instrument's value, sorted by family name then label values. The trace
// rings are read live, through SpanRing.Select, not copied here. Counters packed in Pairs are consistent by construction;
// independent families are read one after another, as in any metrics pull.
type Snapshot struct {
	// Metrics lists every instrument's reading, sorted by name then labels.
	Metrics []MetricPoint `json:"metrics"`
}

// Snapshot runs the registered hooks (bridging external statistics into
// gauges), then captures every instrument.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	r.mu.Unlock()
	for _, h := range hooks {
		h()
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	add := func(p MetricPoint) {
		p.Help = r.help[p.Name]
		s.Metrics = append(s.Metrics, p)
	}
	for _, name := range sortedKeys(r.counters) {
		add(MetricPoint{Name: name, Kind: "counter", Value: float64(r.counters[name].Value())})
	}
	for _, name := range sortedKeys(r.gauges) {
		add(MetricPoint{Name: name, Kind: "gauge", Value: r.gauges[name].Value()})
	}
	for _, name := range sortedKeys(r.histograms) {
		hs := r.histograms[name].Snapshot()
		add(MetricPoint{Name: name, Kind: "histogram", Histogram: &hs})
	}
	for _, name := range sortedKeys(r.vecs) {
		fam := r.vecs[name]
		fam.each(func(values []string, inst any) {
			labels := make(map[string]string, len(fam.labels))
			for i, ln := range fam.labels {
				if i < len(values) {
					labels[ln] = values[i]
				}
			}
			switch v := inst.(type) {
			case *Counter:
				add(MetricPoint{Name: name, Kind: "counter", Labels: labels, Value: float64(v.Value())})
			case *Gauge:
				add(MetricPoint{Name: name, Kind: "gauge", Labels: labels, Value: v.Value()})
			}
		})
	}
	return s
}

// labelString renders {k="v",...} with keys sorted, or "" for no labels.
func labelString(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, 0, len(labels))
	for _, k := range sortedKeys(labels) {
		parts = append(parts, fmt.Sprintf("%s=%q", k, labels[k]))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// matches reports whether the point's labels include every want pair.
func (p MetricPoint) matches(name string, want map[string]string) bool {
	if p.Name != name {
		return false
	}
	for k, v := range want {
		if p.Labels[k] != v {
			return false
		}
	}
	return true
}

// Counter returns the summed value of the named counter family over every
// instrument matching the label pairs ("k", "v", "k2", "v2", ...). Missing
// families read as zero, so test assertions stay one-liners.
func (s Snapshot) Counter(name string, kv ...string) uint64 {
	want := pairsToMap(kv)
	var total uint64
	for _, p := range s.Metrics {
		if p.Kind == "counter" && p.matches(name, want) {
			total += uint64(p.Value)
		}
	}
	return total
}

// Gauge returns the first matching gauge's value, or 0 when absent.
func (s Snapshot) Gauge(name string, kv ...string) float64 {
	want := pairsToMap(kv)
	for _, p := range s.Metrics {
		if p.Kind == "gauge" && p.matches(name, want) {
			return p.Value
		}
	}
	return 0
}

// Histogram returns the first matching histogram snapshot and whether one
// was found.
func (s Snapshot) Histogram(name string, kv ...string) (HistogramSnapshot, bool) {
	want := pairsToMap(kv)
	for _, p := range s.Metrics {
		if p.Kind == "histogram" && p.matches(name, want) {
			return *p.Histogram, true
		}
	}
	return HistogramSnapshot{}, false
}

// pairsToMap folds ("k","v",...) variadic pairs into a map.
func pairsToMap(kv []string) map[string]string {
	if len(kv)%2 != 0 {
		panic("obs: label pairs must come in key/value pairs")
	}
	m := make(map[string]string, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}

// WriteText renders the snapshot in a human-readable text format: one line
// per counter/gauge, one line per histogram with count/mean/p50/p95/p99.
// Families are sorted, so diffs between two dumps line up.
func (s Snapshot) WriteText(w io.Writer) {
	lastName := ""
	for _, p := range s.Metrics {
		if p.Name != lastName && p.Help != "" {
			fmt.Fprintf(w, "# %s: %s\n", p.Name, p.Help)
		}
		lastName = p.Name
		switch p.Kind {
		case "histogram":
			h := p.Histogram
			unit := func(v float64) string { return fmt.Sprintf("%.3g", v) }
			if strings.HasSuffix(p.Name, "_seconds") {
				unit = fmtSeconds
			}
			fmt.Fprintf(w, "%s%s count=%d mean=%s p50=%s p95=%s p99=%s\n",
				p.Name, labelString(p.Labels), h.Count,
				unit(h.Mean()), unit(h.P50), unit(h.P95), unit(h.P99))
		case "gauge":
			fmt.Fprintf(w, "%s%s %g\n", p.Name, labelString(p.Labels), p.Value)
		default:
			fmt.Fprintf(w, "%s%s %d\n", p.Name, labelString(p.Labels), uint64(p.Value))
		}
	}
}

// fmtSeconds renders a seconds value with a readable unit.
func fmtSeconds(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v < 1e-3:
		return fmt.Sprintf("%.1fµs", v*1e6)
	case v < 1:
		return fmt.Sprintf("%.2fms", v*1e3)
	default:
		return fmt.Sprintf("%.3fs", v)
	}
}
