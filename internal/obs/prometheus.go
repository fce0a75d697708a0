package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// PrometheusContentType is the Content-Type an HTTP handler should declare
// when serving WritePrometheus output — text exposition format 0.0.4.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): one `# HELP` / `# TYPE` header per family followed
// by its samples, counters and gauges as single lines, histograms as
// cumulative `_bucket{le="..."}` lines plus `_sum` and `_count`. Label
// values are escaped per the format spec (backslash, double quote, newline)
// and label names are emitted in sorted order, so the output is
// deterministic and scrapable by a stock Prometheus server. All samples of
// one family are contiguous, as the format requires.
func (s Snapshot) WritePrometheus(w io.Writer) { s.writeExposition(w, false) }

// OpenMetricsContentType is the Content-Type an HTTP handler should declare
// when serving WriteOpenMetrics output.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// WriteOpenMetrics renders the snapshot in the OpenMetrics 1.0 text format.
// It differs from WritePrometheus in exactly the ways the newer format
// requires: counter family metadata drops the `_total` suffix (samples keep
// it), histogram bucket lines carry exemplars — `# {trace_id="…"} value
// timestamp` — when a traced observation landed in the bucket, and the
// exposition ends with `# EOF`. Exemplars are what let a Prometheus/Grafana
// stack jump from a latency histogram straight to the trace of one request
// that hit the slow bucket.
func (s Snapshot) WriteOpenMetrics(w io.Writer) {
	s.writeExposition(w, true)
	fmt.Fprintln(w, "# EOF")
}

// writeExposition is the one renderer behind both formats.
func (s Snapshot) writeExposition(w io.Writer, openMetrics bool) {
	lastName := ""
	for _, p := range s.Metrics {
		if p.Name != lastName {
			family := p.Name
			if openMetrics && p.Kind == "counter" {
				family = strings.TrimSuffix(family, "_total")
			}
			if p.Help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", family, escapeHelp(p.Help))
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", family, p.Kind)
			lastName = p.Name
		}
		if p.Kind == "histogram" {
			writeHistogram(w, p, openMetrics)
			continue
		}
		fmt.Fprintf(w, "%s%s %s\n", p.Name, promLabels(p.Labels, ""), promFloat(p.Value))
	}
}

// writeHistogram emits one histogram point: cumulative buckets (the overflow
// bucket folds into `le="+Inf"`), then the exact sum and count. With
// exemplars each bucket line carries the bucket's exemplar, if it has one.
func writeHistogram(w io.Writer, p MetricPoint, exemplars bool) {
	h := p.Histogram
	exemplar := func(i int) string {
		if !exemplars || i >= len(h.Exemplars) || h.Exemplars[i].TraceID == 0 {
			return ""
		}
		e := h.Exemplars[i]
		return fmt.Sprintf(" # {trace_id=\"%s\"} %s %.3f",
			TraceIDString(e.TraceID), promFloat(e.Value), float64(e.Time.UnixNano())/1e9)
	}
	var cum uint64
	for i, bound := range h.Bounds {
		if i < len(h.Buckets) {
			cum += h.Buckets[i]
		}
		fmt.Fprintf(w, "%s_bucket%s %d%s\n", p.Name, promLabels(p.Labels, promFloat(bound)), cum, exemplar(i))
	}
	fmt.Fprintf(w, "%s_bucket%s %d%s\n", p.Name, promLabels(p.Labels, "+Inf"), h.Count, exemplar(len(h.Bounds)))
	fmt.Fprintf(w, "%s_sum%s %s\n", p.Name, promLabels(p.Labels, ""), promFloat(h.Sum))
	fmt.Fprintf(w, "%s_count%s %d\n", p.Name, promLabels(p.Labels, ""), h.Count)
}

// promLabels renders {k="v",...} with names sorted; a non-empty le is
// appended last (bucket lines), matching the conventional ordering. Returns
// "" when there are no labels at all.
func promLabels(labels map[string]string, le string) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for _, k := range sortedKeys(labels) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteByte('"')
	}
	if le != "" {
		if !first {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// promFloat formats a sample value: shortest round-trip representation, with
// the spec's spellings for the special values.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP text: backslash and line feed.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value: backslash, double quote, line feed.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
