package admin

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sdp/internal/obs"
)

// seedTrace records a tiny two-span tree and returns its trace ID.
func seedTrace(reg *obs.Registry) uint64 {
	tid := obs.NewTraceID()
	root := obs.NewTraceID()
	reg.Spans().Record(obs.Span{TraceID: tid, SpanID: root, Scope: "client", Name: "exec",
		ID: "shop", Start: time.Unix(1000, 0), Duration: time.Millisecond})
	reg.Spans().Record(obs.Span{TraceID: tid, SpanID: obs.NewTraceID(), Parent: root,
		Scope: "wire", Name: "exec", ID: "shop", Start: time.Unix(1000, 0), Duration: time.Millisecond / 2})
	return tid
}

func TestTracezByTraceID(t *testing.T) {
	reg := obs.NewRegistry()
	tid := seedTrace(reg)
	seedTrace(reg) // a second, unrelated trace must not leak into the filter
	h := Handler(reg, nil)

	var body struct {
		TraceID string     `json:"trace_id"`
		Count   int        `json:"count"`
		Spans   []obs.Span `json:"spans"`
	}
	rec := get(t, h, fmt.Sprintf("/tracez?trace=%s", obs.TraceIDString(tid)))
	if rec.Code != http.StatusOK {
		t.Fatalf("/tracez?trace= status = %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Count != 2 || body.TraceID != obs.TraceIDString(tid) {
		t.Errorf("trace body = %+v, want 2 spans of %s", body, obs.TraceIDString(tid))
	}
	for _, s := range body.Spans {
		if s.TraceID != tid {
			t.Errorf("span from other trace leaked: %+v", s)
		}
	}

	// format=text renders the indented tree with the child under the root.
	rec = get(t, h, fmt.Sprintf("/tracez?trace=%s&format=text", obs.TraceIDString(tid)))
	txt := rec.Body.String()
	if !strings.Contains(txt, "client:exec") || !strings.Contains(txt, "wire:exec") {
		t.Errorf("text tree missing spans:\n%s", txt)
	}

	// An unknown trace serves an empty array, not null.
	rec = get(t, h, "/tracez?trace=00000000000000ff")
	if !strings.Contains(rec.Body.String(), `"spans": []`) &&
		!strings.Contains(rec.Body.String(), `"spans":[]`) {
		t.Errorf("unknown trace should serve an empty spans array: %s", rec.Body.String())
	}

	// A malformed trace ID is a 400, not a filter miss.
	rec = get(t, h, "/tracez?trace=nothex")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("/tracez?trace=nothex = %d, want 400", rec.Code)
	}
}

func TestSlowz(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SlowLog().Record(obs.SlowEntry{
		Time: time.Unix(1000, 0), DB: "shop", SQL: "SELECT * FROM slow",
		Duration: 40 * time.Millisecond, TraceID: 0xabc,
	})
	h := Handler(reg, nil)

	var body struct {
		Count   int             `json:"count"`
		Entries []obs.SlowEntry `json:"entries"`
	}
	rec := get(t, h, "/slowz")
	if rec.Code != http.StatusOK {
		t.Fatalf("/slowz status = %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Count != 1 || body.Entries[0].SQL != "SELECT * FROM slow" {
		t.Errorf("/slowz body = %+v", body)
	}

	rec = get(t, h, "/slowz?format=text")
	if !strings.Contains(rec.Body.String(), "SELECT * FROM slow") {
		t.Errorf("/slowz text missing statement:\n%s", rec.Body.String())
	}
}

// TestMetricsOpenMetrics exercises the Accept-header negotiation: the
// OpenMetrics exposition carries histogram exemplars and the EOF marker,
// while the default Prometheus text format stays exemplar-free.
func TestMetricsOpenMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	hist := reg.Histogram("demo_seconds", "demo latency", nil)
	hist.ObserveWithExemplar(0.001, 0xdeadbeef)
	h := Handler(reg, nil)

	getAccept := func(accept string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("GET", "/metrics", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		h.ServeHTTP(rec, req)
		return rec
	}

	rec := getAccept("application/openmetrics-text")
	if ct := rec.Header().Get("Content-Type"); ct != obs.OpenMetricsContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.OpenMetricsContentType)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "# EOF") {
		t.Errorf("OpenMetrics exposition missing # EOF:\n%s", body)
	}
	if !strings.Contains(body, "00000000deadbeef") {
		t.Errorf("OpenMetrics exposition missing the exemplar trace ID:\n%s", body)
	}

	rec = getAccept("")
	if ct := rec.Header().Get("Content-Type"); ct != obs.PrometheusContentType {
		t.Errorf("default Content-Type = %q, want Prometheus text", ct)
	}
	if strings.Contains(rec.Body.String(), "deadbeef") {
		t.Errorf("Prometheus text format must not carry exemplars")
	}
}
