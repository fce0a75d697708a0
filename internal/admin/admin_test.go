package admin

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sdp/internal/colo"
	"sdp/internal/core"
	"sdp/internal/obs"
	"sdp/internal/placement"
	"sdp/internal/sla"
	"sdp/internal/system"
)

// fakePlatform is a canned-response admin.Platform.
type fakePlatform struct {
	health    system.Health
	report    sla.ComplianceReport
	placement placement.Report
}

func (f *fakePlatform) Health() system.Health             { return f.health }
func (f *fakePlatform) SLAReport() sla.ComplianceReport   { return f.report }
func (f *fakePlatform) PlacementReport() placement.Report { return f.placement }

// healthyPlatform is one live colo with one fully-replicated cluster.
func healthyPlatform() *fakePlatform {
	return &fakePlatform{
		health: system.Health{
			Colos: []system.ColoHealth{{
				Health: colo.Health{
					Colo:         "colo1",
					FreeMachines: 2,
					Clusters: []core.ClusterHealth{{
						Cluster: "colo1-c1", Machines: 4, LiveMachines: 4,
						Databases: 1, Replicas: 2,
						Controllers: 3, ControllerLeader: "colo1-c1#0",
						ControllerTerm: 1, ControllerQuorum: true,
					}},
				},
				Region: "us-east",
			}},
			Databases: 1,
		},
		report: sla.ComplianceReport{
			GeneratedAt:   time.Unix(1000, 0),
			WindowSeconds: 1,
			Databases: []sla.DBCompliance{{
				Database: "shop", Compliant: false,
				WindowsEvaluated: 5, WindowsViolated: 2,
				Machines: []string{"m1", "m2"},
			}},
		},
		placement: placement.Report{
			GeneratedAt: time.Unix(1000, 0),
			Enabled:     true,
			Rounds:      7,
			Tenants: []placement.TenantStatus{{
				DB: "shop", Class: "hot", Replicas: 2, Target: 3,
				Compliant: false, OfferedTPS: 120,
			}},
			Recent: []placement.ActionRecord{{
				Action: placement.Action{Kind: placement.Grow, DB: "shop", To: "m3", Reason: "hot: grow"},
				At:     time.Unix(1001, 0),
			}},
		},
	}
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

func TestMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("demo_total", "A demo counter").Add(3)
	h := Handler(reg, nil)

	rec := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != obs.PrometheusContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.PrometheusContentType)
	}
	body := rec.Body.String()
	for _, want := range []string{"# TYPE demo_total counter", "demo_total 3\n"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestHealthz(t *testing.T) {
	// Healthy platform: 200 ok.
	rec := get(t, Handler(obs.NewRegistry(), healthyPlatform()), "/healthz")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Errorf("healthy /healthz = %d %s", rec.Code, rec.Body.String())
	}

	// All machines dead: 503 down.
	p := healthyPlatform()
	p.health.Colos[0].Clusters[0].LiveMachines = 0
	rec = get(t, Handler(obs.NewRegistry(), p), "/healthz")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), `"down"`) {
		t.Errorf("dead /healthz = %d %s", rec.Code, rec.Body.String())
	}

	// No platform at all: trivially alive.
	rec = get(t, Handler(obs.NewRegistry(), nil), "/healthz")
	if rec.Code != http.StatusOK {
		t.Errorf("nil-platform /healthz = %d", rec.Code)
	}
}

func TestReadyz(t *testing.T) {
	rec := get(t, Handler(obs.NewRegistry(), healthyPlatform()), "/readyz")
	if rec.Code != http.StatusOK {
		t.Errorf("healthy /readyz = %d %s", rec.Code, rec.Body.String())
	}

	cases := []struct {
		name   string
		mutate func(*fakePlatform)
		reason string
	}{
		{"colo down", func(p *fakePlatform) { p.health.Colos[0].Down = true }, "colo colo1 down"},
		{"under-replicated", func(p *fakePlatform) { p.health.Colos[0].Clusters[0].LiveMachines = 1 }, "live machines < replication degree"},
		{"copy in flight", func(p *fakePlatform) { p.health.Colos[0].Clusters[0].ActiveCopies = 1 }, "replica copies in flight"},
		{"no colos", func(p *fakePlatform) { p.health.Colos = nil }, "no colos registered"},
		{"quorum lost", func(p *fakePlatform) {
			cl := &p.health.Colos[0].Clusters[0]
			cl.ControllerQuorum = false
			cl.ControllerLeader = ""
		}, "controller quorum lost"},
	}
	for _, tc := range cases {
		p := healthyPlatform()
		tc.mutate(p)
		rec := get(t, Handler(obs.NewRegistry(), p), "/readyz")
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s: /readyz = %d, want 503", tc.name, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), tc.reason) {
			t.Errorf("%s: body missing %q: %s", tc.name, tc.reason, rec.Body.String())
		}
	}
}

func TestTracez(t *testing.T) {
	reg := obs.NewRegistry()
	reg.TraceEvent("2pc", "gid:7", "resolve_commit", "2 branches")
	reg.TraceEvent("copy", "shop", "table_copied", "item")
	reg.TraceEvent("2pc", "gid:8", "resolve_abort", "2 branches")
	// A sampled span lives in the span ring: the control form never lists it.
	reg.Spans().Record(obs.Span{TraceID: 1, SpanID: 2, Scope: "2pc", Name: "sampled"})
	h := Handler(reg, nil)

	var body struct {
		Count int        `json:"count"`
		Spans []obs.Span `json:"spans"`
	}
	decode := func(path string) {
		rec := get(t, h, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s status = %d", path, rec.Code)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}

	decode("/tracez")
	if body.Count != 3 {
		t.Errorf("/tracez count = %d, want 3", body.Count)
	}
	decode("/tracez?scope=2pc")
	if body.Count != 2 {
		t.Errorf("scope filter count = %d, want 2", body.Count)
	}
	decode("/tracez?scope=2pc&gid=gid:7")
	if body.Count != 1 || body.Spans[0].Name != "resolve_commit" || body.Spans[0].Duration != 0 {
		t.Errorf("scope+gid filter = %+v", body)
	}
	decode("/tracez?scope=recovery")
	if body.Count != 0 || body.Spans == nil {
		t.Errorf("no-match should serve an empty array, got %+v", body)
	}
}

func TestSlaz(t *testing.T) {
	h := Handler(obs.NewRegistry(), healthyPlatform())
	rec := get(t, h, "/slaz")
	if rec.Code != http.StatusOK {
		t.Fatalf("/slaz status = %d", rec.Code)
	}
	var rep sla.ComplianceReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Databases) != 1 || rep.Databases[0].Compliant || len(rep.Databases[0].Machines) != 2 {
		t.Errorf("/slaz report = %+v", rep)
	}

	rec = get(t, h, "/slaz?format=text")
	if !strings.Contains(rec.Body.String(), "VIOLATING") {
		t.Errorf("text report missing verdict: %s", rec.Body.String())
	}

	// Without a platform there is no report to serve.
	rec = get(t, Handler(obs.NewRegistry(), nil), "/slaz")
	if rec.Code != http.StatusNotFound {
		t.Errorf("nil-platform /slaz = %d, want 404", rec.Code)
	}
}

func TestPlacementz(t *testing.T) {
	h := Handler(obs.NewRegistry(), healthyPlatform())
	rec := get(t, h, "/placementz")
	if rec.Code != http.StatusOK {
		t.Fatalf("/placementz status = %d", rec.Code)
	}
	var rep placement.Report
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Enabled || rep.Rounds != 7 || len(rep.Tenants) != 1 || rep.Tenants[0].Class != "hot" {
		t.Errorf("/placementz report = %+v", rep)
	}
	if len(rep.Recent) != 1 || rep.Recent[0].Kind != placement.Grow {
		t.Errorf("/placementz recent = %+v", rep.Recent)
	}

	rec = get(t, h, "/placementz?format=text")
	for _, want := range []string{"adaptive placement: enabled", "hot", "grow shop"} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("text report missing %q: %s", want, rec.Body.String())
		}
	}

	// Without a platform there is no report to serve.
	rec = get(t, Handler(obs.NewRegistry(), nil), "/placementz")
	if rec.Code != http.StatusNotFound {
		t.Errorf("nil-platform /placementz = %d, want 404", rec.Code)
	}
}

func TestIndexAndPprof(t *testing.T) {
	h := Handler(obs.NewRegistry(), nil)
	rec := get(t, h, "/")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "/metrics") {
		t.Errorf("index = %d %s", rec.Code, rec.Body.String())
	}
	if rec := get(t, h, "/nope"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown path = %d, want 404", rec.Code)
	}
	if rec := get(t, h, "/debug/pprof/"); rec.Code != http.StatusOK {
		t.Errorf("pprof index = %d", rec.Code)
	}
}

func TestServe(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("served_total", "c").Inc()
	srv, err := Serve("127.0.0.1:0", Handler(reg, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /metrics over TCP = %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}
