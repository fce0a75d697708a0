package sdp

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sdp/internal/sla"
	"sdp/internal/tpcw"
)

// adminTestDB adapts a Conn to tpcw.DB for the integration workload.
type adminTestDB struct{ conn *Conn }

func (d adminTestDB) Begin() (tpcw.Txn, error) { return d.conn.Begin() }

// TestAdminPlaneIntegration drives a TPC-W workload against a full platform
// whose database carries a deliberately unattainable latency SLA, then
// checks the whole admin surface end to end: /metrics serves the platform's
// families in Prometheus text including non-zero sla_violations_total,
// /slaz reports the violation with the hosting machines flagged, and the
// probes agree with the cluster state.
func TestAdminPlaneIntegration(t *testing.T) {
	p := New(Config{
		ClusterSize: 3,
		SLAWindow:   50 * time.Millisecond,
	})
	p.AddColo("colo1", "us-east", 4)

	// A mean-commit-latency bound of 1ns: every busy window violates.
	if err := p.CreateDatabase("shop", SLA{
		SizeMB:            1,
		MinTPS:            1,
		MaxRejectFraction: 0.5,
		MaxLatency:        time.Nanosecond,
	}, "colo1"); err != nil {
		t.Fatal(err)
	}

	db := adminTestDB{conn: p.Open("shop")}
	scale := tpcw.SmallScale(1)
	if err := tpcw.Load(db, scale); err != nil {
		t.Fatal(err)
	}
	client := &tpcw.Client{DB: db, Mix: tpcw.ShoppingMix, Workload: tpcw.NewWorkload(scale)}
	stop := make(chan struct{})
	done := make(chan tpcw.Stats, 1)
	go func() { done <- client.RunSession(7, stop) }()
	time.Sleep(400 * time.Millisecond)
	close(stop)
	st := <-done
	if st.Committed == 0 {
		t.Fatalf("workload committed nothing: %+v", st)
	}
	// Let the last window close so evaluation sees it.
	time.Sleep(60 * time.Millisecond)

	h := p.AdminHandler()
	get := func(path string) (*httptest.ResponseRecorder, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec, rec.Body.String()
	}

	// /metrics: valid exposition covering the platform's families plus the
	// SLA monitor's violation counter for the shop database.
	rec, metrics := get("/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	if families := strings.Count(metrics, "# TYPE "); families < 10 {
		t.Errorf("/metrics covers %d families, want >= 10", families)
	}
	if !strings.Contains(metrics, `sla_violations_total{db="shop",kind="latency"}`) {
		t.Errorf("/metrics missing sla_violations_total{db=\"shop\",...}:\n%.2000s", metrics)
	}
	for _, family := range []string{"core_txn_committed_total", "sla_compliance{db=\"shop\"} 0"} {
		if !strings.Contains(metrics, family) {
			t.Errorf("/metrics missing %q", family)
		}
	}

	// /slaz: a non-empty violation report flagging the hosting machines.
	rec, body := get("/slaz")
	if rec.Code != http.StatusOK {
		t.Fatalf("/slaz = %d", rec.Code)
	}
	var rep sla.ComplianceReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Violating()) != 1 || rep.Violating()[0] != "shop" {
		t.Fatalf("/slaz violating = %v, want [shop]", rep.Violating())
	}
	d := rep.Databases[0]
	if d.Compliant || d.WindowsViolated == 0 || d.LastViolation == nil {
		t.Errorf("/slaz entry should record the violation: %+v", d)
	}
	if len(d.Machines) == 0 {
		t.Error("/slaz should flag the machines hosting the violating replicas")
	}

	// Probes: the platform is alive and (no copies in flight) ready.
	if rec, body := get("/healthz"); rec.Code != http.StatusOK {
		t.Errorf("/healthz = %d %s", rec.Code, body)
	}
	if rec, body := get("/readyz"); rec.Code != http.StatusOK {
		t.Errorf("/readyz = %d %s", rec.Code, body)
	}

	// /tracez with the sla scope carries the violation events.
	_, body = get("/tracez?scope=sla&gid=shop")
	var trace struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal([]byte(body), &trace); err != nil {
		t.Fatal(err)
	}
	if trace.Count == 0 {
		t.Error("/tracez?scope=sla should carry violation events")
	}

	// The index names every endpoint, and each of the remaining ones answers.
	_, index := get("/")
	for _, path := range []string{"/metrics", "/slowz", "/placementz", "/tracez"} {
		if !strings.Contains(index, path) {
			t.Errorf("/ does not list %s", path)
		}
	}
	if rec, _ := get("/nope"); rec.Code != http.StatusNotFound {
		t.Errorf("/nope = %d", rec.Code)
	}
	if rec, body := get("/slowz"); rec.Code != http.StatusOK || !strings.Contains(body, `"count": 0`) {
		t.Errorf("/slowz with no threshold set = %d %s", rec.Code, body)
	}
	p.StartPlacement(PlacementOptions{Interval: 10 * time.Millisecond})
	time.Sleep(50 * time.Millisecond)
	_, body = get("/placementz?format=text")
	p.StopPlacement()
	if !strings.Contains(body, "adaptive placement: enabled") || !strings.Contains(body, "shop") {
		t.Errorf("/placementz?format=text with the loop running:\n%s", body)
	}
	om := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	h.ServeHTTP(om, req)
	if body := om.Body.String(); !strings.HasSuffix(body, "# EOF\n") || !strings.Contains(body, "core_2pc_commit_seconds_bucket") {
		t.Errorf("OpenMetrics exposition lacks its histograms or its terminator:\n%.500s", body)
	}

	// ServeAdmin binds a real port and serves the same handler.
	srv, err := p.ServeAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), "sla_violations_total") {
		t.Errorf("ServeAdmin /metrics = %d", resp.StatusCode)
	}
}

// TestAdminControllerQuorumProbes boots a platform with replicated cluster
// controllers and checks the probes in both states: with a leader holding the
// quorum lease /healthz carries the leader identity and term and /readyz is
// ready; with every controller replica stopped the lease lapses, /healthz
// flips controller_quorum to false, and /readyz goes 503 naming the cluster.
func TestAdminControllerQuorumProbes(t *testing.T) {
	p := New(Config{ClusterSize: 3, Controllers: 3})
	p.AddColo("colo1", "us-east", 4)
	if err := p.CreateDatabase("shop", SLA{
		SizeMB: 1, MinTPS: 1, MaxRejectFraction: 0.5,
	}, "colo1"); err != nil {
		t.Fatal(err)
	}

	h := p.AdminHandler()
	get := func(path string) (*httptest.ResponseRecorder, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec, rec.Body.String()
	}

	rec, body := get("/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz = %d %s", rec.Code, body)
	}
	for _, want := range []string{`"controllers": 3`, `"controller_leader":`, `"controller_term":`, `"controller_quorum": true`} {
		if !strings.Contains(body, want) {
			t.Errorf("/healthz missing %q:\n%s", want, body)
		}
	}
	if rec, body := get("/readyz"); rec.Code != http.StatusOK {
		t.Errorf("/readyz with quorum = %d %s", rec.Code, body)
	}

	// Stop every controller replica: the quorum lease lapses and the data
	// path refuses new transactions, which readiness must surface.
	co, err := p.System().Colo("colo1")
	if err != nil {
		t.Fatal(err)
	}
	cl := co.Clusters()[0]
	for _, id := range cl.ControllerIDs() {
		if err := cl.StopController(id); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec, body = get("/readyz")
		if rec.Code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz stayed %d after stopping all controllers: %s", rec.Code, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.Contains(body, "controller quorum lost") {
		t.Errorf("/readyz reason missing quorum loss: %s", body)
	}
	if rec, body := get("/healthz"); !strings.Contains(body, `"controller_quorum": false`) {
		t.Errorf("/healthz should report lost quorum (%d): %s", rec.Code, body)
	}
}
