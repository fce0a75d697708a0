// Package admin implements the platform's HTTP admin plane: a small,
// dependency-free operator surface exposing Prometheus metrics, liveness and
// readiness probes aggregated from the colo free pools and recovery state,
// the trace ring with scope/correlation-ID filtering, the SLA compliance
// report, and the standard pprof profiling endpoints. The handler is plain
// net/http so tests can drive it through httptest without binding a port.
package admin

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"sdp/internal/obs"
	"sdp/internal/placement"
	"sdp/internal/sla"
	"sdp/internal/system"
)

// Platform is the slice of the platform the admin plane reads from. The root
// sdp.Platform implements it; tests substitute fakes.
type Platform interface {
	// Health returns the platform-wide liveness report.
	Health() system.Health
	// SLAReport returns the current SLA compliance report.
	SLAReport() sla.ComplianceReport
	// PlacementReport returns the adaptive placement controllers' merged
	// state (a disabled report when placement is not running).
	PlacementReport() placement.Report
}

// Handler builds the admin-plane HTTP handler over the given registry and
// platform. plat may be nil (registry-only deployments): the probes then
// report a trivially healthy empty platform and /slaz is 404.
func Handler(reg *obs.Registry, plat Platform) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", serveIndex)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		// OpenMetrics carries histogram→trace exemplars; serve it when the
		// scraper negotiates for it (Prometheus sends it in Accept).
		if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
			w.Header().Set("Content-Type", obs.OpenMetricsContentType)
			reg.Snapshot().WriteOpenMetrics(w)
			return
		}
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		reg.Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		serveHealthz(w, plat)
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		serveReadyz(w, plat)
	})
	mux.HandleFunc("/tracez", func(w http.ResponseWriter, r *http.Request) {
		serveTracez(w, r, reg)
	})
	mux.HandleFunc("/slowz", func(w http.ResponseWriter, r *http.Request) {
		serveSlowz(w, r, reg)
	})
	mux.HandleFunc("/slaz", func(w http.ResponseWriter, r *http.Request) {
		serveSlaz(w, r, plat)
	})
	mux.HandleFunc("/placementz", func(w http.ResponseWriter, r *http.Request) {
		servePlacementz(w, r, plat)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveIndex lists the admin endpoints so an operator hitting the root sees
// what is available.
func serveIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `sdp admin plane
  /metrics          Prometheus text exposition of the obs registry
  /healthz          liveness: any live machine in any cluster
  /readyz           readiness: colos up, replication degree met, no copies in flight, controller quorum held
  /tracez           trace ring (query: scope=2pc|copy|recovery|repl|dr|sla, gid=<correlation id>;
                    trace=<16-hex trace id> for the span tree, format=text to render it)
  /slowz            slow-query log, newest last (query: format=text for the operator rendering)
  /slaz             SLA compliance report (query: format=text for the operator rendering)
  /placementz       adaptive placement state: tenant classes, replica targets, recent
                    grow/shrink/migrate actions (query: format=text for the operator rendering)
  /debug/pprof/     Go runtime profiles
`)
}

// healthzBody is the JSON body of /healthz.
type healthzBody struct {
	// Status is "ok" or "down".
	Status string `json:"status"`
	// LiveMachines counts live machines across all clusters in all colos.
	LiveMachines int `json:"live_machines"`
	// Health is the full platform health report.
	Health system.Health `json:"health"`
}

// serveHealthz reports liveness: the platform is "down" only when at least
// one cluster exists and no machine anywhere is live. An empty platform (or
// nil plat) is trivially alive — it is not failing, just not serving yet.
func serveHealthz(w http.ResponseWriter, plat Platform) {
	body := healthzBody{Status: "ok"}
	clusters := 0
	if plat != nil {
		body.Health = plat.Health()
		for _, co := range body.Health.Colos {
			for _, cl := range co.Clusters {
				clusters++
				body.LiveMachines += cl.LiveMachines
			}
		}
	}
	code := http.StatusOK
	if clusters > 0 && body.LiveMachines == 0 {
		body.Status = "down"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

// readyzBody is the JSON body of /readyz.
type readyzBody struct {
	// Status is "ready" or "not ready".
	Status string `json:"status"`
	// Reasons lists why the platform is not ready (empty when ready).
	Reasons []string `json:"reasons,omitempty"`
}

// serveReadyz reports readiness: every colo up, every cluster holding enough
// live machines for its replication degree, and no replica copies in flight
// (a copy in flight means Algorithm 1 may be rejecting writes). A nil plat
// is trivially ready; a platform with zero colos is not.
func serveReadyz(w http.ResponseWriter, plat Platform) {
	body := readyzBody{Status: "ready"}
	if plat != nil {
		h := plat.Health()
		if len(h.Colos) == 0 {
			body.Reasons = append(body.Reasons, "no colos registered")
		}
		for _, co := range h.Colos {
			if co.Down {
				body.Reasons = append(body.Reasons, fmt.Sprintf("colo %s down", co.Colo))
				continue
			}
			for _, cl := range co.Clusters {
				if cl.LiveMachines < cl.Replicas {
					body.Reasons = append(body.Reasons, fmt.Sprintf(
						"cluster %s: %d live machines < replication degree %d",
						cl.Cluster, cl.LiveMachines, cl.Replicas))
				}
				if cl.ActiveCopies > 0 {
					body.Reasons = append(body.Reasons, fmt.Sprintf(
						"cluster %s: %d replica copies in flight", cl.Cluster, cl.ActiveCopies))
				}
				if !cl.ControllerQuorum {
					body.Reasons = append(body.Reasons, fmt.Sprintf(
						"cluster %s: controller quorum lost (no leader holds the lease)",
						cl.Cluster))
				}
			}
		}
	}
	code := http.StatusOK
	if len(body.Reasons) > 0 {
		body.Status = "not ready"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

// tracezBody is the JSON body of /tracez, both forms.
type tracezBody struct {
	// TraceID is the requested trace in 16-hex-digit form, "" when the
	// control ring was read.
	TraceID string `json:"trace_id,omitempty"`
	// Scope is the scope filter applied ("" = all).
	Scope string `json:"scope,omitempty"`
	// ID is the correlation-ID filter applied ("" = all).
	ID string `json:"id,omitempty"`
	// Count is len(Spans).
	Count int `json:"count"`
	// Spans are the selected spans, oldest first. Parent links reconstruct
	// a trace's tree; format=text renders it server-side.
	Spans []obs.Span `json:"spans"`
}

// serveTracez serves the control ring — controller events, filtered by the
// scope and id (or gid) query parameters — or, with trace=<16-hex trace id>,
// that distributed trace's spans from the sampled span ring. Both forms are
// JSON by default and the indented span rendering with format=text.
func serveTracez(w http.ResponseWriter, r *http.Request, reg *obs.Registry) {
	q := r.URL.Query()
	body := tracezBody{Scope: q.Get("scope"), ID: q.Get("id")}
	if body.ID == "" {
		body.ID = q.Get("gid")
	}
	ring, trace := reg.Control(), uint64(0)
	if tid := q.Get("trace"); tid != "" {
		var err error
		if trace, err = strconv.ParseUint(tid, 16, 64); err != nil {
			http.Error(w, "bad trace id (want 16 hex digits): "+tid, http.StatusBadRequest)
			return
		}
		ring, body.TraceID = reg.Spans(), obs.TraceIDString(trace)
	}
	body.Spans = ring.Select(trace, body.Scope, body.ID)
	if q.Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		obs.WriteSpanTree(w, body.Spans)
		return
	}
	if body.Spans == nil {
		body.Spans = []obs.Span{}
	}
	body.Count = len(body.Spans)
	writeJSON(w, http.StatusOK, body)
}

// slowzBody is the JSON body of /slowz.
type slowzBody struct {
	// Count is len(Entries).
	Count int `json:"count"`
	// Entries are the retained slow-query entries, oldest first.
	Entries []obs.SlowEntry `json:"entries"`
}

// serveSlowz serves the slow-query log: JSON by default, the operator text
// rendering (with per-entry span trees) with ?format=text.
func serveSlowz(w http.ResponseWriter, r *http.Request, reg *obs.Registry) {
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		reg.SlowLog().WriteText(w)
		return
	}
	entries := reg.SlowLog().Entries()
	if entries == nil {
		entries = []obs.SlowEntry{}
	}
	writeJSON(w, http.StatusOK, slowzBody{Count: len(entries), Entries: entries})
}

// serveSlaz serves the SLA compliance report: JSON by default, the operator
// text rendering with ?format=text.
func serveSlaz(w http.ResponseWriter, r *http.Request, plat Platform) {
	if plat == nil {
		http.Error(w, "no platform attached", http.StatusNotFound)
		return
	}
	rep := plat.SLAReport()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		rep.WriteText(w)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// servePlacementz serves the adaptive placement report: JSON by default,
// the operator text rendering with ?format=text.
func servePlacementz(w http.ResponseWriter, r *http.Request, plat Platform) {
	if plat == nil {
		http.Error(w, "no platform attached", http.StatusNotFound)
		return
	}
	rep := plat.PlacementReport()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		rep.WriteText(w)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// writeJSON writes v as an indented JSON response with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Server is a running admin-plane HTTP server bound to a real port.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve binds addr (e.g. "127.0.0.1:0") and serves h on it in a background
// goroutine. Close the returned server to stop it.
func Serve(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: h}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound address, useful when Serve was given port 0.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and releases the port.
func (s *Server) Close() error { return s.srv.Close() }
