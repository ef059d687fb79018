package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"syrep/internal/network"
	"syrep/internal/resilience"
	"syrep/internal/retry"
	"syrep/internal/routing"
	"syrep/internal/topozoo"
)

// apiRequest is the JSON body of POST /v1/synthesize and /v1/repair. The
// topology is either an embedded instance name or an inline link list.
type apiRequest struct {
	// Topology names an embedded instance (see GET /v1/topologies).
	Topology string `json:"topology,omitempty"`
	// Links is an inline topology: undirected node-name pairs. Nodes are
	// created on first mention.
	Links [][2]string `json:"links,omitempty"`
	// Dest is the destination node name (default: the first node).
	Dest string `json:"dest,omitempty"`
	// K is the resilience level (default 2).
	K *int `json:"k,omitempty"`
	// Strategy is baseline|heuristic|reduction|combined (default combined).
	Strategy string `json:"strategy,omitempty"`
	// TimeoutMs bounds the request end to end (0 = server default).
	TimeoutMs int `json:"timeoutMs,omitempty"`
	// Routing is the table to repair (repair endpoint only), in the JSON
	// codec of the routing package. A repair request without a routing is
	// dynamic repair: the server warm-starts from the nearest cached table
	// for the submitted topology, falling back to cold synthesis.
	Routing json.RawMessage `json:"routing,omitempty"`

	// The remaining fields apply to /v1/synthesize-all only.

	// Dests selects the batch destinations by node name (default: every
	// node of the topology).
	Dests []string `json:"dests,omitempty"`
	// Workers bounds the batch's concurrently running destinations
	// (default and cap: the server's worker count).
	Workers int `json:"workers,omitempty"`
	// IncludeRoutings asks for the synthesized table on each per-
	// destination line (off by default: tables dominate the payload).
	IncludeRoutings bool `json:"routings,omitempty"`
}

// apiResponse is the JSON reply of the submit endpoints.
type apiResponse struct {
	// Status is "ok", "partial" (salvaged best-effort table), "degraded"
	// (breaker open, heuristic-only table), or "error".
	Status    string `json:"status"`
	Resilient bool   `json:"resilient"`
	// Residual counts known failing deliveries of the returned table.
	Residual        int  `json:"residual"`
	ResidualUnknown bool `json:"residualUnknown,omitempty"`
	Retries         int  `json:"retries"`
	// Degraded mirrors Status == "degraded" so clients need not string-match.
	Degraded bool `json:"degraded,omitempty"`
	// Cached: served from the synthesis cache without a pipeline run.
	Cached bool `json:"cached,omitempty"`
	// Deduped: shared the pipeline run of a concurrent identical request.
	Deduped bool `json:"deduped,omitempty"`
	// WarmStart: dynamic repair served by the warm-start fast path.
	WarmStart bool             `json:"warmStart,omitempty"`
	Error     string           `json:"error,omitempty"`
	Routing   *routing.Routing `json:"routing,omitempty"`
	ElapsedMs int64            `json:"elapsedMs"`
}

// Handler returns the service's HTTP interface:
//
//	POST /v1/synthesize      submit a synthesis request
//	POST /v1/synthesize-all  batch-synthesize every destination (NDJSON stream)
//	POST /v1/repair          submit a repair request
//	GET  /v1/topologies      list embedded topology names
//	GET  /healthz            liveness (200 while the process serves)
//	GET  /readyz             readiness (breaker closed, queue below high water)
//	GET  /metrics            Prometheus exposition of the configured observer
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/synthesize", func(w http.ResponseWriter, r *http.Request) {
		s.handleSubmit(w, r, KindSynthesize)
	})
	mux.HandleFunc("POST /v1/synthesize-all", s.handleSynthesizeAll)
	mux.HandleFunc("POST /v1/repair", func(w http.ResponseWriter, r *http.Request) {
		s.handleSubmit(w, r, KindRepair)
	})
	mux.HandleFunc("GET /v1/topologies", s.handleTopologies)
	mux.HandleFunc("GET /v1/cache", s.handleCache)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// buildRequest translates the wire request into a server Request.
func buildRequest(kind Kind, api *apiRequest) (*Request, error) {
	var net *network.Network
	switch {
	case api.Topology != "" && len(api.Links) > 0:
		return nil, errors.New("give either topology or links, not both")
	case api.Topology != "":
		for _, inst := range topozoo.Embedded() {
			if strings.EqualFold(inst.Name, api.Topology) {
				net = inst.Net
				break
			}
		}
		if net == nil {
			return nil, fmt.Errorf("unknown topology %q", api.Topology)
		}
	case len(api.Links) > 0:
		b := network.NewBuilder("inline")
		for _, l := range api.Links {
			b.AddLink(l[0], l[1])
		}
		var err error
		net, err = b.Build()
		if err != nil {
			return nil, fmt.Errorf("inline topology: %w", err)
		}
	default:
		return nil, errors.New("missing topology (name or links)")
	}

	dest := network.NodeID(0)
	if api.Dest != "" {
		dest = net.NodeByName(api.Dest)
		if dest == network.NoNode {
			return nil, fmt.Errorf("unknown destination node %q", api.Dest)
		}
	}

	k := 2
	if api.K != nil {
		k = *api.K
	}
	if k < 0 {
		return nil, fmt.Errorf("negative resilience level %d", k)
	}

	var strategy resilience.Strategy
	switch api.Strategy {
	case "", "combined":
		strategy = resilience.Combined
	case "baseline":
		strategy = resilience.Baseline
	case "heuristic":
		strategy = resilience.HeuristicOnly
	case "reduction":
		strategy = resilience.ReductionOnly
	default:
		return nil, fmt.Errorf("unknown strategy %q", api.Strategy)
	}

	req := &Request{
		Kind:     kind,
		Net:      net,
		Dest:     dest,
		K:        k,
		Strategy: strategy,
		Timeout:  time.Duration(api.TimeoutMs) * time.Millisecond,
	}
	if kind == KindRepair && len(api.Routing) > 0 {
		rt, err := routing.Unmarshal(api.Routing, net)
		if err != nil {
			return nil, err
		}
		req.Routing = rt
	}
	return req, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request, kind Kind) {
	start := s.cfg.now()
	var api apiRequest
	if err := json.NewDecoder(r.Body).Decode(&api); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err), 0)
		return
	}
	req, err := buildRequest(kind, &api)
	if err != nil {
		writeError(w, http.StatusBadRequest, err, 0)
		return
	}
	resp, err := s.Do(r.Context(), req)
	if err != nil {
		var rej *Rejection
		if errors.As(err, &rej) {
			writeError(w, http.StatusServiceUnavailable, err, rej.RetryAfter)
			return
		}
		// The wait was abandoned (client gone): nothing useful to say.
		writeError(w, http.StatusInternalServerError, err, 0)
		return
	}
	s.writeResponse(w, resp, s.cfg.now().Sub(start))
}

// writeResponse maps a Response onto the wire: partial salvages and
// degraded tables are 200s carrying their flags (the caller got a usable
// table), transient failures are 503s with Retry-After, permanent ones 422.
func (s *Server) writeResponse(w http.ResponseWriter, resp *Response, elapsed time.Duration) {
	api := apiResponse{
		Status:          "ok",
		Resilient:       resp.Resilient,
		Residual:        resp.Residual,
		ResidualUnknown: resp.ResidualUnknown,
		Retries:         resp.Retries,
		Degraded:        resp.Degraded,
		Cached:          resp.Cached,
		Deduped:         resp.Deduped,
		WarmStart:       resp.WarmStart,
		Routing:         resp.Routing,
		ElapsedMs:       elapsed.Milliseconds(),
	}
	status := http.StatusOK
	switch {
	case resp.Degraded:
		api.Status = "degraded"
	case resp.Partial && resp.Routing != nil:
		api.Status = "partial"
		api.Error = resp.Err.Error()
	case resp.Err != nil:
		api.Status = "error"
		api.Error = resp.Err.Error()
		api.Routing = nil
		switch {
		case resilience.IsPermanent(resp.Err):
			status = http.StatusUnprocessableEntity
		case IsRetryable(resp.Err):
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfterHint))
		default:
			status = http.StatusInternalServerError
		}
	}
	writeJSON(w, status, api)
}

func (s *Server) handleTopologies(w http.ResponseWriter, _ *http.Request) {
	type topo struct {
		Name  string `json:"name"`
		Nodes int    `json:"nodes"`
		Edges int    `json:"edges"`
	}
	var out []topo
	for _, inst := range topozoo.Embedded() {
		out = append(out, topo{Name: inst.Name, Nodes: inst.Net.NumNodes(), Edges: inst.Net.NumRealEdges()})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleCache reports the synthesis cache's stats — hit/miss/dedup and
// warm-start counters plus the current footprint — or 404 when the server
// runs without a cache.
func (s *Server) handleCache(w http.ResponseWriter, _ *http.Request) {
	stats, ok := s.CacheStats()
	if !ok {
		http.Error(w, "no synthesis cache configured", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, stats)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports ready only while the service can absorb new load:
// not draining, breaker closed, and the queue below its high-water mark.
// Load balancers steer traffic away on 503 before the queue hard-rejects.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	state := s.breaker.State()
	depth := s.QueueLen()
	ready := !s.isDraining() && state == retry.BreakerClosed && depth < s.cfg.HighWater
	body := map[string]any{
		"ready":     ready,
		"breaker":   state.String(),
		"queue":     depth,
		"highWater": s.cfg.HighWater,
		"draining":  s.isDraining(),
	}
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfterHint))
	}
	writeJSON(w, status, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Obs == nil {
		http.Error(w, "no observer configured", http.StatusNotFound)
		return
	}
	// Gauges are sampled at scrape time; counters tick continuously.
	s.queueDepth.Set(int64(s.QueueLen()))
	s.breakerGauge.Set(int64(s.breaker.State()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.cfg.Obs.Snapshot().WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// retryAfterSeconds renders a Retry-After header value, at least 1 second
// (the header has whole-second granularity).
func retryAfterSeconds(d time.Duration) string {
	secs := int(d.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The status line is already committed; an encode failure here means the
	// client hung up, which is not actionable.
	_ = enc.Encode(body)
}

func writeError(w http.ResponseWriter, status int, err error, retryAfter time.Duration) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
	}
	writeJSON(w, status, apiResponse{Status: "error", Error: err.Error()})
}
