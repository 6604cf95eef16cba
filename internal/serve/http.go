package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"regexp"
	"strconv"

	"repro/internal/obs"
	"repro/internal/obs/eventlog"
)

// TenantHeader names the HTTP header carrying the submitting tenant.
const TenantHeader = "X-Scope-Tenant"

// maxScriptBytes bounds a POST /run body; larger requests get 413
// before any of the script is compiled.
const maxScriptBytes = 1 << 20

// validTenant is what an X-Scope-Tenant value must match: tenant names
// become registry series names, so the charset and length are bounded.
var validTenant = regexp.MustCompile(`^[A-Za-z0-9_-]{0,64}$`)

// RunResponse is the JSON body of a successful POST /run.
type RunResponse struct {
	Tenant string `json:"tenant,omitempty"`
	// Cost is the optimizer's estimate for the chosen plan.
	Cost float64 `json:"cost"`
	// Sharing is the run's cache counters, flattened into the body
	// under the same keys its event carries.
	eventlog.Sharing
	// Outputs digests each OUTPUT table (FNV-64a over its canonical
	// row rendering) so clients can verify results without shipping
	// full tables through the service.
	Outputs []OutputDigest `json:"outputs"`
}

// OutputDigest identifies one OUTPUT file's content.
type OutputDigest = eventlog.OutputDigest

// errResponse is the JSON body of a failed request.
type errResponse struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP mux:
//
//	POST /run     — body is the script text, X-Scope-Tenant tags it
//	GET  /metrics — Prometheus text exposition (0.0.4)
//	GET  /events  — recent flight-recorder events as JSON
//	                (?tenant= filters, ?n= bounds the count)
//	GET  /cache   — result-cache introspection: entries with benefit
//	                scores, per-owner bytes, pinned artifacts
//	GET  /healthz — 200 ok
//
// With Config.Pprof, net/http/pprof mounts under /debug/pprof/.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/cache", s.handleCache)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	if s.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("serve: POST a script to /run"))
		return
	}
	tenant := r.Header.Get(TenantHeader)
	if !validTenant.MatchString(tenant) {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: %s must match %s", TenantHeader, validTenant))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxScriptBytes))
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeErr(w, code, fmt.Errorf("serve: reading script: %w", err))
		return
	}
	rep, err := s.Submit(r.Context(), tenant, string(body))
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(RunResponse{
		Tenant:  rep.Tenant,
		Cost:    rep.Cost,
		Sharing: rep.Sharing,
		Outputs: rep.Digests,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("serve: GET /metrics"))
		return
	}
	w.Header().Set("Content-Type", obs.PromContentType)
	_ = s.reg.Snapshot().WritePrometheus(w, "scope")
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("serve: GET /events"))
		return
	}
	n := 0
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			writeErr(w, http.StatusBadRequest, errors.New("serve: n must be a non-negative integer"))
			return
		}
		n = v
	}
	events := s.events.Recent(r.URL.Query().Get("tenant"), n)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(events)
}

func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("serve: GET /cache"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.sess.Cache().Describe())
}

// statusFor maps service errors onto HTTP statuses: backpressure is
// 429, shutdown 503, timeout/cancellation 504, parse errors 400, and
// anything else 500.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShutdown):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case isParseErr(err):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// isParseErr reports whether err came from script compilation rather
// than execution; those are the client's fault.
func isParseErr(err error) bool {
	var pe *ParseError
	return errors.As(err, &pe)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errResponse{Error: err.Error()})
}
