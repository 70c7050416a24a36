package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"gcbench/internal/obs/otrace"
)

// ServerOptions configures StartServer.
type ServerOptions struct {
	// Registry backs /metrics; nil means Default().
	Registry *Registry
	// Status, when non-nil, provides the /statusz payload. The returned
	// value is JSON-encoded on every request, so it should be a cheap
	// snapshot, not a live structure.
	Status func() any
	// Ready, when non-nil, backs /readyz: it reports whether the service
	// is ready to serve plus a JSON diagnostic detail (may be nil).
	// Readiness is deliberately separate from /healthz liveness — a
	// process can be alive (don't restart it) while still warming up
	// (don't route traffic to it), e.g. a shard tier before every shard
	// has published its first corpus version. Nil means "ready as soon as
	// the process serves HTTP", preserving the old conflated behavior.
	Ready func() (bool, any)
	// Traces, when non-nil, additionally serves the request-trace store
	// at /debug/traces and /debug/traces/{id}.
	Traces *otrace.Store
}

// Server is a running observability HTTP server. It serves:
//
//	/metrics       Prometheus text-format metric exposition
//	/statusz       live JSON status (campaign progress when attached)
//	/healthz       liveness probe ("ok")
//	/readyz        readiness probe (503 until ServerOptions.Ready says yes)
//	/debug/pprof/  the standard net/http/pprof profile handlers
//	/debug/vars    expvar (runtime memstats + the gcbench metric bridge)
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// RegisterRoutes registers the observability endpoints — /metrics,
// /statusz, /healthz, /readyz, /debug/vars and /debug/pprof/* — on a
// caller-supplied mux, so servers that add their own routes (the sweep
// campaign's -listen surface, the `gcbench serve` API) share one route
// implementation instead of duplicating it.
func RegisterRoutes(mux *http.ServeMux, opts ServerOptions) {
	reg := opts.Registry
	if reg == nil {
		reg = Default()
	}
	PublishExpvar()

	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		ready, detail := true, any(nil)
		if opts.Ready != nil {
			ready, detail = opts.Ready()
		}
		status := http.StatusOK
		if !ready {
			status = http.StatusServiceUnavailable
		}
		payload := map[string]any{"ready": ready}
		if detail != nil {
			payload["detail"] = detail
		}
		writeJSON(w, status, payload)
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
		var payload any = map[string]string{"status": "idle"}
		if opts.Status != nil {
			payload = opts.Status()
		}
		writeJSON(w, http.StatusOK, payload)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	if opts.Traces != nil {
		RegisterTraceRoutes(mux, opts.Traces)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// writeJSON answers with v as indented JSON; a value that does not
// encode becomes a 500 instead of a truncated body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n'))
}

// StartServer listens on addr (host:port; ":0" picks a free port) and
// serves the observability endpoints until Close. It returns once the
// listener is bound, so Addr is immediately usable.
func StartServer(addr string, opts ServerOptions) (*Server, error) {
	mux := http.NewServeMux()
	RegisterRoutes(mux, opts)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{
		ln: ln,
		srv: &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 10 * time.Second,
		},
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close stops the server immediately. In-flight pprof profile captures
// are cut off rather than awaited — campaign shutdown must not block on
// a 30-second CPU profile.
func (s *Server) Close() error { return s.srv.Close() }
