package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"

	"gcbench/internal/obs/otrace"
)

// ServerOptions configures RegisterRoutes.
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

// RegisterRoutes registers the observability endpoints on a
// caller-supplied mux — the package's one entry point, shared by the
// sweep campaign's -listen surface and the `gcbench serve` API:
//
//	/metrics       Prometheus text-format metric exposition
//	/statusz       live JSON status (campaign progress when attached)
//	/healthz       liveness probe ("ok")
//	/readyz        readiness probe (503 until ServerOptions.Ready says yes)
//	/debug/pprof/  the standard net/http/pprof profile handlers
//	/debug/vars    expvar (runtime memstats + the gcbench metric bridge)
//	/debug/traces  the request-trace store, when ServerOptions.Traces is set
//
// The caller owns the listener and its shutdown.
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
