// Package serve is the ensemble-design-as-a-service layer: a JSON HTTP
// API over a hot-reloadable behavior corpus held by a shard cluster
// (internal/shard; a single node is its 1×1 deployment), engineered for
// concurrent load.
//
//	GET  /api/runs             filterable corpus listing
//	GET  /api/behavior/{key}   one run's full behavior record
//	POST /api/ensemble/design  design an ensemble under pool restrictions
//	GET  /api/ensemble/best    canonical best ensemble for (n, metric)
//	GET  /api/predict          §7 behavior interpolation
//	GET  /api/corpus           corpus snapshot metadata
//	POST /api/corpus/reload    hot-swap the corpus from its source file
//
// plus the shared observability surface (/metrics, /statusz, /healthz,
// /debug/pprof/*, /debug/vars) registered via obs.RegisterRoutes.
//
// Concurrency engineering, in request order: an LRU response cache keyed
// by canonicalized request (byte-identical replays), singleflight
// coalescing of identical in-flight design searches, a bounded worker
// pool whose admission queue sheds excess load with 429 + Retry-After,
// and per-request deadlines plumbed as context.Context into the ensemble
// search loops so an expired request aborts within one search step. The
// 10^6-sample Monte-Carlo coverage estimator is built once, lazily, and
// shared by every request. The package is handler-only: Handler is the
// server's surface, and the caller owns the listener and its shutdown.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gcbench/internal/ensemble"
	"gcbench/internal/flight"
	"gcbench/internal/jobs"
	"gcbench/internal/obs"
	"gcbench/internal/obs/otrace"
	"gcbench/internal/shard"
)

// Config parameterizes a Server.
type Config struct {
	// Cluster is the corpus backend (required): listings and design
	// candidate selection scatter-gather across its shards, single-record
	// reads route to the key's owning shard, and completed campaign runs
	// hot-publish to only the shards that own them. A single-node
	// deployment is the 1-shard × 1-replica cluster. Responses are
	// bit-identical for any shard/replica count and transport — the
	// cluster's merged view is built through the internal/corpus
	// constructors (see internal/shard).
	Cluster *shard.Cluster
	// Samples sizes the shared Monte-Carlo coverage estimator
	// (default ensemble.DefaultSamples, the paper's 10^6). Its seed is
	// sampleSeed.
	Samples int
	// Workers bounds concurrent ensemble searches (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds design requests waiting for a worker before the
	// server sheds load with 429 (default 64).
	QueueDepth int
	// RequestTimeout is the per-request deadline plumbed into search
	// loops (default 30s).
	RequestTimeout time.Duration
	// CacheSize bounds the design-response LRU (default 256 entries).
	CacheSize int
	// Registry receives the gcbench_serve_* metrics (default obs.Default()).
	Registry *obs.Registry
	// Jobs, when non-nil, enables the asynchronous campaign API
	// (POST /api/campaigns, GET /api/jobs[/{id}[/events]],
	// DELETE /api/jobs/{id}) over this manager. The server installs
	// itself as the manager's publish sink: a completed job's runs are
	// appended to Cluster (renormalized corpus-wide), so new runs are
	// servable without a restart.
	Jobs *jobs.Manager
	// Traces, when non-nil, enables request-scoped tracing: every request
	// parses/generates a W3C traceparent, opens a root span in this store,
	// and the span context propagates through singleflight, the worker
	// pool, the jobs manager and the sweep runner. The store is also
	// served at /debug/traces. Nil keeps the request path exactly as
	// untraced — behavior must be bit-identical either way.
	Traces *otrace.Store
	// AccessLog, when non-nil, receives one structured "wide event" per
	// request: trace id, route, status, cache disposition, queue wait,
	// bytes and duration on a single line.
	AccessLog *slog.Logger
}

// Server is the ensemble-design API server. Construct with New; the
// zero value is not usable.
type Server struct {
	cfg     Config
	cluster *shard.Cluster
	reg     *obs.Registry

	covOnce sync.Once
	cov     *ensemble.CoverageEstimator
	covErr  error

	cache  *lruCache
	frags  atomic.Pointer[fragTable] // /api/runs record fragments of the current view
	flight flight.Group[[]byte]
	pool   *workPool

	mux     *http.ServeMux
	handler http.Handler
	start   time.Time

	// searches counts underlying ensemble searches executed (not
	// coalesced, not cached) — the concurrency tests' ground truth.
	searches atomic.Int64
	// searchDelay is a test hook: extra latency inside the worker slot,
	// honoring cancellation, to make queue saturation reproducible.
	searchDelay time.Duration
	// jobsHeartbeat is the NDJSON event-stream keepalive interval; tests
	// shorten it.
	jobsHeartbeat time.Duration

	mRequests  *obs.Counter
	mLatency   *obs.Histogram
	mRouteLat  *obs.HistogramVec
	mDesignLat *obs.Histogram
	mCacheHit  *obs.Counter
	mCacheMiss *obs.Counter
	mCoalesced *obs.Counter
	mShed      *obs.Counter
	mErrors    *obs.Counter
	mSearches  *obs.Counter
	mReloads   *obs.Counter
	mPublishes *obs.Counter
}

// sampleSeed seeds the coverage estimator, matching the figures
// pipeline so served scores agree with `gcbench figures`.
const sampleSeed = 0x5eed

// latencyBuckets spans sub-millisecond cache hits to multi-second cold
// coverage searches.
var latencyBuckets = []float64{.0005, .001, .005, .01, .05, .1, .5, 1, 5, 10, 30, 60}

// routeLatencyBuckets additionally resolves the microsecond regime —
// 5µs to 500µs — where cache hits and trivial GETs actually land; one
// coarse 500µs bucket would flatten a 10× cache-hit regression into
// nothing. The upper tail still covers cold coverage searches.
var routeLatencyBuckets = []float64{
	5e-6, 10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	.001, .005, .025, .1, .5, 1, 5, 30,
}

// New builds a Server from cfg, applying defaults. The coverage
// estimator is not built here — the first coverage-metric request pays
// that cost once, and spread-only deployments never do.
func New(cfg Config) (*Server, error) {
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("serve: Config.Cluster is required")
	}
	if cfg.Samples == 0 {
		cfg.Samples = ensemble.DefaultSamples
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 256
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default()
	}
	reg := cfg.Registry
	s := &Server{
		cfg:           cfg,
		cluster:       cfg.Cluster,
		reg:           reg,
		cache:         newLRUCache(cfg.CacheSize),
		pool:          newWorkPool(cfg.Workers, cfg.QueueDepth, reg),
		start:         time.Now(),
		jobsHeartbeat: 15 * time.Second,

		mRequests: reg.Counter("gcbench_serve_requests_total", "API requests served."),
		mLatency: reg.Histogram("gcbench_serve_request_seconds",
			"API request latency in seconds, middleware included.", latencyBuckets),
		mRouteLat: reg.HistogramVec("gcbench_serve_route_seconds",
			"Handler latency in seconds by route pattern and status class.",
			[]string{"route", "code"}, routeLatencyBuckets),
		mDesignLat: reg.Histogram("gcbench_serve_design_seconds",
			"Underlying ensemble-search latency in seconds (cache misses only).", latencyBuckets),
		mCacheHit:  reg.Counter("gcbench_serve_cache_hits_total", "Design responses served from the LRU cache."),
		mCacheMiss: reg.Counter("gcbench_serve_cache_misses_total", "Design requests that missed the LRU cache."),
		mCoalesced: reg.Counter("gcbench_serve_coalesced_total", "Design requests coalesced onto an identical in-flight search."),
		mShed:      reg.Counter("gcbench_serve_shed_total", "Design requests shed with 429 because the queue was full."),
		mErrors:    reg.Counter("gcbench_serve_errors_total", "API responses with a 5xx status."),
		mSearches:  reg.Counter("gcbench_serve_searches_total", "Underlying ensemble searches executed."),
		mReloads:   reg.Counter("gcbench_serve_corpus_reloads_total", "Corpus hot-reloads."),
		mPublishes: reg.Counter("gcbench_serve_job_publishes_total", "Completed jobs whose runs were appended to the live corpus."),
	}

	// The mux is the route table: each API pattern is registered once,
	// without a method, and its methods value dispatches (or answers 405).
	mux := http.NewServeMux()
	s.mux = mux
	mux.Handle("/api/runs", methods{http.MethodGet: s.handleRuns})
	mux.Handle("/api/behavior/{key}", methods{http.MethodGet: s.handleBehavior})
	mux.Handle("/api/ensemble/design", methods{http.MethodPost: s.handleDesign})
	mux.Handle("/api/ensemble/best", methods{http.MethodGet: s.handleBest})
	mux.Handle("/api/predict", methods{http.MethodGet: s.handlePredict})
	mux.Handle("/api/corpus", methods{http.MethodGet: s.handleCorpusInfo})
	mux.Handle("/api/corpus/reload", methods{http.MethodPost: s.handleReload})
	if cfg.Jobs != nil {
		mux.Handle("/api/campaigns", methods{http.MethodPost: s.handleSubmitCampaign})
		mux.Handle("/api/jobs", methods{http.MethodGet: s.handleJobs})
		mux.Handle("/api/jobs/{id}", methods{http.MethodGet: s.handleJob, http.MethodDelete: s.handleJobCancel})
		mux.Handle(eventStreamRoute, methods{http.MethodGet: s.handleJobEvents})
		cfg.Jobs.SetPublish(s.publishRuns)
	}
	// Anything else under /api/ is an unknown path: 404 with the same
	// structured JSON error envelope as every other API failure.
	mux.HandleFunc(unknownAPIRoute, func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "not_found", "no API route matches %s", r.URL.Path)
	})
	obs.RegisterRoutes(mux, obs.ServerOptions{
		Registry: reg,
		Status:   func() any { return s.Status() },
		Ready:    s.readiness,
		Traces:   cfg.Traces,
	})
	s.handler = s.instrument(mux)
	return s, nil
}

// currentView loads the cluster's current global view once, for the
// caller to use for a whole request so a concurrent publish never gives
// one request two corpus versions. False means nothing is published yet
// (a cluster before its initial Load).
func (s *Server) currentView() (*shard.View, bool) {
	view := s.cluster.View()
	return view, view != nil
}

// readiness backs /readyz: ready only when every shard has published at
// least one corpus version and every replica is reachable — before
// that, scattered queries would fail on the unpublished shards, so the
// probe keeps traffic away instead of letting it 5xx.
func (s *Server) readiness() (bool, any) {
	ready, infos := s.cluster.Ready(context.Background())
	return ready, map[string]any{"shards": infos}
}

// estimator returns the shared coverage estimator, building it on first
// use (one Monte-Carlo sample pool for the whole process lifetime).
func (s *Server) estimator() (*ensemble.CoverageEstimator, error) {
	s.covOnce.Do(func() {
		s.cov, s.covErr = ensemble.NewCoverageEstimator(s.cfg.Samples, sampleSeed)
	})
	return s.cov, s.covErr
}

// Handler returns the server's full HTTP handler (API + observability
// routes) — its one surface, served by a caller-owned listener or by
// httptest.
func (s *Server) Handler() http.Handler { return s.handler }

// statusRecorder captures the response status and byte count for
// metrics, the access log and the root span.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// Unwrap exposes the underlying writer so http.ResponseController can
// reach Flush for the NDJSON event streams.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// instrument wraps the mux with request accounting, the per-request
// deadline every downstream search loop inherits, and — when tracing is
// enabled — the request's root span plus one wide-event access-log line.
// Job event streams are exempt from the deadline: they live until the
// job ends or the client disconnects, not until an arbitrary timeout.
//
// Tracing and logging only ever observe the request; with Traces and
// AccessLog nil the handler chain behaves bit-identically to the
// uninstrumented server.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived := time.Now()
		ctx := r.Context()
		route := s.routeLabel(r)
		if route != eventStreamRoute {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		var (
			ri   *reqInfo
			tr   *otrace.Trace
			root *otrace.Span
		)
		if s.cfg.Traces != nil || s.cfg.AccessLog != nil {
			ctx, ri = withReqInfo(ctx)
		}
		if s.cfg.Traces != nil {
			// Honor an inbound W3C traceparent so the request joins its
			// caller's trace; a missing or malformed header starts a fresh
			// one. The remote parent id is recorded on the root span without
			// pretending the remote span is locally known.
			tid, parent, _, err := otrace.ParseTraceparent(r.Header.Get("traceparent"))
			if err != nil {
				tid, parent = otrace.TraceID{}, otrace.SpanID{}
			}
			tr, root = s.cfg.Traces.StartTrace(r.Method+" "+route, "server", tid, parent,
				otrace.String("route", route),
				otrace.String("method", r.Method),
				otrace.String("path", r.URL.Path))
			ctx = otrace.ContextWithSpan(ctx, root)
			// Echo the request's trace identity so clients can fetch
			// /debug/traces/{trace-id} for exactly this request.
			w.Header().Set("traceparent", root.Traceparent())
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		begin := time.Now()
		next.ServeHTTP(rec, r.WithContext(ctx))
		dur := time.Since(begin)

		s.mRequests.Inc()
		s.mRouteLat.With(route, statusClass(rec.status)).Observe(dur.Seconds())
		if rec.status >= 500 {
			s.mErrors.Inc()
		}

		cacheTag := ri.cacheTag()
		var queueWait time.Duration
		if ri != nil {
			queueWait = time.Duration(ri.queueWait.Load())
		}
		if root != nil {
			root.SetAttr("status", rec.status)
			root.SetAttr("bytes", rec.bytes)
			if cacheTag != "" {
				root.SetAttr("cache", cacheTag)
			}
			if queueWait > 0 {
				root.SetAttr("queueWaitMs", float64(queueWait.Microseconds())/1000)
			}
			if rec.status >= 500 {
				root.Fail(fmt.Sprintf("HTTP %d", rec.status))
			} else if rec.status == http.StatusTooManyRequests {
				// Shed requests are exactly the traces worth keeping when
				// debugging saturation; protect them from tail eviction.
				root.SetAttr("shed", true)
				tr.Mark()
			}
			root.End()
		}
		if s.cfg.AccessLog != nil {
			attrs := []slog.Attr{
				slog.String("method", r.Method),
				slog.String("route", route),
				slog.String("path", r.URL.Path),
				slog.Int("status", rec.status),
				slog.Int64("bytes", rec.bytes),
				slog.Duration("duration", dur),
				slog.String("remote", r.RemoteAddr),
			}
			if root != nil {
				attrs = append(attrs, slog.String("trace_id", root.TraceID().String()))
			}
			if cacheTag != "" {
				attrs = append(attrs, slog.String("cache", cacheTag))
			}
			if queueWait > 0 {
				attrs = append(attrs, slog.Duration("queue_wait", queueWait))
			}
			s.cfg.AccessLog.LogAttrs(ctx, slog.LevelInfo, "request", attrs...)
		}
		// The whole request, this middleware included: request_seconds −
		// route_seconds is what tracing and the access log cost.
		s.mLatency.Observe(time.Since(arrived).Seconds())
	})
}

// Status is the /statusz payload: a cheap point-in-time snapshot of the
// serving state.
func (s *Server) Status() map[string]any {
	st := map[string]any{
		"service":       "gcbench-serve",
		"uptimeSeconds": time.Since(s.start).Seconds(),
		"cacheEntries":  s.cache.Len(),
		"designPending": s.pool.Pending(),
		"workers":       s.cfg.Workers,
		"queueDepth":    s.cfg.QueueDepth,
		"searches":      s.searches.Load(),
	}
	sh := map[string]any{
		"count":    s.cluster.Shards(),
		"replicas": s.cluster.Replicas(),
	}
	st["shards"] = sh
	if view, ok := s.currentView(); ok {
		snap := view.Merged
		st["corpusVersion"] = snap.Version
		st["corpusSource"] = snap.Source
		st["records"] = len(snap.Records)
		st["okRuns"] = snap.OKCount()
		st["poolSize"] = snap.PoolSize()
		sh["versionVector"] = view.VVString()
		sh["normEpoch"] = view.NormEpoch
	}
	if s.cfg.Jobs != nil {
		byState := map[jobs.State]int{}
		for _, js := range s.cfg.Jobs.List() {
			byState[js.State]++
		}
		st["jobs"] = byState
	}
	return st
}

// Searches returns how many underlying ensemble searches have executed —
// exposed for tests asserting singleflight and cache behavior.
func (s *Server) Searches() int64 { return s.searches.Load() }

// apiError is the structured error body every non-2xx API response
// carries.
type apiError struct {
	Error apiErrorBody `json:"error"`
}

type apiErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// writeError emits a structured JSON error with the given status.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(apiError{Error: apiErrorBody{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

// maxRequestBody bounds the JSON bodies of POST /api/ensemble/design and
// POST /api/campaigns. Both are a handful of scalars and short lists; a
// megabyte is orders of magnitude above any legitimate request.
const maxRequestBody = 1 << 20

// decodeBody decodes a request's JSON body into v, reading at most
// maxRequestBody bytes and rejecting unknown fields. On failure it
// answers 413 (over the bound) or 400 itself and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
			"request body exceeds %d bytes", tooLarge.Limit)
	case err != nil:
		writeError(w, http.StatusBadRequest, "invalid_request", "decoding body: %v", err)
	}
	return err == nil
}

// writeJSON emits v as indented JSON (indented so golden files and curl
// output stay human-readable).
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding_failed", "encoding response: %v", err)
		return
	}
	writeBody(w, status, append(body, '\n'))
}

// appendEnvelope opens a body assembled from already-rendered fragments
// (/api/runs, /api/behavior) the way writeJSON lays out a map: the
// handler appends each further member as ",\n " + name + value, in key
// order, then "\n}\n", and hands the buffer to writeBody.
func appendEnvelope(buf []byte, corpusVersion int64) []byte {
	return strconv.AppendInt(append(buf, "{\n \"corpusVersion\": "...), corpusVersion, 10)
}

func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// jsonSafe clamps NaN/Inf to JSON-encodable values (coverage is +Inf in
// the degenerate all-samples-on-members case; JSON has no Inf literal).
func jsonSafe(f float64) float64 {
	switch {
	case math.IsNaN(f):
		return 0
	case math.IsInf(f, 1):
		return math.MaxFloat64
	case math.IsInf(f, -1):
		return -math.MaxFloat64
	}
	return f
}
