// Package loadtest is a self-contained, k6-style load driver for the
// gcbench serve API: N concurrent workers replay a weighted mix of
// operations against a target — either a live base URL over TCP or an
// in-process http.Handler — and the run distills into a JSON report of
// per-route latency percentiles, status-class counts and throughput,
// with pass/fail gates (p99 ceilings, zero-5xx) for CI smoke jobs.
//
// The driver is deterministic for a given (seed, concurrency, mix):
// each worker draws its operation schedule from its own PCG stream, so
// two runs against the same build exercise the same request sequence.
// Latency percentiles are estimated from per-route reservoir samples
// (exact until a route exceeds the reservoir size, statistically sound
// beyond it), so unbounded-duration runs hold bounded memory.
package loadtest

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"encoding/json"
)

// Op is one weighted operation of the traffic mix.
type Op struct {
	// Name buckets the op's measurements in the report (e.g. "predict").
	Name string `json:"name"`
	// Weight is the op's relative frequency in the mix (≥ 1).
	Weight int `json:"weight"`
	// Method is the HTTP method (default GET).
	Method string `json:"method,omitempty"`
	// Paths are the op's request paths; each issue picks one uniformly,
	// so a route with parameter variety (several predict queries, many
	// behavior keys) exercises more than one cache line.
	Paths []string `json:"paths"`
	// Body is the JSON body sent with non-GET methods.
	Body string `json:"body,omitempty"`
}

// Config parameterizes a load run.
type Config struct {
	// Handler is an in-process target; exactly one of Handler and
	// BaseURL must be set.
	Handler http.Handler
	// BaseURL targets a live server over TCP (e.g. "http://127.0.0.1:8080").
	BaseURL string
	// Concurrency is the worker count (default 8).
	Concurrency int
	// Duration bounds the run's wall clock (default 10s; ignored when
	// Requests is set).
	Duration time.Duration
	// Requests, when > 0, bounds the run by total request count instead
	// of wall clock — the deterministic mode CI smoke jobs want.
	Requests int64
	// Seed derives every worker's operation schedule (default 1).
	Seed uint64
	// Timeout is the per-request client timeout for BaseURL targets
	// (default 30s).
	Timeout time.Duration
	// Mix is the weighted operation set; required.
	Mix []Op
	// ReservoirSize caps the per-route, per-worker latency sample pool
	// (default 20000).
	ReservoirSize int
}

// RouteStats is one route's distilled measurements.
type RouteStats struct {
	Count     int64            `json:"count"`
	Transport int64            `json:"transportErrors,omitempty"`
	Status    map[string]int64 `json:"statusClasses"`
	P50Ms     float64          `json:"p50Ms"`
	P95Ms     float64          `json:"p95Ms"`
	P99Ms     float64          `json:"p99Ms"`
	MaxMs     float64          `json:"maxMs"`
	RPS       float64          `json:"rps"`
}

// Report is the run's JSON artifact payload.
type Report struct {
	Target          string                 `json:"target"`
	Concurrency     int                    `json:"concurrency"`
	Seed            uint64                 `json:"seed"`
	DurationSeconds float64                `json:"durationSeconds"`
	Requests        int64                  `json:"requests"`
	Non2xx          int64                  `json:"non2xx"`
	Count5xx        int64                  `json:"count5xx"`
	Routes          map[string]*RouteStats `json:"routes"`
	// Extra carries harness-specific measurements (e.g. the 4×2 vs 1×1
	// design-latency comparison) into the artifact.
	Extra map[string]any `json:"extra,omitempty"`
}

// Gate is one pass/fail criterion over the report.
type Gate struct {
	// Route names the RouteStats bucket the gate applies to.
	Route string
	// MaxP99Ms fails the gate when the route's p99 exceeds it.
	MaxP99Ms float64
	// MinCount fails the gate when the route saw fewer requests — a
	// guard against a mix typo silently gating an empty bucket.
	MinCount int64
}

// opState is a worker-local accumulator for one route: counts plus an
// algorithm-R latency reservoir.
type opState struct {
	count     int64
	transport int64
	status    map[string]int64
	samples   []float64 // milliseconds
	seen      int64     // total observations offered to the reservoir
	maxMs     float64
}

// Run executes the configured load and returns its report. The context
// cancels the run early (workers finish their in-flight request).
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if (cfg.Handler == nil) == (cfg.BaseURL == "") {
		return nil, fmt.Errorf("loadtest: exactly one of Handler and BaseURL is required")
	}
	if len(cfg.Mix) == 0 {
		return nil, fmt.Errorf("loadtest: empty operation mix")
	}
	for i, op := range cfg.Mix {
		if op.Name == "" || len(op.Paths) == 0 {
			return nil, fmt.Errorf("loadtest: mix[%d] needs a name and at least one path", i)
		}
		if op.Weight < 1 {
			return nil, fmt.Errorf("loadtest: mix[%d] (%s) weight must be ≥ 1, got %d", i, op.Name, op.Weight)
		}
	}
	if cfg.Concurrency == 0 {
		cfg.Concurrency = 8
	}
	if cfg.Duration == 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.ReservoirSize == 0 {
		cfg.ReservoirSize = 20000
	}

	// Cumulative weights for O(log n) op selection.
	cum := make([]int, len(cfg.Mix))
	total := 0
	for i, op := range cfg.Mix {
		total += op.Weight
		cum[i] = total
	}

	issue := newIssuer(cfg)
	var remaining atomic.Int64
	remaining.Store(cfg.Requests) // ≤ 0 means unbounded (duration-bound)

	deadline := time.Now().Add(cfg.Duration)
	if cfg.Requests > 0 {
		// Budget-bound runs still get a generous wall-clock backstop so a
		// hung target cannot wedge the harness.
		deadline = time.Now().Add(10 * time.Minute)
	}

	states := make([]map[string]*opState, cfg.Concurrency)
	var wg sync.WaitGroup
	begin := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(cfg.Seed, uint64(w)+1))
			local := map[string]*opState{}
			states[w] = local
			for {
				if ctx.Err() != nil || time.Now().After(deadline) {
					return
				}
				if cfg.Requests > 0 && remaining.Add(-1) < 0 {
					return
				}
				// Weighted op draw, then a uniform path draw within it.
				pick := rng.IntN(total)
				oi := sort.SearchInts(cum, pick+1)
				op := cfg.Mix[oi]
				path := op.Paths[rng.IntN(len(op.Paths))]

				st := local[op.Name]
				if st == nil {
					st = &opState{status: map[string]int64{}}
					local[op.Name] = st
				}
				t0 := time.Now()
				code, err := issue(ctx, op, path)
				ms := float64(time.Since(t0).Microseconds()) / 1000
				st.count++
				if err != nil {
					st.transport++
				} else {
					st.status[statusClass(code)]++
				}
				st.observe(ms, rng, cfg.ReservoirSize)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(begin).Seconds()

	return distill(cfg, states, elapsed), nil
}

// observe records one latency into the worker-local reservoir
// (algorithm R: exact until full, uniform replacement after).
func (st *opState) observe(ms float64, rng *rand.Rand, cap int) {
	st.seen++
	if ms > st.maxMs {
		st.maxMs = ms
	}
	if len(st.samples) < cap {
		st.samples = append(st.samples, ms)
		return
	}
	if j := rng.Int64N(st.seen); j < int64(cap) {
		st.samples[j] = ms
	}
}

// newIssuer builds the request executor for the configured target.
func newIssuer(cfg Config) func(context.Context, Op, string) (int, error) {
	if cfg.Handler != nil {
		return func(ctx context.Context, op Op, path string) (int, error) {
			r := httptest.NewRequest(method(op), path, strings.NewReader(op.Body))
			if op.Body != "" {
				r.Header.Set("Content-Type", "application/json")
			}
			w := httptest.NewRecorder()
			cfg.Handler.ServeHTTP(w, r.WithContext(ctx))
			return w.Code, nil
		}
	}
	client := &http.Client{Timeout: cfg.Timeout}
	base := strings.TrimRight(cfg.BaseURL, "/")
	return func(ctx context.Context, op Op, path string) (int, error) {
		var body io.Reader
		if op.Body != "" {
			body = strings.NewReader(op.Body)
		}
		req, err := http.NewRequestWithContext(ctx, method(op), base+path, body)
		if err != nil {
			return 0, err
		}
		if op.Body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		// Drain so the transport reuses connections — a per-request
		// handshake would measure the dialer, not the server.
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		return resp.StatusCode, nil
	}
}

func method(op Op) string {
	if op.Method == "" {
		return http.MethodGet
	}
	return op.Method
}

func statusClass(code int) string {
	switch {
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	case code >= 300:
		return "3xx"
	case code >= 200:
		return "2xx"
	default:
		return "1xx"
	}
}

// distill merges the worker-local accumulators into the final report.
func distill(cfg Config, states []map[string]*opState, elapsed float64) *Report {
	rep := &Report{
		Target:          cfg.BaseURL,
		Concurrency:     cfg.Concurrency,
		Seed:            cfg.Seed,
		DurationSeconds: elapsed,
		Routes:          map[string]*RouteStats{},
	}
	if rep.Target == "" {
		rep.Target = "in-process handler"
	}
	merged := map[string]*opState{}
	for _, local := range states {
		for name, st := range local {
			m := merged[name]
			if m == nil {
				m = &opState{status: map[string]int64{}}
				merged[name] = m
			}
			m.count += st.count
			m.transport += st.transport
			for k, v := range st.status {
				m.status[k] += v
			}
			m.samples = append(m.samples, st.samples...)
			if st.maxMs > m.maxMs {
				m.maxMs = st.maxMs
			}
		}
	}
	for name, m := range merged {
		sort.Float64s(m.samples)
		rs := &RouteStats{
			Count:     m.count,
			Transport: m.transport,
			Status:    m.status,
			P50Ms:     percentile(m.samples, 0.50),
			P95Ms:     percentile(m.samples, 0.95),
			P99Ms:     percentile(m.samples, 0.99),
			MaxMs:     m.maxMs,
		}
		if elapsed > 0 {
			rs.RPS = float64(m.count) / elapsed
		}
		rep.Routes[name] = rs
		rep.Requests += m.count
		rep.Non2xx += m.count - m.status["2xx"]
		rep.Count5xx += m.status["5xx"]
	}
	return rep
}

// percentile reads the q-quantile from an ascending sample slice
// (nearest-rank).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Check evaluates the gates, returning one error describing every
// violation (nil = all pass). forbid5xx additionally fails the run when
// any response was a 5xx or a transport error — the smoke job's
// zero-tolerance criterion.
func (r *Report) Check(gates []Gate, forbid5xx bool) error {
	var fails []string
	for _, g := range gates {
		rs := r.Routes[g.Route]
		if rs == nil {
			fails = append(fails, fmt.Sprintf("route %q has no measurements", g.Route))
			continue
		}
		if g.MinCount > 0 && rs.Count < g.MinCount {
			fails = append(fails, fmt.Sprintf("route %q saw %d requests, gate needs ≥ %d", g.Route, rs.Count, g.MinCount))
		}
		if g.MaxP99Ms > 0 && rs.P99Ms > g.MaxP99Ms {
			fails = append(fails, fmt.Sprintf("route %q p99 = %.2fms exceeds gate %.2fms", g.Route, rs.P99Ms, g.MaxP99Ms))
		}
	}
	if forbid5xx {
		if r.Count5xx > 0 {
			fails = append(fails, fmt.Sprintf("%d responses were 5xx", r.Count5xx))
		}
		var transport int64
		for _, rs := range r.Routes {
			transport += rs.Transport
		}
		if transport > 0 {
			fails = append(fails, fmt.Sprintf("%d requests failed in transport", transport))
		}
	}
	if len(fails) > 0 {
		return fmt.Errorf("loadtest: %s", strings.Join(fails, "; "))
	}
	return nil
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	body, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(body, '\n'), 0o644)
}

// ServeMix is the default mixed-traffic profile against a gcbench serve
// deployment: predict-heavy reads with listing, single-record, design
// and canonical-best traffic. behaviorKeys parameterizes the
// single-record reads (pass a few real corpus keys).
func ServeMix(behaviorKeys []string) []Op {
	return ServeMixModels(behaviorKeys, nil)
}

// ServeMixModels is ServeMix with the execution-model dimension: every
// model in models (the distinct model tags the target corpus actually
// holds — discover them from /api/runs) contributes a model-filtered
// /api/runs path, so a multi-model deployment is exercised along its
// model axis without guessing at filters that would 4xx or return
// empty. Empty models is exactly ServeMix.
func ServeMixModels(behaviorKeys, models []string) []Op {
	behaviorPaths := make([]string, 0, len(behaviorKeys))
	for _, k := range behaviorKeys {
		behaviorPaths = append(behaviorPaths, "/api/behavior/"+k)
	}
	if len(behaviorPaths) == 0 {
		behaviorPaths = []string{"/api/behavior/unknown"}
	}
	runsPaths := []string{
		"/api/runs?algorithm=PR",
		"/api/runs?algorithm=CC,KC&size=1e5",
		"/api/runs?status=ok",
	}
	for _, m := range models {
		runsPaths = append(runsPaths, "/api/runs?model="+m)
	}
	return []Op{
		{Name: "predict", Weight: 5, Paths: []string{
			"/api/predict?algorithm=PR&edges=500000&alpha=2.1",
			"/api/predict?algorithm=PR&edges=1200000&alpha=1.9",
			"/api/predict?algorithm=CC&edges=800000&alpha=2.3",
			"/api/predict?algorithm=SSSP&edges=250000&alpha=2.0",
		}},
		{Name: "runs", Weight: 2, Paths: runsPaths},
		{Name: "behavior", Weight: 2, Paths: behaviorPaths},
		{Name: "design", Weight: 1, Method: http.MethodPost,
			Paths: []string{"/api/ensemble/design"}, Body: `{"n":4}`},
		{Name: "best", Weight: 1, Paths: []string{"/api/ensemble/best?n=5"}},
	}
}
