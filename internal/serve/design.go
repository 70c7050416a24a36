package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"gcbench/internal/algorithms"
	"gcbench/internal/behavior"
	"gcbench/internal/corpus"
	"gcbench/internal/ensemble"
	"gcbench/internal/model"
	"gcbench/internal/obs/otrace"
	"gcbench/internal/shard"
)

// errInvalid tags client mistakes so the HTTP layer maps them to 400
// with a structured body instead of a 500.
type errInvalid struct{ msg string }

func (e errInvalid) Error() string { return e.msg }

func errInvalidf(format string, args ...any) error {
	return errInvalid{msg: fmt.Sprintf(format, args...)}
}

// designRequest is the POST /api/ensemble/design body.
type designRequest struct {
	// N is the ensemble size to design.
	N int `json:"n"`
	// Metric is "spread" (default) or "coverage".
	Metric string `json:"metric"`
	// Method is "greedy" (default), "exchange", "anneal" or "beam".
	Method string `json:"method"`
	// Pool restricts the candidate pool (empty = the full §5.2 pool).
	Pool designPool `json:"pool"`
	// Seed selects the annealing proposal stream (default 1; ignored by
	// deterministic methods).
	Seed uint64 `json:"seed"`
	// Steps overrides the annealing step budget (0 = method default;
	// ignored by other methods).
	Steps int `json:"steps"`
}

// designPool mirrors the paper's §5.2–5.4 pool restrictions, extended
// with the execution-model axis (empty = design across all models).
type designPool struct {
	Algorithms []string  `json:"algorithms"`
	Sizes      []string  `json:"sizes"`
	Alphas     []float64 `json:"alphas"`
	Models     []string  `json:"models"`
}

// normalize validates the request, applies defaults, and sorts/dedups
// the pool restrictions so equivalent requests canonicalize identically.
func (req *designRequest) normalize() error {
	if req.N < 1 {
		return errInvalidf("n must be ≥ 1, got %d", req.N)
	}
	req.Metric = strings.ToLower(strings.TrimSpace(req.Metric))
	if req.Metric == "" {
		req.Metric = "spread"
	}
	if req.Metric != "spread" && req.Metric != "coverage" {
		return errInvalidf("metric must be \"spread\" or \"coverage\", got %q", req.Metric)
	}
	req.Method = strings.ToLower(strings.TrimSpace(req.Method))
	if req.Method == "" {
		req.Method = "greedy"
	}
	switch req.Method {
	case "greedy", "exchange", "anneal", "beam":
	default:
		return errInvalidf("method must be one of greedy, exchange, anneal, beam; got %q", req.Method)
	}
	if req.Method == "beam" && req.Metric == "coverage" {
		return errInvalidf("method \"beam\" supports metric \"spread\" only (coverage scoring of every beam partial is a full Monte-Carlo pass)")
	}
	if req.Method == "anneal" && req.Metric == "spread" && req.N < 2 {
		return errInvalidf("annealed spread needs n ≥ 2, got %d", req.N)
	}
	if req.Method != "anneal" {
		// Seed and Steps only influence annealing; zero them so the
		// canonical cache key treats them as absent.
		req.Seed, req.Steps = 0, 0
	} else if req.Seed == 0 {
		req.Seed = 1
	}
	if req.Steps < 0 {
		return errInvalidf("steps must be ≥ 0, got %d", req.Steps)
	}
	for i, a := range req.Pool.Algorithms {
		name, err := algorithms.Parse(a)
		if err != nil {
			return errInvalidf("pool.algorithms: %v", err)
		}
		req.Pool.Algorithms[i] = string(name)
	}
	req.Pool.Algorithms = dedupStrings(req.Pool.Algorithms)
	for i, sz := range req.Pool.Sizes {
		req.Pool.Sizes[i] = strings.TrimSpace(sz)
	}
	req.Pool.Sizes = dedupStrings(req.Pool.Sizes)
	sort.Float64s(req.Pool.Alphas)
	req.Pool.Alphas = slices.Compact(req.Pool.Alphas)
	for i, m := range req.Pool.Models {
		name, err := model.Parse(strings.TrimSpace(m))
		if err != nil {
			return errInvalidf("pool.models: %v", err)
		}
		req.Pool.Models[i] = string(name)
	}
	req.Pool.Models = dedupStrings(req.Pool.Models)
	return nil
}

func dedupStrings(in []string) []string {
	sort.Strings(in)
	out := in[:0]
	for i, s := range in {
		if i == 0 || s != in[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// cacheKey renders the canonical request identity. The view's shard
// version vector prefixes the key, so a publish naturally invalidates
// every cached design whose inputs could have changed without racing
// in-flight requests on the old view, and a restarted shard's rehydrate
// (which advances only the vector, not the epoch) retires the dead
// process's entries.
func (req *designRequest) cacheKey(view *shard.View) string {
	alphas := make([]string, len(req.Pool.Alphas))
	for i, a := range req.Pool.Alphas {
		alphas[i] = strconv.FormatFloat(a, 'g', -1, 64)
	}
	return fmt.Sprintf("vv%s|metric=%s|method=%s|n=%d|seed=%d|steps=%d|algs=%s|sizes=%s|alphas=%s|models=%s",
		view.VVString(), req.Metric, req.Method, req.N, req.Seed, req.Steps,
		strings.Join(req.Pool.Algorithms, ","),
		strings.Join(req.Pool.Sizes, ","),
		strings.Join(alphas, ","),
		strings.Join(req.Pool.Models, ","))
}

func (req *designRequest) filter() corpus.Filter {
	return corpus.Filter{
		Algorithms: req.Pool.Algorithms,
		Sizes:      req.Pool.Sizes,
		Alphas:     req.Pool.Alphas,
		Models:     req.Pool.Models,
	}
}

// designResponse is the (cached) design result body.
type designResponse struct {
	CorpusVersion int64        `json:"corpusVersion"`
	N             int          `json:"n"`
	Metric        string       `json:"metric"`
	Method        string       `json:"method"`
	PoolSize      int          `json:"poolSize"`
	Score         float64      `json:"score"`
	Members       []runSummary `json:"members"`
}

// handleDesign serves POST /api/ensemble/design.
func (s *Server) handleDesign(w http.ResponseWriter, r *http.Request) {
	var req designRequest
	if !decodeBody(w, r, &req) {
		return
	}
	s.serveDesign(w, r, &req)
}

// handleBest serves GET /api/ensemble/best: the canonical best ensemble
// of size n under a metric over the unrestricted pool — a design request
// with defaults, sharing the same cache and worker pool.
func (s *Server) handleBest(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	req := designRequest{N: 10, Metric: q.Get("metric"), Method: q.Get("method")}
	if nStr := q.Get("n"); nStr != "" {
		n, err := strconv.Atoi(nStr)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid_request", "n %q is not an integer", nStr)
			return
		}
		req.N = n
	}
	s.serveDesign(w, r, &req)
}

// serveDesign is the shared cache → scatter → singleflight →
// worker-pool → search path behind both design endpoints. The cache is
// consulted first — its key is the canonical request plus the version
// vector, and only successful designs are ever stored — so a cached
// design costs no fan-out. On a miss the candidate pool is assembled by
// scatter-gather: each shard contributes the matching pool members from
// its own partition, and the merge maps them back to the merged view's
// pool indices.
func (s *Server) serveDesign(w http.ResponseWriter, r *http.Request, req *designRequest) {
	if err := req.normalize(); err != nil {
		writeError(w, http.StatusBadRequest, "invalid_request", "%v", err)
		return
	}
	view, ok := s.currentCorpus(w)
	if !ok {
		return
	}
	snap := view.Merged
	key := req.cacheKey(view)
	if body, ok := s.cache.Get(key); ok {
		s.mCacheHit.Inc()
		reqInfoFrom(r.Context()).setCache("hit")
		s.writeDesignBody(w, body, "hit")
		return
	}

	seqs, err := s.cluster.Scatter(r.Context(), req.filter(), true)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "shard_unavailable", "%v", err)
		return
	}
	var poolIdx []int
	for _, seq := range clampSeqs(seqs, len(snap.Records)) {
		if pi := view.PoolIndexOfSeq(seq); pi >= 0 {
			poolIdx = append(poolIdx, pi)
		}
	}
	if len(poolIdx) == 0 {
		writeError(w, http.StatusBadRequest, "empty_pool",
			"no measured graph-varying runs match the pool restriction")
		return
	}
	if req.N > len(poolIdx) {
		writeError(w, http.StatusBadRequest, "invalid_request",
			"n = %d exceeds the restricted pool's %d runs", req.N, len(poolIdx))
		return
	}
	s.mCacheMiss.Inc()

	ctx := r.Context()
	body, err, coalesced := s.flight.Do(ctx, key, func() ([]byte, error) {
		// Re-check the cache as the flight leader: a request that missed
		// the cache but reached the flight group just after the previous
		// leader unregistered would otherwise repeat the search. The
		// previous leader cached its result before unregistering, so this
		// read observes it.
		if body, ok := s.cache.Get(key); ok {
			return body, nil
		}
		return s.runDesign(ctx, snap, req, poolIdx, key)
	})
	if coalesced {
		s.mCoalesced.Inc()
	}
	if err != nil {
		s.writeDesignError(w, err)
		return
	}
	tag := "miss"
	if coalesced {
		tag = "coalesced"
	}
	reqInfoFrom(ctx).setCache(tag)
	s.writeDesignBody(w, body, tag)
}

func (s *Server) writeDesignBody(w http.ResponseWriter, body []byte, cacheTag string) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("X-Cache", cacheTag)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// retryAfterJitter renders a Retry-After value drawn uniformly from
// [base, 2*base] whole seconds. A constant Retry-After re-synchronizes
// every client a shed burst turned away, so the same thundering herd
// arrives again one constant interval later; the jitter spreads the
// retries across a window as wide as the base delay.
func retryAfterJitter(base int) string {
	return strconv.Itoa(base + rand.IntN(base+1))
}

func (s *Server) writeDesignError(w http.ResponseWriter, err error) {
	var inv errInvalid
	switch {
	case errors.Is(err, errSaturated):
		s.mShed.Inc()
		w.Header().Set("Retry-After", retryAfterJitter(1))
		writeError(w, http.StatusTooManyRequests, "saturated",
			"design queue is full; retry shortly")
	case errors.Is(err, context.DeadlineExceeded):
		// Jittered for the same herd-desynchronization reason as the 429
		// sites: every request sharing the expired deadline fails within
		// the same instant, and a constant hint would march them all back
		// in lockstep.
		w.Header().Set("Retry-After", retryAfterJitter(1))
		writeError(w, http.StatusServiceUnavailable, "deadline_exceeded",
			"design search exceeded the request deadline")
	case errors.Is(err, context.Canceled):
		// The client has gone; the status is best-effort bookkeeping.
		writeError(w, http.StatusServiceUnavailable, "cancelled", "request cancelled")
	case errors.As(err, &inv):
		writeError(w, http.StatusBadRequest, "invalid_request", "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "search_failed", "%v", err)
	}
}

// runDesign executes one underlying ensemble search inside a bounded
// worker slot and caches the marshaled response before returning, so a
// request arriving after singleflight unregisters the key still finds
// the result.
func (s *Server) runDesign(ctx context.Context, snap *corpus.Snapshot, req *designRequest, poolIdx []int, key string) (_ []byte, err error) {
	// The search span covers queue wait plus the search itself. With
	// tracing off (no span in ctx) StartSpan returns a nil span whose
	// methods no-op, so the untraced path is unchanged.
	ctx, sp := otrace.StartSpan(ctx, "ensemble search", "search",
		otrace.String("metric", req.Metric),
		otrace.String("method", req.Method),
		otrace.Int("n", req.N),
		otrace.Int("pool", len(poolIdx)))
	defer func() {
		if err != nil {
			sp.Fail(err.Error())
		}
		sp.End()
	}()
	if err := s.pool.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.pool.release()
	s.searches.Add(1)
	s.mSearches.Inc()
	begin := time.Now()
	defer func() { s.mDesignLat.Observe(time.Since(begin).Seconds()) }()

	if s.searchDelay > 0 {
		select {
		case <-time.After(s.searchDelay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	members, score, err := s.search(ctx, snap, req, poolIdx)
	if err != nil {
		return nil, err
	}

	resp := designResponse{
		CorpusVersion: snap.Version,
		N:             req.N,
		Metric:        req.Metric,
		Method:        req.Method,
		PoolSize:      len(poolIdx),
		Score:         jsonSafe(score),
	}
	resp.Members = make([]runSummary, 0, len(members))
	for _, pi := range members {
		rec := snap.PoolRecord(pi)
		if i, ok := snap.Lookup(rec.Key); ok {
			resp.Members = append(resp.Members, summarize(snap, i))
		}
	}
	body, err := json.MarshalIndent(resp, "", " ")
	if err != nil {
		return nil, err
	}
	body = append(body, '\n')
	s.cache.Put(key, body)
	return body, nil
}

// search runs the requested method/metric combination over the
// restricted pool, honoring ctx, and returns the chosen pool indices
// plus the ensemble's score under the requested metric.
func (s *Server) search(ctx context.Context, snap *corpus.Snapshot, req *designRequest, poolIdx []int) ([]int, float64, error) {
	pts := snap.Pool.Points
	var members []int
	var err error
	// "exchange" is greedy followed by one more exchange refinement.
	switch req.Metric {
	case "spread":
		switch req.Method {
		case "greedy", "exchange":
			var sets [][]int
			if sets, err = ensemble.BestSpreadGreedyCtx(ctx, pts, poolIdx, req.N); err != nil {
				return nil, 0, err
			}
			members = sets[req.N]
			if req.Method == "exchange" {
				members, err = ensemble.ImproveSpreadExchangeCtx(ctx, pts, members, poolIdx)
			}
		case "anneal":
			members, _, err = ensemble.AnnealSpreadCtx(ctx, pts, poolIdx, ensemble.AnnealOptions{
				Size: req.N, Steps: req.Steps, Seed: req.Seed,
			})
		case "beam":
			var tops []ensemble.Scored
			if tops, err = ensemble.TopEnsemblesCtx(ctx, ensemble.MetricSpread, pts, poolIdx, ensemble.TopKOptions{
				Size: req.N, K: 1,
			}); err != nil {
				return nil, 0, err
			}
			if len(tops) == 0 {
				return nil, 0, fmt.Errorf("beam search returned no ensemble")
			}
			members = tops[0].Members
		}
		if err != nil {
			return nil, 0, err
		}
		return members, ensemble.SpreadOf(pts, members), nil

	case "coverage":
		cov, err := s.estimator()
		if err != nil {
			return nil, 0, err
		}
		switch req.Method {
		case "greedy", "exchange":
			var sets [][]int
			if sets, err = ensemble.BestCoverageGreedyCtx(ctx, cov, pts, poolIdx, req.N); err != nil {
				return nil, 0, err
			}
			members = sets[req.N]
			if req.Method == "exchange" {
				members, err = ensemble.ImproveCoverageExchangeCtx(ctx, cov, pts, members, poolIdx)
			}
		case "anneal":
			members, _, err = ensemble.AnnealCoverageCtx(ctx, cov, pts, poolIdx, ensemble.AnnealOptions{
				Size: req.N, Steps: req.Steps, Seed: req.Seed,
			})
		}
		if err != nil {
			return nil, 0, err
		}
		memberPts := make([]behavior.Vector, len(members))
		for i, m := range members {
			memberPts[i] = pts[m]
		}
		return members, cov.Coverage(memberPts), nil
	}
	return nil, 0, errInvalidf("unknown metric %q", req.Metric)
}
