package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gcbench/internal/corpus"
	"gcbench/internal/obs"
	"gcbench/internal/shard"
)

// standardSnapshot loads the shipped measured corpus once per test
// binary. It is shared and immutable: deployments are built over copies
// (clusterOver), never over it.
var (
	stdOnce sync.Once
	stdSnap *corpus.Snapshot
	stdErr  error
)

func standardSnapshot(t testing.TB) *corpus.Snapshot {
	t.Helper()
	stdOnce.Do(func() {
		stdSnap, stdErr = corpus.LoadFile("../../runs-standard.json")
	})
	if stdErr != nil {
		t.Fatalf("loading runs-standard.json: %v", stdErr)
	}
	return stdSnap
}

// clusterOver is the one deployment builder of the serve tests: an
// in-process shards×replicas cluster loaded with its own copy of snap's
// records (a cluster owns and versions the snapshot it is loaded with,
// and the differential tests publish to several deployments
// independently). 1×1 is the single-node deployment.
func clusterOver(t testing.TB, snap *corpus.Snapshot, shards, replicas int) *shard.Cluster {
	t.Helper()
	c, err := shard.New(shard.Options{Shards: shards, Replicas: replicas, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	loadCopy(t, c, snap)
	return c
}

// loadCopy loads c with a snapshot rebuilt from a copy of snap's records.
func loadCopy(t testing.TB, c *shard.Cluster, snap *corpus.Snapshot) {
	t.Helper()
	cp, err := corpus.NewSnapshotFromRecords(append([]corpus.Record(nil), snap.Records...), snap.Source)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(context.Background(), cp); err != nil {
		t.Fatal(err)
	}
}

// newTestServer builds a Server with small, fast defaults; mutate
// overrides the config before construction. Without a Cluster override
// it serves the standard corpus from a 1×1 cluster.
func newTestServer(t testing.TB, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Samples:  50_000, // small MC pool: coverage tests stay fast, still deterministic
		Registry: obs.NewRegistry(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	if cfg.Cluster == nil {
		cfg.Cluster = clusterOver(t, standardSnapshot(t), 1, 1)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// get issues a GET against the server's handler and returns the
// recorded response.
func get(t testing.TB, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

// postDesign issues a POST /api/ensemble/design with the given JSON body.
func postDesign(t testing.TB, s *Server, body string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/api/ensemble/design", strings.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	s.Handler().ServeHTTP(w, r)
	return w
}

// decodeError asserts a structured error body and returns its code.
func decodeError(t testing.TB, w *httptest.ResponseRecorder) string {
	t.Helper()
	var e apiError
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body is not structured JSON: %v\n%s", err, w.Body.String())
	}
	if e.Error.Code == "" || e.Error.Message == "" {
		t.Fatalf("error body missing code/message: %s", w.Body.String())
	}
	return e.Error.Code
}

func TestRunsFiltering(t *testing.T) {
	s := newTestServer(t, nil)
	w := get(t, s, "/api/runs?algorithm=PR")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	var resp struct {
		CorpusVersion int64 `json:"corpusVersion"`
		Count         int   `json:"count"`
		Runs          []struct {
			Key       string `json:"key"`
			Algorithm string `json:"algorithm"`
			Status    string `json:"status"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.CorpusVersion != 1 || resp.Count == 0 || len(resp.Runs) != resp.Count {
		t.Fatalf("corpusVersion=%d count=%d len=%d", resp.CorpusVersion, resp.Count, len(resp.Runs))
	}
	for _, r := range resp.Runs {
		if r.Algorithm != "PR" {
			t.Errorf("algorithm filter leaked %s (%s)", r.Algorithm, r.Key)
		}
		if r.Status != "ok" {
			t.Errorf("corpus-file run %s has status %s", r.Key, r.Status)
		}
	}

	// Comma lists and repeats compose.
	w = get(t, s, "/api/runs?algorithm=PR,CC&size=1e5")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	// Unknown status is a structured 400, not a silent empty result.
	w = get(t, s, "/api/runs?status=exploded")
	if w.Code != http.StatusBadRequest || decodeError(t, w) != "invalid_request" {
		t.Fatalf("bad status filter: %d %s", w.Code, w.Body.String())
	}
}

func TestBehaviorLookup(t *testing.T) {
	s := newTestServer(t, nil)
	w := get(t, s, "/api/behavior/PR_1e5_a2.5")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	var resp struct {
		Run struct {
			Key            string    `json:"key"`
			Behavior       []float64 `json:"behavior"`
			PoolBehavior   []float64 `json:"poolBehavior"`
			ActiveFraction []float64 `json:"activeFraction"`
		} `json:"run"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Run.Key != "PR_1e5_a2.5" || len(resp.Run.Behavior) != 4 ||
		len(resp.Run.PoolBehavior) != 4 || len(resp.Run.ActiveFraction) == 0 {
		t.Fatalf("incomplete behavior record: %+v", resp.Run)
	}

	w = get(t, s, "/api/behavior/NOPE_1e5")
	if w.Code != http.StatusNotFound || decodeError(t, w) != "not_found" {
		t.Fatalf("missing key: %d %s", w.Code, w.Body.String())
	}
}

func TestPredictEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	w := get(t, s, "/api/predict?algorithm=PR&edges=500000&alpha=2.5")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	var resp struct {
		Raw        []float64 `json:"raw"`
		Iterations float64   `json:"iterations"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Raw) != 4 || resp.Iterations <= 0 {
		t.Fatalf("prediction = %+v", resp)
	}

	for _, bad := range []string{
		"/api/predict?algorithm=NOPE&edges=1000",
		"/api/predict?algorithm=PR&edges=-5",
		"/api/predict?algorithm=PR&edges=1000&alpha=zebra",
	} {
		w := get(t, s, bad)
		if w.Code != http.StatusBadRequest || decodeError(t, w) != "invalid_request" {
			t.Errorf("%s: %d %s", bad, w.Code, w.Body.String())
		}
	}
}

// TestDesignValidation maps every malformed design request to a 400 with
// a structured error body (satellite: API error contract).
func TestDesignValidation(t *testing.T) {
	s := newTestServer(t, nil)
	cases := []struct {
		name, body, wantCode string
	}{
		{"zero n", `{"n": 0}`, "invalid_request"},
		{"negative n", `{"n": -3}`, "invalid_request"},
		{"bad metric", `{"n": 5, "metric": "sparkle"}`, "invalid_request"},
		{"bad method", `{"n": 5, "method": "oracle"}`, "invalid_request"},
		{"beam+coverage", `{"n": 5, "metric": "coverage", "method": "beam"}`, "invalid_request"},
		{"anneal spread n=1", `{"n": 1, "metric": "spread", "method": "anneal"}`, "invalid_request"},
		{"negative steps", `{"n": 5, "method": "anneal", "steps": -1}`, "invalid_request"},
		{"unknown algorithm", `{"n": 2, "pool": {"algorithms": ["NOPE"]}}`, "invalid_request"},
		{"unknown field", `{"n": 5, "shape": "round"}`, "invalid_request"},
		{"not json", `n=5`, "invalid_request"},
		{"empty pool", `{"n": 2, "pool": {"sizes": ["1e99"]}}`, "empty_pool"},
		{"n exceeds pool", `{"n": 10000}`, "invalid_request"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := postDesign(t, s, c.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status = %d: %s", w.Code, w.Body.String())
			}
			if code := decodeError(t, w); code != c.wantCode {
				t.Fatalf("code = %s, want %s: %s", code, c.wantCode, w.Body.String())
			}
		})
	}
	if n := s.searches.Load(); n != 0 {
		t.Errorf("invalid requests triggered %d searches", n)
	}
}

func TestDesignMethodsAndMetrics(t *testing.T) {
	s := newTestServer(t, nil)
	cases := []string{
		`{"n": 3}`,
		`{"n": 3, "method": "exchange"}`,
		`{"n": 3, "method": "anneal", "steps": 500}`,
		`{"n": 3, "method": "beam"}`,
		`{"n": 3, "metric": "coverage"}`,
		`{"n": 3, "metric": "coverage", "method": "exchange"}`,
		`{"n": 3, "metric": "coverage", "method": "anneal", "steps": 200}`,
		`{"n": 2, "pool": {"algorithms": ["PR", "CC"], "sizes": ["1e5"]}}`,
	}
	for _, body := range cases {
		w := postDesign(t, s, body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", body, w.Code, w.Body.String())
		}
		var resp designResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if len(resp.Members) != resp.N || resp.Score < 0 || resp.PoolSize < resp.N {
			t.Fatalf("%s: n=%d members=%d score=%g pool=%d",
				body, resp.N, len(resp.Members), resp.Score, resp.PoolSize)
		}
		for _, m := range resp.Members {
			if m.Key == "" || m.Behavior == nil {
				t.Fatalf("%s: incomplete member %+v", body, m)
			}
		}
	}
}

// TestDesignCanonicalization: requests differing only in field order,
// pool duplication, case, or defaulted fields share one cache entry.
func TestDesignCanonicalization(t *testing.T) {
	s := newTestServer(t, nil)
	variants := []string{
		`{"n": 4, "metric": "spread", "method": "greedy", "pool": {"algorithms": ["PR", "CC"], "alphas": [2, 2.5]}}`,
		`{"pool": {"algorithms": ["CC", "PR", "PR"], "alphas": [2, 2, 2.5]}, "n": 4}`,
		`{"n": 4, "metric": "SPREAD", "method": "Greedy", "pool": {"algorithms": ["cc", "pr"], "alphas": [2.5, 2.0, 2]}}`,
		`{"n": 4, "seed": 7, "pool": {"algorithms": ["PR", "CC"], "alphas": [2.5, 2]}}`, // seed ignored off-anneal
	}
	var first []byte
	for i, body := range variants {
		w := postDesign(t, s, body)
		if w.Code != http.StatusOK {
			t.Fatalf("variant %d: status = %d: %s", i, w.Code, w.Body.String())
		}
		if i == 0 {
			first = w.Body.Bytes()
			if got := w.Header().Get("X-Cache"); got != "miss" {
				t.Errorf("variant 0 X-Cache = %q, want miss", got)
			}
			continue
		}
		if !bytes.Equal(w.Body.Bytes(), first) {
			t.Errorf("variant %d body differs from canonical", i)
		}
		if got := w.Header().Get("X-Cache"); got != "hit" {
			t.Errorf("variant %d X-Cache = %q, want hit", i, got)
		}
	}
	if n := s.searches.Load(); n != 1 {
		t.Errorf("searches = %d, want 1 (canonicalization failed)", n)
	}
}

func TestBestEndpointSharesCacheWithDesign(t *testing.T) {
	s := newTestServer(t, nil)
	w := get(t, s, "/api/ensemble/best?n=5")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	// The equivalent POST is a cache hit: same canonical identity.
	w2 := postDesign(t, s, `{"n": 5}`)
	if w2.Code != http.StatusOK || w2.Header().Get("X-Cache") != "hit" {
		t.Fatalf("POST after best: %d X-Cache=%q", w2.Code, w2.Header().Get("X-Cache"))
	}
	if !bytes.Equal(w.Body.Bytes(), w2.Body.Bytes()) {
		t.Error("best and design bodies differ for the same identity")
	}
	if w3 := get(t, s, "/api/ensemble/best?n=zebra"); w3.Code != http.StatusBadRequest {
		t.Errorf("bad n: status = %d", w3.Code)
	}
}

func TestCorpusInfoAndReload(t *testing.T) {
	s := newTestServer(t, nil)
	w := get(t, s, "/api/corpus")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var info struct {
		CorpusVersion int64 `json:"corpusVersion"`
		Records       int   `json:"records"`
		OKRuns        int   `json:"okRuns"`
		PoolSize      int   `json:"poolSize"`
		Shards        struct {
			Count, Replicas int
			VersionVector   string
		} `json:"shards"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.CorpusVersion != 1 || info.Records == 0 || info.PoolSize == 0 {
		t.Fatalf("info = %+v", info)
	}
	// One body shape for every deployment: the single-node server reports
	// its 1×1 shard tier like any other.
	if info.Shards.Count != 1 || info.Shards.Replicas != 1 || info.Shards.VersionVector != "1" {
		t.Errorf("shards block = %+v, want 1×1 at version vector 1", info.Shards)
	}

	// Prime the design cache, then reload: version bumps and the cache
	// is purged (the old version's entries can never be served again).
	if w := postDesign(t, s, `{"n": 3}`); w.Code != http.StatusOK {
		t.Fatalf("design: %d", w.Code)
	}
	if s.cache.Len() == 0 {
		t.Fatal("design did not populate the cache")
	}
	rw := httptest.NewRecorder()
	s.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/api/corpus/reload", nil))
	if rw.Code != http.StatusOK {
		t.Fatalf("reload: %d %s", rw.Code, rw.Body.String())
	}
	var rl struct {
		CorpusVersion int64 `json:"corpusVersion"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &rl); err != nil {
		t.Fatal(err)
	}
	if rl.CorpusVersion != 2 {
		t.Errorf("reloaded version = %d, want 2", rl.CorpusVersion)
	}
	if s.cache.Len() != 0 {
		t.Error("reload did not purge the design cache")
	}
	// Same request now misses (new corpus version) and re-searches.
	w2 := postDesign(t, s, `{"n": 3}`)
	if w2.Code != http.StatusOK || w2.Header().Get("X-Cache") != "miss" {
		t.Errorf("post-reload design: %d X-Cache=%q", w2.Code, w2.Header().Get("X-Cache"))
	}
	if n := s.searches.Load(); n != 2 {
		t.Errorf("searches = %d, want 2 (one per corpus version)", n)
	}
}

// TestCachedDesignCostsNoFanout pins the cache-first order of
// serveDesign: the response cache is consulted before the candidate
// pool is assembled, so a repeated design costs no scatter — and,
// because only successful designs are ever cached, the pool-dependent
// rejections answer exactly as they did before the cache was warm.
func TestCachedDesignCostsNoFanout(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := shard.New(shard.Options{Shards: 4, Replicas: 2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	loadCopy(t, c, standardSnapshot(t))
	s := newTestServer(t, func(cfg *Config) { cfg.Cluster = c })
	fanouts := reg.Counter("gcbench_shard_fanouts_total", "")

	rejections := []string{
		`{"n": 2, "pool": {"sizes": ["1e99"]}}`, // empty_pool
		`{"n": 10000}`,                          // n exceeds pool
	}
	cold := make([]*httptest.ResponseRecorder, len(rejections))
	for i, body := range rejections {
		if cold[i] = postDesign(t, s, body); cold[i].Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d: %s", body, cold[i].Code, cold[i].Body.String())
		}
	}

	first := postDesign(t, s, `{"n": 3}`)
	if first.Code != http.StatusOK || first.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first design: %d X-Cache=%q", first.Code, first.Header().Get("X-Cache"))
	}
	before := fanouts.Value()
	if before == 0 {
		t.Fatal("a design miss recorded no fan-out; the counter is not wired to this cluster")
	}
	second := postDesign(t, s, `{"n": 3}`)
	if second.Code != http.StatusOK || second.Header().Get("X-Cache") != "hit" {
		t.Fatalf("second design: %d X-Cache=%q", second.Code, second.Header().Get("X-Cache"))
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("cached design body differs from the computed one")
	}
	if got := fanouts.Value(); got != before {
		t.Errorf("cached design fanned out: gcbench_shard_fanouts_total %v → %v", before, got)
	}

	for i, body := range rejections {
		warm := postDesign(t, s, body)
		if warm.Code != cold[i].Code || !bytes.Equal(warm.Body.Bytes(), cold[i].Body.Bytes()) {
			t.Errorf("%s: answer changed once the cache was warm:\ncold %d %s\nwarm %d %s",
				body, cold[i].Code, cold[i].Body.String(), warm.Code, warm.Body.String())
		}
	}
	if n := s.searches.Load(); n != 1 {
		t.Errorf("searches = %d, want 1", n)
	}
}

func TestObservabilitySurface(t *testing.T) {
	s := newTestServer(t, nil)
	postDesign(t, s, `{"n": 3}`)

	w := get(t, s, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", w.Code)
	}
	body := w.Body.String()
	for _, metric := range []string{
		"gcbench_serve_requests_total",
		"gcbench_serve_request_seconds",
		"gcbench_serve_searches_total",
		"gcbench_serve_cache_misses_total",
		"gcbench_serve_queue_depth",
	} {
		if !strings.Contains(body, metric) {
			t.Errorf("/metrics missing %s", metric)
		}
	}

	w = get(t, s, "/statusz")
	if w.Code != http.StatusOK {
		t.Fatalf("/statusz: %d", w.Code)
	}
	var st struct {
		Service  string `json:"service"`
		Searches int64  `json:"searches"`
		PoolSize int    `json:"poolSize"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Service != "gcbench-serve" || st.Searches != 1 || st.PoolSize == 0 {
		t.Errorf("statusz = %+v", st)
	}

	if w := get(t, s, "/healthz"); w.Code != http.StatusOK {
		t.Errorf("/healthz: %d", w.Code)
	}
}

// TestCachedDesignSpeedup is the ISSUE's headline latency claim: a
// cached design is served at least 10× faster than the cold search that
// produced it. The cold request runs a real coverage search (estimator
// build + greedy MC evaluation); the warm request is an LRU lookup.
func TestCachedDesignSpeedup(t *testing.T) {
	s := newTestServer(t, nil)
	const body = `{"n": 6, "metric": "coverage"}`

	coldStart := time.Now()
	w := postDesign(t, s, body)
	cold := time.Since(coldStart)
	if w.Code != http.StatusOK {
		t.Fatalf("cold: %d %s", w.Code, w.Body.String())
	}

	// Best warm latency over a few tries, to keep scheduler noise out of
	// the ratio; correctness (byte-identity) is asserted on each.
	warm := time.Hour
	for i := 0; i < 5; i++ {
		start := time.Now()
		w2 := postDesign(t, s, body)
		if d := time.Since(start); d < warm {
			warm = d
		}
		if w2.Code != http.StatusOK || w2.Header().Get("X-Cache") != "hit" {
			t.Fatalf("warm %d: %d X-Cache=%q", i, w2.Code, w2.Header().Get("X-Cache"))
		}
		if !bytes.Equal(w2.Body.Bytes(), w.Body.Bytes()) {
			t.Fatal("warm body is not byte-identical to cold body")
		}
	}
	if cold < 10*warm {
		t.Errorf("cached design not ≥10× faster: cold=%v warm=%v", cold, warm)
	}
	t.Logf("cold=%v warm=%v (%.0f×)", cold, warm, float64(cold)/float64(warm))
}

// BenchmarkDesignCold measures the full search path (cache purged every
// iteration); BenchmarkDesignWarm measures the cache-hit path. Their
// ratio is the speedup the LRU buys.
func BenchmarkDesignCold(b *testing.B) {
	s := newTestServer(b, nil)
	const body = `{"n": 4}`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.cache.Purge()
		w := postDesign(b, s, body)
		if w.Code != http.StatusOK {
			b.Fatalf("status = %d", w.Code)
		}
	}
}

func BenchmarkDesignWarm(b *testing.B) {
	s := newTestServer(b, nil)
	const body = `{"n": 4}`
	if w := postDesign(b, s, body); w.Code != http.StatusOK {
		b.Fatalf("prime: %d", w.Code)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := postDesign(b, s, body)
		if w.Code != http.StatusOK || w.Header().Get("X-Cache") != "hit" {
			b.Fatalf("status = %d X-Cache=%q", w.Code, w.Header().Get("X-Cache"))
		}
	}
}

// discardBody drains and closes a real HTTP response body.
func discardBody(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
