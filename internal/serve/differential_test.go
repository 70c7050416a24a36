package serve

import (
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"gcbench/internal/behavior"
	"gcbench/internal/corpus"
)

// clusterOverStandard builds a serve.Server whose corpus is the standard
// snapshot partitioned across a shards×replicas cluster.
func clusterOverStandard(t testing.TB, shards, replicas int) *Server {
	t.Helper()
	return newTestServer(t, func(cfg *Config) {
		cfg.Cluster = clusterOver(t, standardSnapshot(t), shards, replicas)
	})
}

// apiCall is one replayable request of the differential set.
type apiCall struct {
	name   string
	method string
	path   string
	body   string
}

func (c apiCall) issue(t testing.TB, s *Server) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	var r *http.Request
	if c.method == http.MethodPost && c.body != "" {
		r = httptest.NewRequest(c.method, c.path, strings.NewReader(c.body))
		r.Header.Set("Content-Type", "application/json")
	} else {
		r = httptest.NewRequest(c.method, c.path, nil)
	}
	s.Handler().ServeHTTP(w, r)
	return w
}

// differentialCalls is the request set the harness replays against every
// deployment shape: every read endpoint the bit-identity guarantee
// covers, across filters, methods and metrics.
func differentialCalls(t testing.TB) []apiCall {
	t.Helper()
	stdSnap := standardSnapshot(t)
	calls := []apiCall{
		{name: "runs all", method: http.MethodGet, path: "/api/runs"},
		{name: "runs alg", method: http.MethodGet, path: "/api/runs?algorithm=PR"},
		{name: "runs multi", method: http.MethodGet, path: "/api/runs?algorithm=PR,CC&size=1e5"},
		{name: "runs status", method: http.MethodGet, path: "/api/runs?status=ok"},
		{name: "runs model gas", method: http.MethodGet, path: "/api/runs?model=gas"},
		{name: "runs model empty", method: http.MethodGet, path: "/api/runs?model=pregel"},
		{name: "predict", method: http.MethodGet, path: "/api/predict?algorithm=PR&edges=500000&alpha=2.1"},
		{name: "predict model", method: http.MethodGet, path: "/api/predict?algorithm=PR&edges=500000&alpha=2.1&model=gas"},
		{name: "predict 2", method: http.MethodGet, path: "/api/predict?algorithm=CC&edges=123456&alpha=1.9"},
		{name: "best spread", method: http.MethodGet, path: "/api/ensemble/best?n=5"},
		{name: "best coverage", method: http.MethodGet, path: "/api/ensemble/best?n=4&metric=coverage"},
		{name: "design greedy", method: http.MethodPost, path: "/api/ensemble/design", body: `{"n":3}`},
		{name: "design coverage", method: http.MethodPost, path: "/api/ensemble/design", body: `{"n":3,"metric":"coverage"}`},
		{name: "design exchange", method: http.MethodPost, path: "/api/ensemble/design", body: `{"n":4,"method":"exchange"}`},
		{name: "design anneal", method: http.MethodPost, path: "/api/ensemble/design", body: `{"n":4,"method":"anneal","seed":7}`},
		{name: "design beam", method: http.MethodPost, path: "/api/ensemble/design", body: `{"n":3,"method":"beam"}`},
		{name: "design pooled", method: http.MethodPost, path: "/api/ensemble/design", body: `{"n":2,"pool":{"algorithms":["PR","CC"]}}`},
		{name: "design model pool", method: http.MethodPost, path: "/api/ensemble/design", body: `{"n":2,"pool":{"models":["gas"]}}`},
	}
	// Single-record reads: a spread of record keys plus the first pool
	// member (which carries a poolBehavior fragment). Each is requested
	// twice so the cluster's fragment-cache hit path is byte-compared too.
	keys := []string{stdSnap.Records[0].Key, stdSnap.Records[len(stdSnap.Records)/2].Key}
	if stdSnap.PoolSize() > 0 {
		keys = append(keys, stdSnap.PoolRecord(0).Key)
	}
	for _, k := range keys {
		for pass := 1; pass <= 2; pass++ {
			calls = append(calls, apiCall{
				name:   fmt.Sprintf("behavior %s pass %d", k, pass),
				method: http.MethodGet,
				path:   "/api/behavior/" + k,
			})
		}
	}
	return calls
}

// appendedCalls read the records dominatedRuns publishes — the second
// half of the oracle's "after publish" phase.
func appendedCalls() []apiCall {
	return []apiCall{
		{
			name:   "appended behavior",
			method: http.MethodGet,
			path:   "/api/behavior/" + corpus.KeyOf("PR", "7e1", 2.05),
		},
		{
			name:   "appended model behavior",
			method: http.MethodGet,
			path:   "/api/behavior/" + corpus.KeyOfModel("pregel", "PR", "7m", 2.05),
		},
		{name: "appended model runs", method: http.MethodGet, path: "/api/runs?model=pregel"},
		{name: "appended model predict", method: http.MethodGet, path: "/api/predict?algorithm=PR&edges=9000&alpha=2.05&model=pregel"},
	}
}

// The frozen oracle: the SHA-256 of every differentialCalls body, before
// ("initial") and after ("after publish", plus appendedCalls) the
// dominatedRuns(3) publish, recorded from the single-store server at the
// last commit that had one (PR 13, 4528b1f). The single store is gone;
// its answers stay as the reference every deployment shape is held to,
// LDBC-style. Lines are "<sha256>  <phase>/<call name>"; the header
// comment in the file states the command that produced it. There is
// deliberately no -update path: a change that means to alter a body
// replaces that line's hash by hand, where review sees it.
const frozenOraclePath = "testdata/differential_bodies.sha256"

func loadFrozenOracle(t testing.TB) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(frozenOraclePath)
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sum, id, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", frozenOraclePath, line)
		}
		oracle[id] = sum
	}
	return oracle
}

// assertFrozen replays every call against the candidate deployment and
// requires each body to hash to the oracle's entry for the phase.
func assertFrozen(t *testing.T, oracle map[string]string, phase string, cand *Server, candName string, calls []apiCall) {
	t.Helper()
	for _, c := range calls {
		w := c.issue(t, cand)
		if w.Code != http.StatusOK {
			t.Errorf("%s: %s: %s status %d: %s", phase, c.name, candName, w.Code, w.Body.String())
			continue
		}
		sum := fmt.Sprintf("%x", sha256.Sum256(w.Body.Bytes()))
		if want, ok := oracle[phase+"/"+c.name]; !ok {
			t.Errorf("%s: %s: no frozen body in %s", phase, c.name, frozenOraclePath)
		} else if sum != want {
			t.Errorf("%s: %s: %s body diverges from the frozen single-store body (sha256 %s, want %s)\n%s",
				phase, c.name, candName, sum, want, clip(w.Body.Bytes(), 400))
		}
	}
}

// dominatedRuns builds a deterministic batch of appendable measured runs
// whose raw vectors stay strictly inside the corpus maxima, so a publish
// moves the version vector without moving the normalization regime.
func dominatedRuns(t testing.TB, n int) []*behavior.Run {
	t.Helper()
	stdSnap := standardSnapshot(t)
	runs := make([]*behavior.Run, 0, n)
	for i := 0; i < n; i++ {
		var raw behavior.Vector
		for d := range raw {
			raw[d] = stdSnap.Pool.Max[d] * (0.05 + 0.01*float64(i))
		}
		runs = append(runs, &behavior.Run{
			Algorithm: "PR", Domain: "diff-test", SizeLabel: fmt.Sprintf("7e%d", i+1),
			Alpha: 2.05, NumEdges: int64(1000 * (i + 1)), Iterations: 4, Converged: true,
			ActiveFraction: []float64{1, 0.6, 0.3, 0.1},
			Raw:            raw,
		})
	}
	// One model-tagged run rides along: the append path, record keying and
	// model-filtered reads must behave identically across deployments.
	var raw behavior.Vector
	for d := range raw {
		raw[d] = stdSnap.Pool.Max[d] * 0.04
	}
	runs = append(runs, &behavior.Run{
		Algorithm: "PR", Model: "pregel", Domain: "diff-test", SizeLabel: "7m",
		Alpha: 2.05, NumEdges: 9000, Iterations: 4, Converged: true,
		ActiveFraction: []float64{1, 0.6, 0.3, 0.1},
		Raw:            raw,
	})
	return runs
}

// TestDifferentialShardedServe is the serving tier's central guarantee:
// the same request set answered by the 1×1 single-node cluster and a
// 4-shard × 2-replica cluster produces JSON byte-identical to the
// frozen single-store bodies — before a hot publish, while concurrent
// readers race one, and after it settles.
func TestDifferentialShardedServe(t *testing.T) {
	oracle := loadFrozenOracle(t)
	one := clusterOverStandard(t, 1, 1)
	four := clusterOverStandard(t, 4, 2)
	calls := differentialCalls(t)

	assertFrozen(t, oracle, "initial", one, "cluster(1x1)", calls)
	assertFrozen(t, oracle, "initial", four, "cluster(4x2)", calls)

	// Hot publish under concurrent reads: hammer the 4-shard cluster's
	// read endpoints while the same run batch is appended to both
	// deployments through the jobs publish sink. The race detector
	// validates the lock-free read path; every in-flight response must
	// still be a complete, consistent snapshot answer (HTTP 200).
	readCalls := []apiCall{
		{name: "runs", method: http.MethodGet, path: "/api/runs?algorithm=PR"},
		{name: "behavior", method: http.MethodGet, path: "/api/behavior/" + standardSnapshot(t).Records[0].Key},
		{name: "predict", method: http.MethodGet, path: "/api/predict?algorithm=PR&edges=500000&alpha=2.1"},
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c := readCalls[(w+i)%len(readCalls)]
				if rec := c.issue(t, four); rec.Code != http.StatusOK {
					t.Errorf("during publish: %s returned %d: %s", c.name, rec.Code, rec.Body.String())
					return
				}
			}
		}(w)
	}
	runs := dominatedRuns(t, 3)
	for _, s := range []*Server{one, four} {
		if _, err := s.publishRuns("diff-job", runs); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// Settled: replay the full set again; the appended records are now
	// part of every deployment's corpus and the answers must re-converge
	// byte for byte (corpusVersion advanced identically to 2 everywhere).
	// The appended records themselves serve identically too, via their
	// owning shards.
	settled := append(calls, appendedCalls()...)
	assertFrozen(t, oracle, "after publish", one, "cluster(1x1)", settled)
	assertFrozen(t, oracle, "after publish", four, "cluster(4x2)", settled)
}
