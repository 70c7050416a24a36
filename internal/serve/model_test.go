package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"gcbench/internal/algorithms"
	"gcbench/internal/corpus"
	"gcbench/internal/model"
	"gcbench/internal/sweep"
)

var (
	mixedOnce sync.Once
	mixedSnap *corpus.Snapshot
	mixedErr  error
)

// mixedModelSnapshot sweeps one tiny campaign under all four execution
// models into a mixed corpus. Built once per test binary — the runs are
// deterministic (fixed specs, fixed seed).
func mixedModelSnapshot(t testing.TB) *corpus.Snapshot {
	t.Helper()
	mixedOnce.Do(func() {
		var specs []sweep.Spec
		for _, alg := range []algorithms.Name{algorithms.CC, algorithms.SSSP, algorithms.PR} {
			base := sweep.Spec{
				Algorithm: alg, NumEdges: 400, Alpha: 2.2, SizeLabel: "4e2", Seed: 5,
			}
			for _, n := range model.AllNames() {
				impl, err := model.ForName(n)
				if err != nil {
					mixedErr = err
					return
				}
				if !impl.Supports(alg) {
					continue
				}
				s := base
				s.Model = model.Name(model.Tag(n))
				specs = append(specs, s)
			}
		}
		res, err := sweep.ExecuteCampaign(context.Background(), specs, sweep.Config{Parallel: 2, Workers: 1})
		if err != nil {
			mixedErr = err
			return
		}
		mixedSnap, mixedErr = corpus.NewSnapshotFromRuns(res.Runs, "mixed-model-test")
	})
	if mixedErr != nil {
		t.Fatalf("building mixed-model corpus: %v", mixedErr)
	}
	return mixedSnap
}

// newMixedServer serves the mixed four-model corpus.
func newMixedServer(t testing.TB) *Server {
	t.Helper()
	return newTestServer(t, func(cfg *Config) {
		cfg.Cluster = clusterOver(t, mixedModelSnapshot(t), 1, 1)
	})
}

func TestRunsModelFilter(t *testing.T) {
	s := newMixedServer(t)
	var resp struct {
		Count int `json:"count"`
		Runs  []struct {
			Key   string `json:"key"`
			Model string `json:"model"`
		} `json:"runs"`
	}

	// Every model appears in the mixed corpus and filters exactly.
	for _, m := range []string{"gas", "pregel", "xstream", "graphcentric"} {
		w := get(t, s, "/api/runs?model="+m)
		if w.Code != http.StatusOK {
			t.Fatalf("model=%s: status %d: %s", m, w.Code, w.Body.String())
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Count == 0 {
			t.Fatalf("model=%s matched no runs", m)
		}
		for _, r := range resp.Runs {
			eff := r.Model
			if eff == "" {
				eff = "gas"
			}
			if eff != m {
				t.Errorf("model=%s leaked run %s (model %q)", m, r.Key, r.Model)
			}
		}
	}

	// Comma lists compose like the other filters.
	w := get(t, s, "/api/runs?model=pregel,xstream&algorithm=CC")
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 2 {
		t.Fatalf("pregel,xstream CC count = %d, want 2", resp.Count)
	}

	// Unknown model names are a structured 400, mirroring status.
	w = get(t, s, "/api/runs?model=giraph")
	if w.Code != http.StatusBadRequest || decodeError(t, w) != "invalid_request" {
		t.Fatalf("unknown model: %d %s", w.Code, w.Body.String())
	}
}

// TestRunsModelFilterOnGASCorpus: on a pre-model-axis corpus the gas
// filter selects everything and the others select nothing — with 200s,
// not errors, so model-matrix tooling can probe any deployment.
func TestRunsModelFilterOnGASCorpus(t *testing.T) {
	s := newTestServer(t, nil)
	all := get(t, s, "/api/runs")
	gas := get(t, s, "/api/runs?model=gas")
	if gas.Code != http.StatusOK {
		t.Fatalf("model=gas: %d", gas.Code)
	}
	var allResp, gasResp struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal(all.Body.Bytes(), &allResp); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(gas.Body.Bytes(), &gasResp); err != nil {
		t.Fatal(err)
	}
	if gasResp.Count != allResp.Count || gasResp.Count == 0 {
		t.Fatalf("model=gas count %d, unfiltered %d", gasResp.Count, allResp.Count)
	}
	w := get(t, s, "/api/runs?model=pregel")
	var resp struct {
		Count int `json:"count"`
	}
	if w.Code != http.StatusOK {
		t.Fatalf("model=pregel on GAS corpus: %d", w.Code)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 0 {
		t.Fatalf("pregel matched %d runs on a GAS-only corpus", resp.Count)
	}
}

func TestPredictModelParam(t *testing.T) {
	s := newMixedServer(t)
	type predResp struct {
		Raw   []float64      `json:"raw"`
		Query map[string]any `json:"query"`
	}
	decode := func(path string) predResp {
		w := get(t, s, path)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, w.Code, w.Body.String())
		}
		var r predResp
		if err := json.Unmarshal(w.Body.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	gas := decode("/api/predict?algorithm=CC&edges=300&alpha=2.2&model=gas")
	pre := decode("/api/predict?algorithm=CC&edges=300&alpha=2.2&model=pregel")
	if gas.Query["model"] != "gas" || pre.Query["model"] != "pregel" {
		t.Fatalf("query echo lacks the model: %v / %v", gas.Query, pre.Query)
	}
	same := true
	for d := range gas.Raw {
		if gas.Raw[d] != pre.Raw[d] {
			same = false
		}
	}
	if same {
		t.Error("gas and pregel predictions identical; per-model restriction not applied")
	}
	// Bad model → 400; a model with no runs in this corpus → 400
	// invalid_request, like a model with runs but none of the algorithm.
	w := get(t, s, "/api/predict?algorithm=CC&edges=300&model=giraph")
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad model: %d", w.Code)
	}
	s2 := newTestServer(t, nil) // GAS-only corpus
	w = get(t, s2, "/api/predict?algorithm=PR&edges=1000&alpha=2.1&model=xstream")
	if w.Code != http.StatusBadRequest || decodeError(t, w) != "invalid_request" {
		t.Fatalf("predict for absent model: %d %s", w.Code, w.Body.String())
	}
}

// TestPredictWithoutModelUnchanged: the no-model predict body on a
// GAS-only corpus must not mention models at all (byte-compat with
// pre-model-axis clients is pinned by the golden tests; this guards the
// query echo specifically).
func TestPredictWithoutModelUnchanged(t *testing.T) {
	s := newTestServer(t, nil)
	w := get(t, s, "/api/predict?algorithm=PR&edges=500000&alpha=2.5")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if bytes.Contains(w.Body.Bytes(), []byte("model")) {
		t.Fatalf("no-model predict response mentions model: %s", w.Body.String())
	}
}

// TestDesignOverMixedCorpus is the acceptance criterion: ensemble design
// over a four-model corpus selects records from at least two distinct
// models — the behavior space genuinely spans engines, and the pool
// model restriction narrows it.
func TestDesignOverMixedCorpus(t *testing.T) {
	s := newMixedServer(t)
	w := postDesign(t, s, `{"n":6}`)
	if w.Code != http.StatusOK {
		t.Fatalf("design over mixed corpus: %d %s", w.Code, w.Body.String())
	}
	var resp struct {
		Members []struct {
			Key   string `json:"key"`
			Model string `json:"model"`
		} `json:"members"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Members) != 6 {
		t.Fatalf("design returned %d members, want 6", len(resp.Members))
	}
	models := map[string]bool{}
	for _, m := range resp.Members {
		eff := m.Model
		if eff == "" {
			eff = "gas"
		}
		models[eff] = true
	}
	if len(models) < 2 {
		t.Fatalf("design selected a single model %v; the mixed space adds no diversity", models)
	}

	// Restricting the pool to one model yields only that model.
	w = postDesign(t, s, `{"n":2,"pool":{"models":["pregel"]}}`)
	if w.Code != http.StatusOK {
		t.Fatalf("pregel-pool design: %d %s", w.Code, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	for _, m := range resp.Members {
		if m.Model != "pregel" {
			t.Errorf("pregel-restricted design selected %s (model %q)", m.Key, m.Model)
		}
	}

	// Distinct model pools must not collide in the design cache.
	wGas := postDesign(t, s, `{"n":2,"pool":{"models":["gas"]}}`)
	wPre := postDesign(t, s, `{"n":2,"pool":{"models":["pregel"]}}`)
	if bytes.Equal(wGas.Body.Bytes(), wPre.Body.Bytes()) {
		t.Fatal("gas-pool and pregel-pool designs returned identical bodies (cache key ignores models)")
	}
	// Unknown pool model is a structured 400.
	w = postDesign(t, s, `{"n":2,"pool":{"models":["giraph"]}}`)
	if w.Code != http.StatusBadRequest || decodeError(t, w) != "invalid_request" {
		t.Fatalf("bad pool model: %d %s", w.Code, w.Body.String())
	}
}

// TestCampaignModelsValidation: POST /api/campaigns accepts a models
// list and rejects unknown names before queueing anything.
func TestCampaignModelsValidation(t *testing.T) {
	req := campaignRequest{Profile: "quick", Models: []string{"pregel", "giraph"}}
	if _, err := req.buildSpecs(); err == nil {
		t.Fatal("unknown campaign model accepted")
	}
	req = campaignRequest{Profile: "quick", Algorithms: []string{"PR"}, Models: []string{"pregel", "xstream"}}
	specs, err := req.buildSpecs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) == 0 {
		t.Fatal("no specs for a PR pregel+xstream campaign")
	}
	for _, s := range specs {
		if m := s.EffectiveModel(); m != model.Pregel && m != model.XStream {
			t.Errorf("spec %s has model %s", s.ID(), m)
		}
	}
	// graphcentric does not implement PR: the combination is an explicit
	// no-match error, not an empty campaign.
	req = campaignRequest{Profile: "quick", Algorithms: []string{"PR"}, Models: []string{"graphcentric"}}
	if _, err := req.buildSpecs(); err == nil {
		t.Fatal("PR×graphcentric campaign accepted despite matching nothing")
	}
}
