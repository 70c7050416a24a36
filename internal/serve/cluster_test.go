package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"gcbench/internal/corpus"
	"gcbench/internal/obs"
	"gcbench/internal/shard"
)

// decodeJSON unmarshals a recorded response body into v.
func decodeJSON(t testing.TB, w *httptest.ResponseRecorder, v any) {
	t.Helper()
	if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
		t.Fatalf("decoding response: %v\n%s", err, w.Body.String())
	}
}

// TestReadyzGatesOnShardPublish asserts the liveness/readiness split: a
// server is alive (healthz 200) but not ready (readyz 503, API
// 503) until every shard has published a first corpus version.
func TestReadyzGatesOnShardPublish(t *testing.T) {
	c, err := shard.New(shard.Options{Shards: 3, Replicas: 2, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Cluster: c, Samples: 50_000, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}

	if w := get(t, s, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("/healthz = %d before load; liveness must not depend on readiness", w.Code)
	}
	w := get(t, s, "/readyz")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d before any shard published, want 503: %s", w.Code, w.Body.String())
	}
	var probe struct {
		Ready  bool `json:"ready"`
		Detail struct {
			Shards []shard.InfoResponse `json:"shards"`
		} `json:"detail"`
	}
	decodeJSON(t, w, &probe)
	if probe.Ready || len(probe.Detail.Shards) != 3 {
		t.Fatalf("probe payload: ready=%v shards=%d", probe.Ready, len(probe.Detail.Shards))
	}
	for _, info := range probe.Detail.Shards {
		if info.Version != 0 {
			t.Errorf("shard %d reports version %d before publish", info.Shard, info.Version)
		}
	}
	// API reads are refused coherently while unready.
	if w := get(t, s, "/api/runs"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/api/runs = %d on unready cluster, want 503", w.Code)
	}

	loadCopy(t, c, standardSnapshot(t))

	w = get(t, s, "/readyz")
	if w.Code != http.StatusOK {
		t.Fatalf("/readyz = %d after load, want 200: %s", w.Code, w.Body.String())
	}
	decodeJSON(t, w, &probe)
	for _, info := range probe.Detail.Shards {
		if info.Version != 1 || info.Replicas != 2 {
			t.Errorf("shard %d: version=%d replicas=%d after load", info.Shard, info.Version, info.Replicas)
		}
	}
	if w := get(t, s, "/api/runs"); w.Code != http.StatusOK {
		t.Fatalf("/api/runs = %d after load, want 200", w.Code)
	}

	// A loaded 1×1 single-node deployment is ready as soon as it exists.
	if w := get(t, newTestServer(t, nil), "/readyz"); w.Code != http.StatusOK {
		t.Fatalf("single-node /readyz = %d, want 200", w.Code)
	}
}

// TestRetryAfterJitterBounds asserts the anti-thundering-herd contract:
// every rendered Retry-After is an integer in [base, 2*base], and the
// values actually vary (a constant would re-synchronize the herd).
func TestRetryAfterJitterBounds(t *testing.T) {
	for _, base := range []int{1, 5} {
		seen := map[int]bool{}
		for i := 0; i < 256; i++ {
			v, err := strconv.Atoi(retryAfterJitter(base))
			if err != nil {
				t.Fatalf("base %d: non-integer Retry-After: %v", base, err)
			}
			if v < base || v > 2*base {
				t.Fatalf("base %d: Retry-After %d outside [%d, %d]", base, v, base, 2*base)
			}
			seen[v] = true
		}
		// 256 draws over base+1 ≥ 2 values: all-identical is ~2^-256.
		if len(seen) < 2 {
			t.Errorf("base %d: 256 jittered values were all identical (%v)", base, seen)
		}
	}
}

// TestBehaviorFragmentSurvivesOtherShardPublish asserts the cache
// satellite: a record fragment cached from shard A keeps serving across
// a hot publish that touches only other shards (same normalization),
// instead of the old wholesale purge.
func TestBehaviorFragmentSurvivesOtherShardPublish(t *testing.T) {
	s := clusterOverStandard(t, 4, 1)
	c := s.cluster

	runs := dominatedRuns(t, 2)
	// Pick a corpus key on a shard that owns none of the appended runs'
	// keys (keys are append-stable, so ownership is computable up front).
	owners := map[int]bool{}
	for _, r := range runs {
		owners[c.Owner(corpus.KeyOf(r.Algorithm, r.SizeLabel, r.Alpha))] = true
	}
	view := c.View()
	var key string
	for i := range view.Merged.Records {
		if !owners[c.Owner(view.Merged.Records[i].Key)] {
			key = view.Merged.Records[i].Key
			break
		}
	}
	if key == "" {
		t.Skip("every shard owns an appended run; cannot isolate an untouched shard")
	}

	first := get(t, s, "/api/behavior/"+key)
	if first.Code != http.StatusOK {
		t.Fatalf("first read: %d: %s", first.Code, first.Body.String())
	}
	entries := s.cache.Len()

	if _, err := c.Append(context.Background(), runs, "cache-test"); err != nil {
		t.Fatal(err)
	}

	second := get(t, s, "/api/behavior/"+key)
	if second.Code != http.StatusOK {
		t.Fatalf("read after publish: %d: %s", second.Code, second.Body.String())
	}
	if got := s.cache.Len(); got != entries {
		t.Errorf("cache grew %d → %d on re-read: fragment was not served from cache across the publish", entries, got)
	}
	// The fragment is identical; only the envelope's corpusVersion moved.
	if first.Body.String() == second.Body.String() {
		t.Error("corpusVersion did not advance across the publish")
	}
}

// TestDesignCacheAcrossSkewedReplicaPublish is the serving side of
// shard's TestClusterVersionVectorFromAcks: over a replica set whose
// replicas start at different versions, a design cached before a hot
// publish is a miss after it, and from then on /readyz (the replicas'
// own minimum) and /api/corpus (the coordinator's vector) report the
// same version.
func TestDesignCacheAcrossSkewedReplicaPublish(t *testing.T) {
	ctx := context.Background()
	ahead, behind := shard.NewLocalShard(0), shard.NewLocalShard(0)
	for i := 0; i < 2; i++ {
		if _, err := ahead.Publish(ctx, shard.PublishRequest{Replace: true}); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	set, err := shard.NewReplicaSet(0, []shard.ShardClient{ahead, behind}, reg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := shard.New(shard.Options{Clients: []shard.ShardClient{set}, Replicas: 2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	loadCopy(t, c, standardSnapshot(t))
	s := newTestServer(t, func(cfg *Config) { cfg.Cluster = c })

	for _, want := range []string{"miss", "hit"} {
		if w := postDesign(t, s, `{"n": 3}`); w.Code != http.StatusOK || w.Header().Get("X-Cache") != want {
			t.Fatalf("design before publish: %d X-Cache=%q, want %s", w.Code, w.Header().Get("X-Cache"), want)
		}
	}
	if _, err := s.publishRuns("skew-job", dominatedRuns(t, 1)); err != nil {
		t.Fatal(err)
	}
	if w := postDesign(t, s, `{"n": 3}`); w.Code != http.StatusOK || w.Header().Get("X-Cache") != "miss" {
		t.Errorf("design after publish: %d X-Cache=%q, want miss", w.Code, w.Header().Get("X-Cache"))
	}

	var probe struct {
		Detail struct {
			Shards []shard.InfoResponse `json:"shards"`
		} `json:"detail"`
	}
	decodeJSON(t, get(t, s, "/readyz"), &probe)
	var info struct {
		Shards struct {
			VersionVector string `json:"versionVector"`
		} `json:"shards"`
	}
	decodeJSON(t, get(t, s, "/api/corpus"), &info)
	if got := strconv.FormatUint(probe.Detail.Shards[0].Version, 10); got != info.Shards.VersionVector || got != "4" {
		t.Errorf("/readyz reports version %s, /api/corpus vector %q; want both 4", got, info.Shards.VersionVector)
	}
}
