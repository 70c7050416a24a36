package loadtest

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gcbench/internal/corpus"
	"gcbench/internal/jobs"
	"gcbench/internal/obs"
	"gcbench/internal/serve"
	"gcbench/internal/shard"
)

// standardSnapshot loads the shipped measured corpus once per binary.
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

// clusterServer is the one deployment builder: the standard corpus (its
// own record copy — a cluster owns the snapshot it is loaded with)
// served from the cluster opts describes.
func clusterServer(t testing.TB, opts shard.Options, mgr *jobs.Manager) *serve.Server {
	t.Helper()
	std := standardSnapshot(t)
	snap, err := corpus.NewSnapshotFromRecords(append([]corpus.Record(nil), std.Records...), std.Source)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	c, err := shard.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(context.Background(), snap); err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Config{
		Cluster:  c,
		Samples:  50_000,
		Registry: obs.NewRegistry(),
		Jobs:     mgr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// shardedServer partitions the corpus across shards×replicas in
// process; 1×1 is the single-node deployment.
func shardedServer(t testing.TB, shards, replicas int, mgr *jobs.Manager) *serve.Server {
	t.Helper()
	return clusterServer(t, shard.Options{Shards: shards, Replicas: replicas}, mgr)
}

// wireServer is the same corpus partitioned across `shards` wire-
// transport shard endpoints: each shard is served over real loopback
// TCP (httptest server speaking the shard RPC protocol) through a
// RemoteShard client wrapped in the production ReplicaSet layer. The
// only difference from shardedServer is the transport, which is exactly
// what the wire-overhead ratio isolates.
func wireServer(t testing.TB, shards int, mgr *jobs.Manager) *serve.Server {
	t.Helper()
	reg := obs.NewRegistry()
	clients := make([]shard.ShardClient, shards)
	for i := 0; i < shards; i++ {
		srv := httptest.NewServer(shard.RPCHandler(shard.NewProcessShard(i)))
		t.Cleanup(srv.Close)
		remote := shard.NewRemoteShard(srv.URL, shard.RemoteOptions{Shard: i, Registry: reg})
		rs, err := shard.NewReplicaSet(i, []shard.ShardClient{remote}, reg)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = rs
	}
	return clusterServer(t, shard.Options{Shards: shards, Clients: clients, Registry: reg}, mgr)
}

// designLatency measures uncached design-search wall time on a handler:
// each rep uses a distinct anneal seed (a distinct cache key on every
// deployment), so every rep pays the full search, and the minimum over
// reps is the machine's clean estimate.
func designLatency(t testing.TB, h http.Handler, reps int) time.Duration {
	t.Helper()
	best := time.Duration(1<<62 - 1)
	for i := 0; i < reps; i++ {
		body := `{"n":4,"method":"anneal","seed":` + strconv.Itoa(i+1) + `}`
		r := httptest.NewRequest(http.MethodPost, "/api/ensemble/design", strings.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		begin := time.Now()
		h.ServeHTTP(w, r)
		elapsed := time.Since(begin)
		if w.Code != http.StatusOK {
			t.Fatalf("design rep %d: %d: %s", i, w.Code, w.Body.String())
		}
		if elapsed < best {
			best = elapsed
		}
	}
	return best
}

// TestWriteServeBenchArtifact is the CI serve-load job: it measures the
// sharded serving tier under the mixed ServeMix traffic profile (plus
// real quick-profile campaign submissions through the async jobs API),
// gates on predict p99, zero 5xx and the 4×2 scatter-gather design path
// being no slower than the 1×1 single-node one, and writes the
// BENCH_serve.json
// artifact the repo keeps as the serving-tier regression record.
//
// Opt-in via GCBENCH_SERVE_BENCH_ARTIFACT=<output path> because the
// latency gates are calibrated for a dedicated CI runner, not a laptop
// running a full parallel test suite.
func TestWriteServeBenchArtifact(t *testing.T) {
	out := os.Getenv("GCBENCH_SERVE_BENCH_ARTIFACT")
	if out == "" {
		t.Skip("set GCBENCH_SERVE_BENCH_ARTIFACT=<path> to run the serve load benchmark")
	}

	// Phase 1 — scatter-gather overhead: identical uncached design
	// searches on the 1×1 single-node cluster and a 4-shard × 2-replica
	// one, best of 5. The fan-out only gathers pool seqs; the search
	// itself dominates, so sharding must not cost more than 25% even on a
	// noisy runner.
	single := shardedServer(t, 1, 1, nil)
	const shards, replicas = 4, 2
	mgr := jobs.NewManager(jobs.Config{MaxRunning: 1, QueueDepth: 2, Registry: obs.NewRegistry()})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := mgr.Close(ctx); err != nil {
			t.Errorf("jobs manager close: %v", err)
		}
	})
	sharded := shardedServer(t, shards, replicas, mgr)

	singleDesign := designLatency(t, single.Handler(), 5)
	shardedDesign := designLatency(t, sharded.Handler(), 5)
	ratio := float64(shardedDesign) / float64(singleDesign)
	t.Logf("design search: 1x1=%v sharded(%dx%d)=%v ratio=%.3f",
		singleDesign, shards, replicas, shardedDesign, ratio)

	// Phase 1b — wire-transport overhead: the same 4 shards served over
	// real loopback TCP (shard RPC protocol + JSON marshalling) instead
	// of in-process calls. The ratio against the in-process cluster is
	// the cost of the wire itself.
	wire := wireServer(t, shards, nil)
	wireDesign := designLatency(t, wire.Handler(), 5)
	wireRatio := float64(wireDesign) / float64(shardedDesign)
	t.Logf("design search: wire(%d procs)=%v wire/in-process ratio=%.3f",
		shards, wireDesign, wireRatio)

	// Phase 2 — mixed load on the sharded deployment. Campaign traffic
	// is real: quick-profile PR campaigns submitted through the jobs
	// API; one executes at a time, the rest exercise the 429 queue-full
	// backpressure path, and completions hot-publish into the cluster
	// mid-load.
	std := standardSnapshot(t)
	keys := []string{std.Records[0].Key, std.Records[len(std.Records)/2].Key}
	if std.PoolSize() > 0 {
		keys = append(keys, std.PoolRecord(0).Key)
	}
	mix := append(ServeMix(keys), Op{
		Name: "campaign", Weight: 1, Method: http.MethodPost,
		Paths: []string{"/api/campaigns"},
		Body:  `{"profile":"quick","algorithms":["PR"],"label":"loadtest"}`,
	})
	rep, err := Run(context.Background(), Config{
		Handler:     sharded.Handler(),
		Concurrency: 8,
		Requests:    4000,
		Seed:        1,
		Mix:         mix,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Target = "in-process sharded serve (4 shards x 2 replicas)"
	rep.Extra = map[string]any{
		"designSingleMs":      float64(singleDesign.Microseconds()) / 1000,
		"designShardedMs":     float64(shardedDesign.Microseconds()) / 1000,
		"designShardedRatio":  ratio,
		"designWireMs":        float64(wireDesign.Microseconds()) / 1000,
		"wireOverheadRatio":   wireRatio,
		"shards":              shards,
		"replicas":            replicas,
		"campaignSubmissions": rep.Routes["campaign"].Count,
	}
	if err := rep.WriteFile(out); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %d requests, predict p50=%.2fms p99=%.2fms",
		out, rep.Requests, rep.Routes["predict"].P50Ms, rep.Routes["predict"].P99Ms)

	// Gates. Predict p99 is generous for a shared runner yet far below
	// any lock-convoy or scatter-stall regression; 5xx tolerance is
	// zero (429s from campaign backpressure are 4xx by design).
	if err := rep.Check([]Gate{
		{Route: "predict", MaxP99Ms: 250, MinCount: 100},
		{Route: "runs", MinCount: 50},
		{Route: "design", MinCount: 20},
		{Route: "behavior", MinCount: 50},
		{Route: "campaign", MinCount: 1},
	}, true); err != nil {
		t.Error(err)
	}
	if ratio > 1.25 {
		t.Errorf("4x2 scatter-gather design path is %.2fx the 1x1 cluster (gate 1.25x): 1x1=%v sharded=%v",
			ratio, singleDesign, shardedDesign)
	}
	// The wire gate is looser: loopback TCP + JSON on the scatter is real
	// cost, but the design search still dominates — a blown gate means a
	// serialization or retry-storm regression, not normal wire tax.
	if wireRatio > 2.5 {
		t.Errorf("wire transport is %.2fx the in-process cluster (gate 2.5x): in-process=%v wire=%v",
			wireRatio, shardedDesign, wireDesign)
	}
}
