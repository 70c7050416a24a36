package sweep

import (
	"context"
	"errors"
	"sync"
	"testing"

	"gcbench/internal/algorithms"
	"gcbench/internal/behavior"
)

// smallSpec returns the smallest spec that exercises algorithm alg — the
// sizes TestRunSpecEveryAlgorithm uses.
func smallSpec(alg algorithms.Name) Spec {
	spec := Spec{Algorithm: alg, SizeLabel: "test", Seed: 5}
	switch alg {
	case algorithms.ALS, algorithms.NMF, algorithms.SGD, algorithms.SVD:
		spec.NumEdges = 400
		spec.Alpha = 2.5
	case algorithms.Jacobi:
		spec.NumRows = 100
	case algorithms.LBP:
		spec.NumRows = 10
	case algorithms.DD:
		spec.NumEdges = 80
	default:
		spec.NumEdges = 500
		spec.Alpha = 2.5
	}
	return spec
}

// TestFrontierBehaviorInvariance is the paper-facing contract of the
// frontier work: for every algorithm in the plan, the deterministic
// behavior vector — UPDT, EREAD, MSG and the active-fraction series —
// is bit-identical whichever schedule executed it. WORK is excluded:
// it is wall-time based and legitimately varies with the schedule.
func TestFrontierBehaviorInvariance(t *testing.T) {
	cache := &graphCache{}
	ctx := context.Background()
	for _, alg := range algorithms.AllNames() {
		spec := smallSpec(alg)
		base, _, err := runSpecTrace(ctx, spec, 4, algorithms.FrontierDense, cache)
		if err != nil {
			t.Fatalf("%s dense: %v", alg, err)
		}
		for _, mode := range []algorithms.FrontierMode{algorithms.FrontierSparse, algorithms.FrontierAuto} {
			run, _, err := runSpecTrace(ctx, spec, 4, mode, cache)
			if err != nil {
				t.Fatalf("%s %v: %v", alg, mode, err)
			}
			if run.Iterations != base.Iterations {
				t.Fatalf("%s %v: %d iterations, dense ran %d", alg, mode, run.Iterations, base.Iterations)
			}
			if run.Converged != base.Converged {
				t.Fatalf("%s %v: converged=%v, dense %v", alg, mode, run.Converged, base.Converged)
			}
			for _, d := range []int{behavior.UPDT, behavior.EREAD, behavior.MSG} {
				if run.Raw[d] != base.Raw[d] {
					t.Fatalf("%s %v: %s = %v, dense %v — behavior leaked from the schedule",
						alg, mode, behavior.DimNames[d], run.Raw[d], base.Raw[d])
				}
			}
			if len(run.ActiveFraction) != len(base.ActiveFraction) {
				t.Fatalf("%s %v: active series length %d != %d",
					alg, mode, len(run.ActiveFraction), len(base.ActiveFraction))
			}
			for i := range run.ActiveFraction {
				if run.ActiveFraction[i] != base.ActiveFraction[i] {
					t.Fatalf("%s %v: activeFraction[%d] = %v, dense %v",
						alg, mode, i, run.ActiveFraction[i], base.ActiveFraction[i])
				}
			}
		}
	}
}

// TestGraphCacheSingleflight: 16 concurrent requests for one key must
// invoke the builder exactly once and all observe the same value — the
// regression for the duplicate-concurrent-build bug, where a campaign's
// first wave built the same largest graph Parallel times over.
func TestGraphCacheSingleflight(t *testing.T) {
	c := &graphCache{}
	var mu sync.Mutex
	builds := 0
	var wg sync.WaitGroup
	results := make([]any, 16)
	release := make(chan struct{})
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.getOrBuild("k", func() (any, error) {
				mu.Lock()
				builds++
				mu.Unlock()
				<-release // hold the build so every goroutine queues behind it
				return "graph", nil
			})
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	if builds != 1 {
		t.Fatalf("builder invoked %d times for one key, want 1", builds)
	}
	for i, v := range results {
		if v != "graph" {
			t.Fatalf("goroutine %d saw %v", i, v)
		}
	}
	if c.entries() != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.entries())
	}
}

// TestGraphCacheErrorNotCached: a failed build must not poison the key —
// the retry path rebuilds, while concurrent waiters of the failed
// generation still observe its error.
func TestGraphCacheErrorNotCached(t *testing.T) {
	c := &graphCache{}
	boom := errors.New("generator failed")
	if _, err := c.getOrBuild("k", func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("first build err = %v, want %v", err, boom)
	}
	if c.entries() != 0 {
		t.Fatalf("failed build left %d entries cached", c.entries())
	}
	v, err := c.getOrBuild("k", func() (any, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("rebuild after failure = %v, %v; want 42, nil", v, err)
	}
}

// TestGraphCacheRetainRelease exercises plan-derived refcount eviction.
func TestGraphCacheRetainRelease(t *testing.T) {
	c := &graphCache{}
	c.retain(map[string]int{"a": 2, "b": 1})
	for _, k := range []string{"a", "b"} {
		if _, err := c.getOrBuild(k, func() (any, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if c.entries() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.entries())
	}
	c.release("a")
	if c.entries() != 2 {
		t.Fatal("entry evicted while a spec still needs it")
	}
	c.release("b")
	if c.entries() != 1 {
		t.Fatal("last release of b did not evict it")
	}
	c.release("a")
	if c.entries() != 0 {
		t.Fatal("last release of a did not evict it")
	}
	c.release("") // empty keys (per-run workloads) are a no-op
	// A cache without a retained plan never evicts (single-run path).
	c2 := &graphCache{}
	if _, err := c2.getOrBuild("x", func() (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	c2.release("x")
	if c2.entries() != 1 {
		t.Fatal("release evicted from an unretained cache")
	}
}

// TestCampaignReleasesGraphs: after a campaign finishes — including specs
// that share graphs and an uncached per-run workload — every shared graph
// has been released and the cache is empty.
func TestCampaignReleasesGraphs(t *testing.T) {
	var captured *graphCache
	campaignCacheHook = func(c *graphCache) { captured = c }
	defer func() { campaignCacheHook = nil }()

	specs := []Spec{
		{Algorithm: algorithms.CC, NumEdges: 300, Alpha: 2.5, SizeLabel: "300", Seed: 1},
		{Algorithm: algorithms.PR, NumEdges: 300, Alpha: 2.5, SizeLabel: "300", Seed: 1}, // shares CC's graph
		{Algorithm: algorithms.SSSP, NumEdges: 300, Alpha: 2.0, SizeLabel: "300", Seed: 2},
		{Algorithm: algorithms.DD, NumEdges: 80, SizeLabel: "80", Seed: 3}, // uncached per-run workload
	}
	res, err := ExecuteCampaign(context.Background(), specs, Config{Parallel: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(specs) {
		t.Fatalf("completed %d/%d specs", res.Completed, len(specs))
	}
	if captured == nil {
		t.Fatal("campaign cache hook never fired")
	}
	if n := captured.entries(); n != 0 {
		t.Fatalf("campaign finished with %d graphs still cached, want 0", n)
	}
}

// TestCampaignStructureMajorPeak: a campaign over several families holds
// at most Parallel shared graphs at any attempt start, because specs that
// share a graph are dispatched back to back. Plan (algorithm-major) order
// would hold all 20 GA graphs from CC until PR. The dispatch order differs
// from spec order, while the corpus stays in spec order.
func TestCampaignStructureMajorPeak(t *testing.T) {
	plan, err := BuildPlan(ProfileQuick, 1)
	if err != nil {
		t.Fatal(err)
	}
	var specs []Spec
	for _, s := range plan {
		switch s.Algorithm {
		case algorithms.CC, algorithms.SSSP, algorithms.PR, algorithms.ALS, algorithms.Jacobi:
			specs = append(specs, s)
		}
	}
	if len(specs) != 84 {
		t.Fatalf("plan has %d specs, want 84 (20 GA graphs × CC/SSSP/PR, 20 CF graphs, 4 Jacobi)", len(specs))
	}
	for _, par := range []int{1, 2} {
		var captured *graphCache
		campaignCacheHook = func(c *graphCache) { captured = c }
		var mu sync.Mutex
		peak := 0
		var dispatched []string
		res, err := ExecuteCampaign(context.Background(), specs, Config{
			Parallel: par, Workers: 1,
			InjectFault: func(s Spec) error {
				mu.Lock()
				defer mu.Unlock()
				peak = max(peak, captured.entries())
				dispatched = append(dispatched, s.ID())
				return nil
			},
		})
		campaignCacheHook = nil
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != len(specs) {
			t.Fatalf("parallel %d: completed %d/%d specs", par, res.Completed, len(specs))
		}
		if peak > par {
			t.Errorf("parallel %d: %d shared graphs cached at once, want ≤ %d", par, peak, par)
		}
		inSpecOrder := true
		for i, s := range specs {
			inSpecOrder = inSpecOrder && dispatched[i] == s.ID()
			r := res.Runs[i]
			if r.Algorithm != string(s.Algorithm) || r.SizeLabel != s.SizeLabel || r.Alpha != s.Alpha {
				t.Fatalf("parallel %d: Runs[%d] is %s %s %.2f, spec is %s", par, i, r.Algorithm, r.SizeLabel, r.Alpha, s.ID())
			}
		}
		if inSpecOrder {
			t.Errorf("parallel %d: specs were dispatched in spec order", par)
		}
	}
}
