package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gcbench/internal/jobs"
)

// TestServeLoadSmoke is the CI load-smoke: the handler on a real
// listener over the shipped standard corpus, a burst of mixed concurrent
// traffic, and two assertions — zero 5xx responses, and p99 latency under a bound
// generous enough for a loaded CI machine yet tight enough to catch a
// lost-wakeup or lock-convoy regression. The 4×2 deployment adds
// campaign submissions (429 from the full queue is fine) and keeps the
// load going until one has reached ok: a hot publish lands mid-load.
func TestServeLoadSmoke(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) (*Server, *jobs.Manager)
	}{
		{"1x1", func(t *testing.T) (*Server, *jobs.Manager) { return newTestServer(t, nil), nil }},
		{"4x2-publishing", func(t *testing.T) (*Server, *jobs.Manager) {
			return newJobsServer(t, jobs.Config{MaxRunning: 1, QueueDepth: 2}, func(cfg *Config) {
				cfg.Cluster = clusterOver(t, standardSnapshot(t), 4, 2)
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { testServeLoad(t, tc.build) })
	}
}

func testServeLoad(t *testing.T, build func(t *testing.T) (*Server, *jobs.Manager)) {
	s, mgr := build(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := ts.Config.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	const (
		clients     = 8
		perClient   = 20
		p99Bound    = 5 * time.Second
		totalBudget = 60 * time.Second
	)
	base := ts.URL
	client := &http.Client{Timeout: totalBudget}
	version := func() int64 {
		var c struct{ CorpusVersion int64 }
		json.Unmarshal(get(t, s, "/api/corpus").Body.Bytes(), &c)
		return c.CorpusVersion
	}
	published := func() bool { // a campaign reached ok, so its publish landed
		return slices.ContainsFunc(mgr.List(), func(st jobs.Status) bool { return st.State == jobs.StateOK })
	}
	before, ops, deadline := version(), 5, time.Now().Add(totalBudget)
	if mgr != nil {
		ops = 6
	}

	// A mixed request schedule: listings, point lookups, predictions,
	// and a handful of distinct design searches that exercise cache,
	// coalescing, and the worker pool together.
	do := func(i int) (*http.Response, error) {
		switch i % ops {
		case 0:
			return client.Get(base + "/api/runs?algorithm=PR,CC")
		case 1:
			return client.Get(base + "/api/behavior/PR_1e5_a2.5")
		case 2:
			return client.Get(base + "/api/predict?algorithm=CC&edges=250000&alpha=2.5")
		case 3:
			return client.Get(base + fmt.Sprintf("/api/ensemble/best?n=%d", 3+i%4))
		case 4:
			body := fmt.Sprintf(`{"n": %d, "method": "exchange"}`, 2+i%4)
			return client.Post(base+"/api/ensemble/design", "application/json", strings.NewReader(body))
		default:
			return client.Post(base+"/api/campaigns", "application/json",
				strings.NewReader(`{"profile":"quick","algorithms":["PR"],"label":"load"}`))
		}
	}

	var (
		mu        sync.Mutex
		latencies []time.Duration
		server5xx int
		failures  []string
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient || (mgr != nil && !published() && time.Now().Before(deadline)); i++ {
				begin := time.Now()
				resp, err := do(c*perClient + i)
				elapsed := time.Since(begin)
				mu.Lock()
				if err != nil {
					failures = append(failures, err.Error())
				} else {
					latencies = append(latencies, elapsed)
					if resp.StatusCode >= 500 {
						server5xx++
					}
				}
				mu.Unlock()
				if err == nil {
					discardBody(resp)
				}
			}
		}(c)
	}
	wg.Wait()

	if len(failures) > 0 {
		t.Fatalf("%d transport failures, first: %s", len(failures), failures[0])
	}
	if server5xx > 0 {
		t.Fatalf("%d responses with 5xx status under load", server5xx)
	}
	if mgr != nil && (!published() || version() <= before) {
		t.Fatalf("no publish during the load: campaign ok %t, corpus version %d → %d", published(), before, version())
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p99 := latencies[len(latencies)*99/100-1]
	t.Logf("requests=%d p50=%v p99=%v searches=%d corpusVersion=%d→%d",
		len(latencies), latencies[len(latencies)/2], p99, s.Searches(), before, version())
	if p99 > p99Bound {
		t.Fatalf("p99 latency %v exceeds %v", p99, p99Bound)
	}
}
