package sweep

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gcbench/internal/behavior"
	"gcbench/internal/obs"
)

// scrapeMetrics fetches /metrics and parses the label-free samples.
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		out[name] = f
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func scrapeStatus(t *testing.T, url string) CampaignStatus {
	t.Helper()
	resp, err := http.Get(url + "/statusz")
	if err != nil {
		t.Fatalf("statusz: %v", err)
	}
	defer resp.Body.Close()
	var s CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatalf("statusz decode: %v", err)
	}
	return s
}

// TestCampaignLiveObservability is the acceptance scenario for the HTTP
// surface: a campaign runs with an attached tracker and observability
// server; /metrics and /statusz are scraped mid-flight (counters must be
// monotone, status must always account for every spec), and the final
// scrape must match the campaign's saved corpus exactly. Runs under the
// race detector in CI.
func TestCampaignLiveObservability(t *testing.T) {
	specs := campaignSpecs(10)
	tracker := NewTracker()
	mux := http.NewServeMux()
	obs.RegisterRoutes(mux, obs.ServerOptions{
		Status: func() any { return tracker.Snapshot() },
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// Throttle the campaign so the mid-flight scrapes observe it live.
	var slow sync.Once
	cfg := Config{
		Parallel: 2, Workers: 1,
		Tracker: tracker,
		InjectFault: func(Spec) error {
			slow.Do(func() { time.Sleep(50 * time.Millisecond) })
			return nil
		},
	}

	type outcome struct {
		res *CampaignResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := ExecuteCampaign(context.Background(), specs, cfg)
		done <- outcome{res, err}
	}()

	// Mid-flight scrapes: counters monotone, status totals conserved.
	counters := []string{
		"gcbench_sweep_runs_started_total",
		"gcbench_sweep_runs_completed_total",
		"gcbench_engine_iterations_total",
		"gcbench_engine_updates_total",
	}
	prev := scrapeMetrics(t, srv.URL)
	for i := 0; i < 5; i++ {
		time.Sleep(10 * time.Millisecond)
		cur := scrapeMetrics(t, srv.URL)
		for _, c := range counters {
			if cur[c] < prev[c] {
				t.Errorf("scrape %d: counter %s went backwards: %v -> %v", i, c, prev[c], cur[c])
			}
		}
		st := scrapeStatus(t, srv.URL)
		if st.Total != len(specs) {
			t.Errorf("scrape %d: statusz total = %d, want %d", i, st.Total, len(specs))
		}
		if sum := st.Pending + st.Running + st.Completed + st.Skipped + st.Failed + st.Cancelled; sum != st.Total {
			t.Errorf("scrape %d: statusz states sum to %d, total %d", i, sum, st.Total)
		}
		prev = cur
	}

	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}

	// Final scrape must agree with the saved corpus.
	st := scrapeStatus(t, srv.URL)
	if st.Completed != len(out.res.Runs) {
		t.Fatalf("final statusz completed = %d, corpus has %d runs", st.Completed, len(out.res.Runs))
	}
	if st.Pending != 0 || st.Running != 0 || st.Failed != 0 {
		t.Fatalf("final statusz not settled: %+v", st)
	}
	final := scrapeMetrics(t, srv.URL)
	for _, c := range counters {
		if final[c] < prev[c] {
			t.Fatalf("final counter %s went backwards: %v -> %v", c, prev[c], final[c])
		}
	}
	// The completed counter must have advanced by at least this
	// campaign's successes (other tests share the default registry, so
	// exact equality is not assertable).
	if final["gcbench_sweep_runs_completed_total"] < float64(out.res.Completed) {
		t.Fatalf("completed counter %v < campaign completions %d",
			final["gcbench_sweep_runs_completed_total"], out.res.Completed)
	}
	// Every per-run state in the final status is terminal and matches a
	// result in the corpus accounting.
	for _, rs := range st.Runs {
		if rs.State != string(behavior.StatusOK) {
			t.Fatalf("final run state %q for %s", rs.State, rs.ID)
		}
		if rs.Attempts < 1 || rs.StartedAt == "" {
			t.Fatalf("final run %s missing attempt accounting: %+v", rs.ID, rs)
		}
	}
}

// TestRunResultProvenance verifies every executed spec carries its
// execution environment and timing, and that the checkpoint journal
// persists it.
func TestRunResultProvenance(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir + "/prov.journal")
	if err != nil {
		t.Fatal(err)
	}
	specs := campaignSpecs(3)
	res, err := ExecuteCampaign(context.Background(), specs, Config{Parallel: 2, Workers: 1, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Results {
		p := r.Provenance
		if p == nil {
			t.Fatalf("%s: no provenance", r.Spec.ID())
		}
		if p.GoVersion != runtime.Version() {
			t.Errorf("%s: GoVersion = %q", r.Spec.ID(), p.GoVersion)
		}
		if p.GOMAXPROCS < 1 {
			t.Errorf("%s: GOMAXPROCS = %d", r.Spec.ID(), p.GOMAXPROCS)
		}
		if p.StartedAt.IsZero() || p.FinishedAt.Before(p.StartedAt) {
			t.Errorf("%s: timestamps %v .. %v", r.Spec.ID(), p.StartedAt, p.FinishedAt)
		}
	}
	// Journal round-trip preserves provenance.
	entries, err := LoadJournal(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(specs) {
		t.Fatalf("journal entries = %d, want %d", len(entries), len(specs))
	}
	for _, e := range entries {
		if e.Provenance == nil || e.Provenance.GoVersion == "" || e.Provenance.StartedAt.IsZero() {
			t.Fatalf("journal entry %s lacks provenance: %+v", e.ID, e.Provenance)
		}
	}
}

// TestTrackerSnapshotLifecycle pins the tracker state machine on a
// campaign with a permanent failure.
func TestTrackerSnapshotLifecycle(t *testing.T) {
	specs := campaignSpecs(4)
	poison := specs[1].ID()
	tracker := NewTracker()
	cfg := Config{
		Parallel: 2, Workers: 1, Retries: 1, RetryBackoff: time.Millisecond,
		Tracker: tracker,
		InjectFault: func(s Spec) error {
			if s.ID() == poison {
				return context.DeadlineExceeded
			}
			return nil
		},
	}
	if _, err := ExecuteCampaign(context.Background(), specs, cfg); err != nil {
		t.Fatal(err)
	}
	st := tracker.Snapshot()
	if st.Total != 4 || st.Completed != 3 || st.Failed != 1 {
		t.Fatalf("snapshot = %+v", st)
	}
	for _, rs := range st.Runs {
		if rs.ID == poison {
			if rs.State != string(behavior.StatusTimeout) || rs.Attempts != 2 || rs.Err == "" {
				t.Fatalf("poisoned run state = %+v", rs)
			}
		}
	}
	if st.ETAMs == nil || *st.ETAMs != 0 {
		t.Fatalf("finished campaign ETA = %v, want 0", st.ETAMs)
	}
	if st.RunSeconds == nil || st.RunSeconds.Count == 0 {
		t.Fatalf("finished campaign has no run-duration percentiles: %+v", st.RunSeconds)
	}
	if !(st.RunSeconds.P50 <= st.RunSeconds.P95 && st.RunSeconds.P95 <= st.RunSeconds.P99) {
		t.Fatalf("percentiles not monotone: %+v", st.RunSeconds)
	}
}

// TestStatusETANullBeforeFirstFinish: a campaign with zero finished
// specs must report a null ETA, not 0 — extrapolating from nothing would
// render a bogus "done now" figure.
func TestStatusETANullBeforeFirstFinish(t *testing.T) {
	tracker := NewTracker()
	tracker.begin(campaignSpecs(2))
	st := tracker.Snapshot()
	if st.ETAMs != nil {
		t.Fatalf("ETA before any finish = %d, want null", *st.ETAMs)
	}
	body, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"etaMs":null`) {
		t.Fatalf("etaMs does not render as JSON null: %s", body)
	}
}
