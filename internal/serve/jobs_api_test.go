package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gcbench/internal/behavior"
	"gcbench/internal/jobs"
	"gcbench/internal/obs"
	"gcbench/internal/sweep"
)

// newJobsServer builds a Server with the async campaign API enabled.
// The manager's Execute defaults to the real sweep runner unless the
// mutate hook installs a test seam.
func newJobsServer(t testing.TB, jcfg jobs.Config, mutate func(*Config)) (*Server, *jobs.Manager) {
	t.Helper()
	if jcfg.Registry == nil {
		jcfg.Registry = obs.NewRegistry()
	}
	mgr := jobs.NewManager(jcfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		mgr.Close(ctx)
	})
	s := newTestServer(t, func(cfg *Config) {
		cfg.Jobs = mgr
		if mutate != nil {
			mutate(cfg)
		}
	})
	return s, mgr
}

func postCampaign(t testing.TB, s *Server, body string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/api/campaigns", strings.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	s.Handler().ServeHTTP(w, r)
	return w
}

func decodeJob(t testing.TB, w *httptest.ResponseRecorder) jobs.Status {
	t.Helper()
	var resp struct {
		Job jobs.Status `json:"job"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding job envelope: %v\n%s", err, w.Body.String())
	}
	return resp.Job
}

// TestCampaignJobE2E drives the full async-campaign pipeline over a real
// HTTP server: submit a small PR campaign, follow its NDJSON event
// stream to completion, and verify the completed runs were hot-published
// into the live corpus — visible to /api/runs and usable by
// /api/ensemble/design without a restart, with the behavior space still
// max-normalized.
func TestCampaignJobE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real (small) sweep campaign")
	}
	s, _ := newJobsServer(t, jobs.Config{}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	before := s.cluster.View().Merged
	beforeRuns := before.OKCount()

	resp, err := http.Post(ts.URL+"/api/campaigns", "application/json",
		strings.NewReader(`{"profile":"quick","algorithms":["PR"],"label":"e2e"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := func() (map[string]any, error) {
		defer resp.Body.Close()
		var m map[string]any
		return m, json.NewDecoder(resp.Body).Decode(&m)
	}()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /api/campaigns = %d: %v", resp.StatusCode, body)
	}
	jobID := body["job"].(map[string]any)["id"].(string)

	// Follow the event stream to the terminal state.
	stream, err := http.Get(ts.URL + "/api/jobs/" + jobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Fatalf("event stream Content-Type = %q", ct)
	}
	var progressEvents, publishedVersion int
	var terminal string
	sc := bufio.NewScanner(stream.Body)
	deadline := time.After(2 * time.Minute)
	lines := make(chan string)
	go func() {
		defer close(lines)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
stream:
	for {
		select {
		case line, open := <-lines:
			if !open {
				break stream
			}
			var e jobs.Event
			if err := json.Unmarshal([]byte(line), &e); err != nil {
				t.Fatalf("non-JSON NDJSON line %q: %v", line, err)
			}
			switch e.Type {
			case "progress":
				progressEvents++
			case "published":
				publishedVersion = int(e.CorpusVersion)
			case "state":
				if e.State.Terminal() {
					terminal = string(e.State)
				}
			}
		case <-deadline:
			t.Fatal("event stream did not terminate within 2 minutes")
		}
	}
	if terminal != "ok" {
		t.Fatalf("campaign finished %q, want ok", terminal)
	}
	if progressEvents == 0 {
		t.Fatal("stream delivered no progress events")
	}
	if publishedVersion != int(before.Version)+1 {
		t.Fatalf("published corpus version %d, want %d", publishedVersion, before.Version+1)
	}

	// The corpus grew in place: more ok runs, new version, and the
	// max-normalization invariant still holds for every point.
	after := s.cluster.View().Merged
	if after.Version != before.Version+1 {
		t.Fatalf("store version %d, want %d", after.Version, before.Version+1)
	}
	if after.OKCount() <= beforeRuns {
		t.Fatalf("ok runs %d after publish, want > %d", after.OKCount(), beforeRuns)
	}
	for _, space := range []*behavior.Space{after.Space, after.Pool} {
		for i, p := range space.Points {
			for d := 0; d < behavior.Dims; d++ {
				if p[d] > 1.0 {
					t.Fatalf("renormalization violated: point %d dim %d = %v > 1", i, d, p[d])
				}
			}
		}
	}

	// /api/runs reflects the new corpus without restart...
	var runsResp struct {
		CorpusVersion int64 `json:"corpusVersion"`
		Count         int   `json:"count"`
	}
	rr, err := http.Get(ts.URL + "/api/runs")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(rr.Body).Decode(&runsResp)
	rr.Body.Close()
	if runsResp.CorpusVersion != after.Version || runsResp.Count != len(after.Records) {
		t.Fatalf("/api/runs sees version %d count %d, want %d/%d",
			runsResp.CorpusVersion, runsResp.Count, after.Version, len(after.Records))
	}

	// ...and so does ensemble design.
	dr, err := http.Post(ts.URL+"/api/ensemble/design", "application/json",
		strings.NewReader(`{"metric":"spread","n":5}`))
	if err != nil {
		t.Fatal(err)
	}
	var design struct {
		CorpusVersion int64 `json:"corpusVersion"`
	}
	json.NewDecoder(dr.Body).Decode(&design)
	dr.Body.Close()
	if dr.StatusCode != http.StatusOK || design.CorpusVersion != after.Version {
		t.Fatalf("design after publish: status %d corpusVersion %d, want 200/%d",
			dr.StatusCode, design.CorpusVersion, after.Version)
	}

	// The job survives as queryable history.
	var jobResp struct {
		Job jobs.Status `json:"job"`
	}
	jr, _ := http.Get(ts.URL + "/api/jobs/" + jobID)
	json.NewDecoder(jr.Body).Decode(&jobResp)
	jr.Body.Close()
	if jobResp.Job.State != jobs.StateOK || jobResp.Job.CorpusVersion != after.Version {
		t.Fatalf("final job status: %+v", jobResp.Job)
	}
}

// blockingExecute parks campaigns until release is closed, honouring the
// jobs context like the real runner.
func blockingExecute(release <-chan struct{}) jobs.ExecuteFunc {
	return func(ctx context.Context, specs []sweep.Spec, cfg sweep.Config) (*sweep.CampaignResult, error) {
		select {
		case <-release:
			res := &sweep.CampaignResult{Completed: len(specs)}
			for _, sp := range specs {
				res.Results = append(res.Results, sweep.RunResult{Spec: sp, Status: behavior.StatusOK})
			}
			return res, nil
		case <-ctx.Done():
			return &sweep.CampaignResult{Cancelled: len(specs)}, ctx.Err()
		}
	}
}

func TestCampaignValidation(t *testing.T) {
	s, _ := newJobsServer(t, jobs.Config{}, nil)
	for _, tc := range []struct {
		name, body, want string // want: a substring of the message
	}{
		{"bad json", `{`, "decoding body"},
		{"unknown field", `{"prfile":"quick"}`, "unknown field"},
		{"bad profile", `{"profile":"gigantic"}`, "unknown profile"},
		{"bad algorithm", `{"algorithms":["PAGERANKZ"]}`, "unknown algorithm"},
		{"empty plan", `{"profile":"quick","algorithms":["PR"],"sizes":["1e9"]}`, "no campaign specs match"},
		{"negative retries", `{"retries":-1}`, "retries must be ≥ 0, got -1"},
		{"negative parallel", `{"profile":"quick","parallel":-1}`, "parallel must be ≥ 0, got -1"},
		{"negative workers", `{"profile":"quick","workers":-2}`, "workers must be ≥ 0, got -2"},
		{"negative timeout", `{"profile":"quick","timeoutSeconds":-0.5}`, "timeoutSeconds must be ≥ 0, got -0.5"},
		{"timeout past time.Duration", `{"profile":"quick","timeoutSeconds":1e10}`, "timeoutSeconds must be below 9.223372036854776e+09 (the longest time.Duration), got 1e+10"},
	} {
		w := postCampaign(t, s, tc.body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, w.Code, w.Body.String())
			continue
		}
		if code := decodeError(t, w); code != "invalid_request" {
			t.Errorf("%s: error code %q", tc.name, code)
		}
		if !strings.Contains(w.Body.String(), tc.want) {
			t.Errorf("%s: message %s does not say %q", tc.name, w.Body.String(), tc.want)
		}
	}
}

func TestCampaignQueueFullReturns429(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s, _ := newJobsServer(t, jobs.Config{
		QueueDepth: 1, Execute: blockingExecute(release),
	}, nil)

	body := `{"profile":"quick","algorithms":["PR"]}`
	if w := postCampaign(t, s, body); w.Code != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", w.Code, w.Body.String())
	}
	if w := postCampaign(t, s, body); w.Code != http.StatusAccepted {
		t.Fatalf("second submit: %d %s", w.Code, w.Body.String())
	}
	w := postCampaign(t, s, body)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("third submit: %d, want 429 (%s)", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if code := decodeError(t, w); code != "queue_full" {
		t.Errorf("error code %q, want queue_full", code)
	}
}

func TestJobEndpointsUnknownID(t *testing.T) {
	s, _ := newJobsServer(t, jobs.Config{}, nil)
	if w := get(t, s, "/api/jobs/j999"); w.Code != http.StatusNotFound {
		t.Fatalf("GET unknown job: %d", w.Code)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodDelete, "/api/jobs/j999", nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("DELETE unknown job: %d", w.Code)
	}
}

func TestJobCancelViaHTTP(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s, mgr := newJobsServer(t, jobs.Config{
		Execute: blockingExecute(release),
	}, nil)

	running := decodeJob(t, postCampaign(t, s, `{"profile":"quick","algorithms":["PR"]}`))
	queued := decodeJob(t, postCampaign(t, s, `{"profile":"quick","algorithms":["CC"]}`))
	if queued.QueuePosition != 1 {
		t.Fatalf("second job queue position %d, want 1", queued.QueuePosition)
	}

	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodDelete, "/api/jobs/"+queued.ID, nil))
	if w.Code != http.StatusAccepted {
		t.Fatalf("DELETE queued job: %d %s", w.Code, w.Body.String())
	}
	j, _ := mgr.Get(queued.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if st, err := waitJob(ctx, j); err != nil || st != jobs.StateCancelled {
		t.Fatalf("queued job after DELETE: state %s err %v", st, err)
	}

	// A second DELETE conflicts.
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodDelete, "/api/jobs/"+queued.ID, nil))
	if w.Code != http.StatusConflict {
		t.Fatalf("second DELETE: %d, want 409", w.Code)
	}
	if code := decodeError(t, w); code != "already_terminal" {
		t.Errorf("error code %q", code)
	}
	_ = running
}

// TestJobEventsHeartbeatAndDisconnect exercises the NDJSON stream over a
// real connection: an idle running job produces heartbeat lines, and a
// client disconnect ends the handler promptly.
func TestJobEventsHeartbeatAndDisconnect(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s, _ := newJobsServer(t, jobs.Config{Execute: blockingExecute(release)}, nil)
	s.jobsHeartbeat = 20 * time.Millisecond
	returned := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.Handler().ServeHTTP(w, r)
		if strings.HasSuffix(r.URL.Path, "/events") {
			close(returned)
		}
	}))
	defer ts.Close()

	st := decodeJob(t, postCampaign(t, s, `{"profile":"quick","algorithms":["PR"]}`))

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/api/jobs/"+st.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	heartbeats := 0
	for sc.Scan() && heartbeats < 2 {
		var e jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if e.Type == "heartbeat" {
			heartbeats++
		}
	}
	if heartbeats < 2 {
		t.Fatalf("saw %d heartbeats before stream ended", heartbeats)
	}

	// Disconnect: the stream's handler must return.
	cancel()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("event stream handler still running after client disconnect")
	}
}

// TestJobEventsStreamEndsOnCompletion verifies the NDJSON response
// terminates by itself once the job reaches a terminal state.
func TestJobEventsStreamEndsOnCompletion(t *testing.T) {
	release := make(chan struct{})
	s, _ := newJobsServer(t, jobs.Config{Execute: blockingExecute(release)}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st := decodeJob(t, postCampaign(t, s, `{"profile":"quick","algorithms":["PR"]}`))
	resp, err := http.Get(ts.URL + "/api/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	close(release) // let the campaign finish while the stream is attached

	done := make(chan string, 1)
	go func() {
		var last string
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			last = sc.Text()
		}
		done <- last
	}()
	select {
	case last := <-done:
		var e jobs.Event
		if err := json.Unmarshal([]byte(last), &e); err != nil {
			t.Fatalf("last line %q: %v", last, err)
		}
		if e.Type != "state" || !e.State.Terminal() {
			t.Fatalf("stream ended on %+v, want terminal state event", e)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not terminate after job completion")
	}
}

func TestStatuszCountsJobs(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s, mgr := newJobsServer(t, jobs.Config{Execute: blockingExecute(release)}, nil)
	first := decodeJob(t, postCampaign(t, s, `{"profile":"quick","algorithms":["PR"]}`))
	postCampaign(t, s, `{"profile":"quick","algorithms":["CC"]}`)

	// Submission returns before the manager's goroutine flips the first
	// job to running; wait for the transition before sampling /statusz.
	j, _ := mgr.Get(first.ID)
	deadline := time.Now().Add(5 * time.Second)
	for j.State() != jobs.StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("first job never started (state %s)", j.State())
		}
		time.Sleep(time.Millisecond)
	}

	w := get(t, s, "/statusz")
	var st map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	jobsAny, ok := st["jobs"].(map[string]any)
	if !ok {
		t.Fatalf("statusz has no jobs section: %s", w.Body.String())
	}
	if fmt.Sprint(jobsAny["running"]) != "1" || fmt.Sprint(jobsAny["queued"]) != "1" {
		t.Fatalf("statusz jobs = %v, want 1 running / 1 queued", jobsAny)
	}
}

// FuzzCampaignRequest posts arbitrary bytes to POST /api/campaigns over
// a blocking executor. Whatever the body, the handler must not panic and
// must answer 202, 400, 413 or 429; a 202 describes a non-empty
// campaign, and a positive timeout is never refused as negative.
func FuzzCampaignRequest(f *testing.F) {
	for _, seed := range []string{
		`{"profile":"quick","algorithms":["PR"]}`,
		`{"profile":"quick","models":["pregel","xstream"],"sizes":["1e3"],"alphas":[2]}`,
		`{"profile":"quick","timeoutSeconds":1e10}`,
		`{"profile":"quick","timeoutSeconds":9.2e9,"retries":2}`,
		`{"profile":"quick","timeoutSeconds":-0.5}`,
		`{"profile":"large","seed":7,"parallel":2,"workers":1}`,
		`{"algorithms":["PAGERANKZ"]}`,
		`{"prfile":"quick"}`,
		`{`,
		``,
	} {
		f.Add([]byte(seed))
	}
	s, mgr := newJobsServer(f, jobs.Config{Execute: blockingExecute(nil)}, nil)
	f.Fuzz(func(t *testing.T, body []byte) {
		w := postCampaign(t, s, string(body))
		switch w.Code {
		case http.StatusAccepted:
			st := decodeJob(t, w)
			if st.Total < 1 {
				t.Fatalf("202 for an empty campaign: %+v", st)
			}
			// Keep the runner and queue free for the next input.
			job, _ := mgr.Get(st.ID)
			mgr.Cancel(job)
		case http.StatusBadRequest:
			var req campaignRequest
			msg := w.Body.String()
			if json.Unmarshal(body, &req) == nil && req.TimeoutSeconds > 0 &&
				strings.Contains(msg, "timeout") && strings.Contains(msg, "≥ 0") {
				t.Fatalf("positive timeoutSeconds %g refused as negative: %s", req.TimeoutSeconds, msg)
			}
		case http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
		default:
			t.Fatalf("status %d for %q: %s", w.Code, body, w.Body.String())
		}
	})
}

// waitJob blocks until j is terminal or ctx expires, returning the job's
// final state (or its current state with ctx's error on timeout). It
// follows the event log the way the events endpoint does.
func waitJob(ctx context.Context, j *jobs.Job) (jobs.State, error) {
	for {
		_, more := j.Log(0)
		if st := j.State(); st.Terminal() {
			return st, nil
		}
		select {
		case <-more:
		case <-ctx.Done():
			return j.State(), ctx.Err()
		}
	}
}
