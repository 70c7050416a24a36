package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"gcbench/internal/algorithms"
	"gcbench/internal/behavior"
	"gcbench/internal/corpus"
	"gcbench/internal/jobs"
	"gcbench/internal/model"
	"gcbench/internal/obs/otrace"
	"gcbench/internal/sweep"
)

// campaignRequest is the POST /api/campaigns body: a campaign plan
// (profile × optional restrictions) plus the resilient-runner knobs.
type campaignRequest struct {
	// Profile scales the plan: "quick", "standard" (default) or "large".
	Profile string `json:"profile"`
	// Seed selects the campaign's graph streams (default 42, the CLI's).
	Seed uint64 `json:"seed"`
	// Label is echoed in job status listings.
	Label string `json:"label"`
	// Algorithms/Sizes/Alphas restrict the plan to matching specs
	// (empty = no restriction), so a client can submit a one-algorithm
	// smoke campaign without paying for the full Table 2 grid.
	Algorithms []string  `json:"algorithms"`
	Sizes      []string  `json:"sizes"`
	Alphas     []float64 `json:"alphas"`
	// Models expands the plan across execution models (empty = GAS only,
	// the pre-model-axis behavior). Each model contributes the plan
	// restricted to the algorithms it implements.
	Models []string `json:"models"`
	// Parallel/Workers are the sweep.Config parallelism knobs (0 = auto).
	Parallel int `json:"parallel"`
	Workers  int `json:"workers"`
	// TimeoutSeconds is the per-run wall-clock budget (0 = unlimited).
	TimeoutSeconds float64 `json:"timeoutSeconds"`
	// Retries is the extra-attempt budget per failed or timed-out run.
	Retries int `json:"retries"`
}

// config is the request's sweep.Config knobs.
func (req *campaignRequest) config() sweep.Config {
	return sweep.Config{
		Parallel: req.Parallel,
		Workers:  req.Workers,
		Timeout:  time.Duration(req.TimeoutSeconds * float64(time.Second)),
		Retries:  req.Retries,
	}
}

// buildSpecs validates the request and materializes its campaign plan.
func (req *campaignRequest) buildSpecs() ([]sweep.Spec, error) {
	if req.Profile == "" {
		req.Profile = string(sweep.ProfileStandard)
	}
	if req.Seed == 0 {
		req.Seed = 42
	}
	if req.TimeoutSeconds < 0 {
		return nil, errInvalidf("timeoutSeconds must be ≥ 0, got %g", req.TimeoutSeconds)
	}
	// A float64 of 2⁶³ or more has no time.Duration; converting it is
	// implementation-defined, so refuse it before config() does.
	if req.TimeoutSeconds*float64(time.Second) >= math.MaxInt64 {
		return nil, errInvalidf("timeoutSeconds must be below %g (the longest time.Duration), got %g",
			float64(math.MaxInt64)/float64(time.Second), req.TimeoutSeconds)
	}
	if err := req.config().Validate(); err != nil {
		return nil, errInvalidf("%v", err)
	}
	for i, a := range req.Algorithms {
		name, err := algorithms.Parse(a)
		if err != nil {
			return nil, errInvalidf("algorithms: %v", err)
		}
		req.Algorithms[i] = string(name)
	}
	models := make([]model.Name, 0, len(req.Models))
	for i, m := range req.Models {
		name, err := model.Parse(m)
		if err != nil {
			return nil, errInvalidf("models: %v", err)
		}
		req.Models[i] = string(name)
		models = append(models, name)
	}
	plan, err := sweep.BuildPlanModels(sweep.Profile(req.Profile), req.Seed, models)
	if err != nil {
		return nil, errInvalidf("%v", err)
	}
	// The restriction is the corpus filter's predicate, so a campaign
	// selects exactly the tuples a query with the same terms would list.
	restrict := corpus.Filter{Algorithms: req.Algorithms, Sizes: req.Sizes, Alphas: req.Alphas}
	specs := plan[:0]
	for _, s := range plan {
		if restrict.Matches(&corpus.Record{Algorithm: string(s.Algorithm), SizeLabel: s.SizeLabel, Alpha: s.Alpha}) {
			specs = append(specs, s)
		}
	}
	if len(specs) == 0 {
		return nil, errInvalidf("no campaign specs match the given algorithm/size/alpha/model restrictions")
	}
	return specs, nil
}

// handleSubmitCampaign serves POST /api/campaigns: validated spec →
// queued job, 202 with the job's status, or 429 when the manager's
// queue is full (backpressure, mirroring the design worker pool).
func (s *Server) handleSubmitCampaign(w http.ResponseWriter, r *http.Request) {
	var req campaignRequest
	if !decodeBody(w, r, &req) {
		return
	}
	specs, err := req.buildSpecs()
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_request", "%v", err)
		return
	}
	label := req.Label
	if label == "" {
		label = fmt.Sprintf("campaign profile=%s seed=%d (%d specs)", req.Profile, req.Seed, len(specs))
	}
	job, err := s.cfg.Jobs.Submit(jobs.Request{
		Specs:  specs,
		Label:  label,
		Span:   otrace.FromContext(r.Context()),
		Config: req.config(),
	})
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		w.Header().Set("Retry-After", retryAfterJitter(5))
		writeError(w, http.StatusTooManyRequests, "queue_full",
			"campaign queue is full; retry later or cancel a queued job")
		return
	case errors.Is(err, jobs.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "shutting_down", "job manager is shutting down")
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "invalid_request", "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"job": s.cfg.Jobs.StatusOf(job)})
}

// handleJobs serves GET /api/jobs: every tracked job in submission order.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	list := s.cfg.Jobs.List()
	writeJSON(w, http.StatusOK, map[string]any{"count": len(list), "jobs": list})
}

// jobByID resolves the {id} path value, writing the 404 envelope itself.
func (s *Server) jobByID(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	id := r.PathValue("id")
	job, ok := s.cfg.Jobs.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no job with id %q (finished jobs are eventually GC'd)", id)
	}
	return job, ok
}

// handleJob serves GET /api/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobByID(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"job": s.cfg.Jobs.StatusOf(job)})
}

// handleJobCancel serves DELETE /api/jobs/{id}: cooperative cancellation.
// Queued jobs are terminal immediately; running ones stop at their next
// engine iteration barriers and finalize asynchronously — poll the job
// (or read its events) for the terminal state.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobByID(w, r)
	if !ok {
		return
	}
	if state := job.State(); state.Terminal() {
		writeError(w, http.StatusConflict, "already_terminal",
			"job %s already finished with state %q", job.ID(), state)
		return
	}
	s.cfg.Jobs.Cancel(job)
	writeJSON(w, http.StatusAccepted, map[string]any{"job": s.cfg.Jobs.StatusOf(job)})
}

// handleJobEvents serves GET /api/jobs/{id}/events: the job's event log
// as NDJSON — one JSON event per line, read in place from the first,
// then each as it is appended, with heartbeat lines every 15 s of
// silence so intermediaries keep the connection open. The stream ends
// after the terminal state event, or when the client disconnects.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobByID(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	writeEvent := func(e jobs.Event) bool {
		if err := enc.Encode(e); err != nil {
			return false
		}
		_ = rc.Flush()
		return true
	}

	heartbeat := time.NewTicker(s.jobsHeartbeat)
	defer heartbeat.Stop()
	for next := 0; ; {
		events, updated := job.Log(next)
		next += len(events)
		for _, e := range events {
			if !writeEvent(e) || (e.Type == "state" && e.State.Terminal()) {
				return
			}
		}
		if len(events) > 0 {
			heartbeat.Reset(s.jobsHeartbeat)
		}
		select {
		case <-updated:
		case <-heartbeat.C:
			if !writeEvent(jobs.Event{Type: "heartbeat", JobID: job.ID(), Time: time.Now().UTC()}) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// publishRuns is the jobs.Manager publish sink: append the completed
// job's measured runs to the live corpus (which renormalizes the
// behavior space corpus-wide, preserving the ≤ 1.0 max-normalization
// invariant).
//
// The caches are deliberately not purged: the append republishes only
// the shards that own the new records, and cache keys embed the shard
// version vector (designs) or the owning shard's version plus the
// normalization epoch (record fragments), so entries built from
// unchanged shards keep serving and superseded keys age out of the LRU.
func (s *Server) publishRuns(jobID string, runs []*behavior.Run) (int64, error) {
	view, err := s.cluster.Append(context.Background(), runs, "job "+jobID)
	if err != nil {
		return 0, err
	}
	s.mPublishes.Inc()
	return view.Epoch(), nil
}
