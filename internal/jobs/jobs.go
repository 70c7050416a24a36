// Package jobs is the asynchronous campaign-execution subsystem: a
// bounded-queue job manager that wraps the resilient sweep runner
// (sweep.ExecuteCampaign) so campaigns can be submitted, observed,
// cancelled and garbage-collected while the rest of the process keeps
// running. Its one caller is the `gcbench serve` campaign API; `gcbench
// sweep` calls sweep.ExecuteCampaign directly, so its -listen /metrics
// has no gcbench_jobs_* families.
//
// The manager runs one campaign at a time (a campaign is parallel
// inside already; see sweep.Config) and queues at most QueueDepth more
// behind it, FIFO. A submission past that bound is refused with
// ErrQueueFull, which the HTTP layer maps to 429 — backpressure instead
// of unbounded memory.
//
// Every job owns a cancellable context and walks one state machine:
//
//	queued ──────────────► running ───────────► ok
//	   │                      │                  │ (publish failure
//	   │ Cancel               │ Cancel           ▼  demotes to failed)
//	   └──────────► cancelled ◄┘            failed
//
// ok, failed and cancelled are terminal. The 64 newest terminal jobs are
// retained, so clients can read results after completion without the
// manager growing forever.
//
// A job's state is its append-only event log: queued, running, one
// progress event per finished spec, published, and the terminal state.
// Status folds it, and the serve layer's NDJSON stream reads it in place
// (Job.Log). When a publish sink is installed (SetPublish), a job that
// completes with measured runs pushes them into the live corpus before
// its terminal state becomes visible, so a client that polls "state ==
// ok" can rely on the corpus already containing the new runs.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"gcbench/internal/behavior"
	"gcbench/internal/obs"
	"gcbench/internal/obs/otrace"
	"gcbench/internal/sweep"
)

// State is a job's position in the lifecycle state machine.
type State string

// Job states. StateOK, StateFailed and StateCancelled are terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateOK        State = "ok"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateOK || s == StateFailed || s == StateCancelled
}

// Sentinel errors of the submission path.
var (
	// ErrQueueFull refuses a submission when a campaign is running and
	// QueueDepth more are already waiting (HTTP 429).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrClosed refuses submissions after Close.
	ErrClosed = errors.New("jobs: manager closed")
)

// retain bounds how many terminal jobs are kept for later inspection
// before the oldest are evicted.
const retain = 64

// Event is one entry in a job's ordered progress stream.
type Event struct {
	// Seq numbers the job's events from 1; heartbeats emitted by the
	// HTTP layer carry Seq 0.
	Seq   int       `json:"seq"`
	Time  time.Time `json:"time"`
	JobID string    `json:"jobId"`
	// Type is "state" (lifecycle transition), "progress" (one campaign
	// spec finished), "published" (runs appended to the live corpus), or
	// "heartbeat" (stream keepalive, HTTP layer only).
	Type string `json:"type"`
	// State accompanies "state" events.
	State State `json:"state,omitempty"`
	// Done/Total/RunID accompany "progress" events.
	Done  int    `json:"done,omitempty"`
	Total int    `json:"total,omitempty"`
	RunID string `json:"runId,omitempty"`
	// CorpusVersion accompanies "published" events.
	CorpusVersion int64 `json:"corpusVersion,omitempty"`
	// Error accompanies terminal "state" events of failed jobs.
	Error string `json:"error,omitempty"`
}

// Request describes one campaign submission.
type Request struct {
	// Specs is the campaign plan; must be non-empty.
	Specs []sweep.Spec
	// Config is the resilient-runner configuration (timeout, retries,
	// parallelism). The manager sets Config.Progress to its own event
	// emission. The serve API sets no Journal, so a job cancelled or shut
	// down mid-campaign drops its finished runs: only an ok job publishes.
	Config sweep.Config
	// Label is a human-readable tag echoed in Status ("sweep -profile
	// quick", "PR smoke", ...).
	Label string
	// Span, when non-nil, is the submitting request's root span. The
	// manager opens a child "job" span under it when the campaign starts —
	// linking the asynchronous execution back to the 202 request that
	// submitted it, across the async boundary — and the job span becomes
	// the parent of every per-run span the sweep runner opens.
	Span *otrace.Span
}

// Status is a JSON-encodable point-in-time snapshot of one job.
type Status struct {
	ID    string `json:"id"`
	Label string `json:"label,omitempty"`
	State State  `json:"state"`
	// QueuePosition is the 1-based position among waiting jobs (0 once
	// the job leaves the queue).
	QueuePosition int `json:"queuePosition,omitempty"`
	// Total is the campaign's spec count; Done counts finished specs.
	Total int `json:"total"`
	Done  int `json:"done"`
	// Terminal accounting, mirroring sweep.CampaignResult.
	Completed     int    `json:"completed"`
	Skipped       int    `json:"skipped"`
	FailedRuns    int    `json:"failedRuns"`
	CancelledRuns int    `json:"cancelledRuns"`
	Error         string `json:"error,omitempty"`
	// CorpusVersion is the corpus version the job's runs were published
	// as (0 when nothing was published).
	CorpusVersion int64     `json:"corpusVersion,omitempty"`
	CreatedAt     time.Time `json:"createdAt"`
	StartedAt     time.Time `json:"startedAt,omitzero"`
	FinishedAt    time.Time `json:"finishedAt,omitzero"`
}

// PublishFunc pushes a completed job's measured runs into a live corpus
// and returns the published corpus version. Installed by the serving
// layer via Manager.SetPublish.
type PublishFunc func(jobID string, runs []*behavior.Run) (int64, error)

// ExecuteFunc runs one campaign; the default is sweep.ExecuteCampaign.
// Overridable for lifecycle tests that need controllable run durations.
type ExecuteFunc func(ctx context.Context, specs []sweep.Spec, cfg sweep.Config) (*sweep.CampaignResult, error)

// Config parameterizes a Manager.
type Config struct {
	// QueueDepth bounds jobs waiting behind the running one before
	// Submit refuses with ErrQueueFull (default 16).
	QueueDepth int
	// Registry receives the gcbench_jobs_* metrics (default obs.Default()).
	Registry *obs.Registry
	// Execute runs a campaign (default sweep.ExecuteCampaign; test seam).
	Execute ExecuteFunc
}

// Manager schedules campaign jobs. Construct with NewManager; the zero
// value is not usable.
type Manager struct {
	cfg Config

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string // submission order, for List and GC
	queue   []*Job   // FIFO of jobs waiting for the runner
	running *Job     // the campaign executing; nil when the runner is free
	nextID  int
	closed  bool
	publish PublishFunc

	mSubmitted *obs.Counter
	mShed      *obs.Counter
	mOK        *obs.Counter
	mFailed    *obs.Counter
	mCancelled *obs.Counter
	mPublished *obs.Counter
	gQueued    *obs.Gauge
	gRunning   *obs.Gauge
	gRetained  *obs.Gauge
}

// NewManager builds a Manager from cfg, applying defaults.
func NewManager(cfg Config) *Manager {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default()
	}
	if cfg.Execute == nil {
		cfg.Execute = sweep.ExecuteCampaign
	}
	reg := cfg.Registry
	return &Manager{
		cfg:  cfg,
		jobs: make(map[string]*Job),

		mSubmitted: reg.Counter("gcbench_jobs_submitted_total", "Campaign jobs accepted by Submit."),
		mShed:      reg.Counter("gcbench_jobs_shed_total", "Submissions refused because the queue was full."),
		mOK:        reg.Counter("gcbench_jobs_ok_total", "Jobs that reached the ok terminal state."),
		mFailed:    reg.Counter("gcbench_jobs_failed_total", "Jobs that reached the failed terminal state."),
		mCancelled: reg.Counter("gcbench_jobs_cancelled_total", "Jobs that reached the cancelled terminal state."),
		mPublished: reg.Counter("gcbench_jobs_published_runs_total", "Measured runs published into the live corpus."),
		gQueued:    reg.Gauge("gcbench_jobs_queued", "Jobs waiting for a running slot."),
		gRunning:   reg.Gauge("gcbench_jobs_running", "Campaigns executing right now."),
		gRetained:  reg.Gauge("gcbench_jobs_retained", "Jobs currently tracked (queued + running + retained terminal)."),
	}
}

// SetPublish installs the corpus publish sink consulted when a job
// completes with measured runs. Publication happens before the terminal
// state is emitted, and a publish error demotes the job to failed.
func (m *Manager) SetPublish(fn PublishFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.publish = fn
}

// Submit accepts a campaign for asynchronous execution: started at once
// when no campaign is running, otherwise queued FIFO. Returns
// ErrQueueFull when the queue is full and ErrClosed after Close.
func (m *Manager) Submit(req Request) (*Job, error) {
	if len(req.Specs) == 0 {
		return nil, fmt.Errorf("jobs: empty campaign (no specs)")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if m.running != nil && len(m.queue) >= m.cfg.QueueDepth {
		m.mShed.Inc()
		return nil, ErrQueueFull
	}
	m.nextID++
	j := newJob(fmt.Sprintf("j%d", m.nextID), req)
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.mSubmitted.Inc()
	if m.running == nil {
		m.running = j
		go m.run(j)
	} else {
		m.queue = append(m.queue, j)
	}
	m.updateGaugesLocked()
	return j, nil
}

// Get returns a tracked job by ID (false after GC eviction).
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns every tracked job's status in submission order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	jobs := make([]*Job, len(m.order))
	for i, id := range m.order {
		jobs[i] = m.jobs[id]
	}
	m.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = m.StatusOf(j)
	}
	return out
}

// StatusOf renders a job's status, including its live queue position.
func (m *Manager) StatusOf(j *Job) Status {
	st := j.Status()
	if st.State == StateQueued {
		m.mu.Lock()
		st.QueuePosition = slices.Index(m.queue, j) + 1
		m.mu.Unlock()
	}
	return st
}

// Cancel stops a job: a queued job is retired as cancelled without ever
// starting, a running one has its context cancelled (the sweep runner
// stops at its next iteration barriers and the job finalizes
// asynchronously). Cancelling a terminal job is a no-op.
func (m *Manager) Cancel(j *Job) {
	m.mu.Lock()
	i := slices.Index(m.queue, j)
	if i >= 0 {
		m.queue = slices.Delete(m.queue, i, i+1)
		m.updateGaugesLocked()
	}
	m.mu.Unlock()
	if i >= 0 {
		m.retire(j, "cancelled while queued")
	} else {
		j.cancel()
	}
}

// Close stops accepting submissions, retires every queued job, cancels
// the running one and waits for it to finalize until ctx expires.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	queued, running := m.queue, m.running
	m.queue = nil
	m.updateGaugesLocked()
	m.mu.Unlock()

	for _, j := range queued {
		m.retire(j, "cancelled: manager closed")
	}
	if running == nil {
		return nil
	}
	running.cancel()
	select {
	case <-running.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retire finalizes a job taken off the queue before it started, with
// what ExecuteCampaign returns under a pre-cancelled context: every spec
// accounted for as cancelled, nothing run.
func (m *Manager) retire(j *Job, msg string) {
	res := &sweep.CampaignResult{Results: make([]sweep.RunResult, len(j.req.Specs)), Cancelled: len(j.req.Specs)}
	for i, s := range j.req.Specs {
		res.Results[i] = sweep.RunResult{Spec: s, Status: behavior.StatusCancelled, Err: context.Canceled.Error()}
	}
	j.cancel()
	j.setResult(res)
	m.finalize(j, StateCancelled, msg)
}

// run executes one campaign, finalizes the job and hands the runner to
// the next queued job.
func (m *Manager) run(j *Job) {
	defer j.cancel()
	j.emit(Event{Type: "state", State: StateRunning})

	// The job span survives the submitting request's 202: its parent (the
	// serve root span) has long ended, but the trace keeps accepting
	// children, so the queryable tree shows the submission and the
	// asynchronous execution as one request. Nil-safe throughout — an
	// untraced submission propagates a nil span and nothing records.
	jobSpan := j.req.Span.StartChild("job "+j.id, "job",
		otrace.Int("specs", len(j.req.Specs)),
		otrace.String("label", j.req.Label))
	ctx := otrace.ContextWithSpan(j.ctx, jobSpan)

	cfg := j.req.Config
	cfg.Progress = func(done, total int, id string) {
		j.emit(Event{Type: "progress", Done: done, Total: total, RunID: id})
	}

	res, err := m.cfg.Execute(ctx, j.req.Specs, cfg)
	j.setResult(res)

	state, msg := StateOK, ""
	switch {
	case err != nil && (errors.Is(err, context.Canceled) || ctx.Err() != nil):
		state, msg = StateCancelled, err.Error()
	case err != nil:
		state, msg = StateFailed, err.Error()
	case res != nil && res.Failed > 0:
		state = StateFailed
		msg = fmt.Sprintf("%d of %d runs failed", res.Failed, len(j.req.Specs))
	}

	// Publish before the terminal state becomes visible: a client that
	// observes state ok can rely on the corpus already holding the runs.
	if state == StateOK && res != nil && len(res.Runs) > 0 {
		m.mu.Lock()
		pub := m.publish
		m.mu.Unlock()
		if pub != nil {
			version, perr := pub(j.id, res.Runs)
			if perr != nil {
				state, msg = StateFailed, fmt.Sprintf("publishing %d runs: %v", len(res.Runs), perr)
			} else {
				m.mPublished.Add(float64(len(res.Runs)))
				j.emit(Event{Type: "published", CorpusVersion: version})
			}
		}
	}

	switch state {
	case StateFailed:
		jobSpan.Fail(msg)
	case StateCancelled:
		jobSpan.SetAttr("cancelled", true)
	}
	jobSpan.End()

	m.finalize(j, state, msg)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.running = nil
	if !m.closed && len(m.queue) > 0 {
		m.running, m.queue = m.queue[0], m.queue[1:]
		go m.run(m.running)
	}
	m.updateGaugesLocked()
}

// finalize emits a job's terminal state, bumps the terminal counters,
// and evicts the oldest terminal jobs beyond the retain bound.
func (m *Manager) finalize(j *Job, state State, msg string) {
	j.emit(Event{Type: "state", State: state, Error: msg})
	switch state {
	case StateOK:
		m.mOK.Inc()
	case StateFailed:
		m.mFailed.Inc()
	case StateCancelled:
		m.mCancelled.Inc()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	excess := -retain
	for _, job := range m.jobs {
		if job.State().Terminal() {
			excess++
		}
	}
	m.order = slices.DeleteFunc(m.order, func(id string) bool {
		if excess > 0 && m.jobs[id].State().Terminal() {
			excess--
			delete(m.jobs, id)
			return true
		}
		return false
	})
	m.updateGaugesLocked()
}

// updateGaugesLocked refreshes the queue/running/retained gauges.
// Callers hold m.mu.
func (m *Manager) updateGaugesLocked() {
	running := 0.0
	if m.running != nil {
		running = 1
	}
	m.gQueued.Set(float64(len(m.queue)))
	m.gRunning.Set(running)
	m.gRetained.Set(float64(len(m.jobs)))
}
