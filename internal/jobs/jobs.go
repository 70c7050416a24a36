// Package jobs is the asynchronous campaign-execution subsystem: a
// bounded-queue job manager that wraps the resilient sweep runner
// (sweep.ExecuteCampaign) so campaigns can be submitted, observed,
// cancelled and garbage-collected while the rest of the process keeps
// running. Its one caller is the `gcbench serve` campaign API; `gcbench
// sweep` calls sweep.ExecuteCampaign directly, so its -listen /metrics
// has no gcbench_jobs_* families.
//
// The manager is a FIFO scheduler with two bounds: MaxRunning campaigns
// execute concurrently, and at most QueueDepth more wait behind them.
// A submission past both bounds is refused with ErrQueueFull, which the
// HTTP layer maps to 429 — backpressure instead of unbounded memory.
//
// Every job owns a cancellable context and walks one state machine:
//
//	queued ──────────────► running ───────────► ok
//	   │                      │                  │ (publish failure
//	   │ Cancel               │ Cancel           ▼  demotes to failed)
//	   └──────────► cancelled ◄┘            failed
//
// ok, failed and cancelled are terminal. Terminal jobs are retained
// (bounded by Retain, oldest evicted first) so clients can read results
// after completion without the manager growing forever.
//
// Progress is a subscribable event stream: the manager re-emits the
// sweep runner's per-spec progress callbacks as ordered Events that any
// number of watchers can replay-then-follow (Job.Watch) — the data
// source for the serve layer's NDJSON streams. When a publish sink is
// installed (SetPublish), a job that completes with measured runs pushes
// them into the live corpus before its terminal state becomes visible,
// so a client that polls "state == ok" can rely on the corpus already
// containing the new runs.
package jobs

import (
	"context"
	"errors"
	"fmt"
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
	// ErrQueueFull refuses a submission when MaxRunning jobs are running
	// and QueueDepth more are already waiting (HTTP 429).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrClosed refuses submissions after Close.
	ErrClosed = errors.New("jobs: manager closed")
	// ErrNotFound reports an unknown (or GC-evicted) job ID.
	ErrNotFound = errors.New("jobs: no such job")
)

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
	// journal, parallelism). The manager sets Config.Progress to its own
	// event emission.
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
	// MaxRunning bounds concurrently executing campaigns (default 1 —
	// campaigns are internally parallel already; see sweep.Config).
	MaxRunning int
	// QueueDepth bounds jobs waiting behind the running ones before
	// Submit refuses with ErrQueueFull (default 16).
	QueueDepth int
	// Retain bounds how many terminal jobs are kept for later inspection
	// before the oldest are evicted (default 64).
	Retain int
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
	queue   []*Job   // FIFO of jobs waiting for a running slot
	running int
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
	if cfg.MaxRunning <= 0 {
		cfg.MaxRunning = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.Retain <= 0 {
		cfg.Retain = 64
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

// Submit accepts a campaign for asynchronous execution: immediately
// started when a running slot is free, otherwise queued FIFO. Returns
// ErrQueueFull when both bounds are exhausted and ErrClosed after Close.
func (m *Manager) Submit(req Request) (*Job, error) {
	if len(req.Specs) == 0 {
		return nil, fmt.Errorf("jobs: empty campaign (no specs)")
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	start := m.running < m.cfg.MaxRunning
	if !start && len(m.queue) >= m.cfg.QueueDepth {
		m.mu.Unlock()
		m.mShed.Inc()
		return nil, ErrQueueFull
	}
	m.nextID++
	j := &Job{
		id:        fmt.Sprintf("j%d", m.nextID),
		label:     req.Label,
		req:       req,
		total:     len(req.Specs),
		createdAt: time.Now().UTC(),
		state:     StateQueued,
		updated:   make(chan struct{}),
		done:      make(chan struct{}),
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	if start {
		m.running++
	} else {
		m.queue = append(m.queue, j)
	}
	m.updateGaugesLocked()
	m.mu.Unlock()

	m.mSubmitted.Inc()
	j.emit(Event{Type: "state", State: StateQueued})
	if start {
		m.start(j)
	}
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
	ids := append([]string(nil), m.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, m.jobs[id])
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
		for i, q := range m.queue {
			if q == j {
				st.QueuePosition = i + 1
				break
			}
		}
		m.mu.Unlock()
	}
	return st
}

// Cancel stops a job: a queued job transitions to cancelled without ever
// starting, a running one has its context cancelled (the sweep runner
// stops at its next iteration barriers and the job finalizes
// asynchronously). Cancelling a terminal job is a no-op. Returns
// ErrNotFound for unknown IDs.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return ErrNotFound
	}
	wasQueued := false
	for i, q := range m.queue {
		if q == j {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			wasQueued = true
			break
		}
	}
	m.updateGaugesLocked()
	m.mu.Unlock()

	if wasQueued {
		// Mirror what ExecuteCampaign returns under a pre-cancelled
		// context: every spec accounted for as cancelled, nothing run.
		res := &sweep.CampaignResult{
			Results:   make([]sweep.RunResult, len(j.req.Specs)),
			Cancelled: len(j.req.Specs),
		}
		for i, s := range j.req.Specs {
			res.Results[i] = sweep.RunResult{
				Spec: s, Status: behavior.StatusCancelled, Err: context.Canceled.Error(),
			}
		}
		j.setResult(res, context.Canceled)
		m.finalize(j, StateCancelled, "cancelled while queued")
		return nil
	}
	j.cancelCtx()
	return nil
}

// Close stops accepting submissions, cancels every queued and running
// job, and waits for running jobs to finalize until ctx expires.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	queued := m.queue
	m.queue = nil
	inQueue := make(map[*Job]bool, len(queued))
	for _, j := range queued {
		inQueue[j] = true
	}
	// Every non-terminal job off the queue has been started (its campaign
	// goroutine may not have marked it running yet), so it must be
	// cancelled and awaited, not finalized here.
	var active []*Job
	for _, j := range m.jobs {
		if !inQueue[j] && !j.State().Terminal() {
			active = append(active, j)
		}
	}
	m.updateGaugesLocked()
	m.mu.Unlock()

	for _, j := range queued {
		j.setResult(nil, context.Canceled)
		m.finalize(j, StateCancelled, "cancelled: manager closed")
	}
	for _, j := range active {
		j.cancelCtx()
	}
	for _, j := range active {
		select {
		case <-j.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// start launches a job's campaign goroutine. The job context is
// independent of any submitting request so an HTTP-submitted campaign
// outlives its submission request.
func (m *Manager) start(j *Job) {
	ctx, cancel := context.WithCancel(context.Background())
	j.setCancel(cancel)
	go m.run(ctx, j)
}

// run executes one campaign and finalizes the job.
func (m *Manager) run(ctx context.Context, j *Job) {
	defer j.cancelCtx()
	j.markRunning()

	// The job span survives the submitting request's 202: its parent (the
	// serve root span) has long ended, but the trace keeps accepting
	// children, so the queryable tree shows the submission and the
	// asynchronous execution as one request. Nil-safe throughout — an
	// untraced submission propagates a nil span and nothing records.
	jobSpan := j.req.Span.StartChild("job "+j.id, "job",
		otrace.Int("specs", len(j.req.Specs)),
		otrace.String("label", j.label))
	ctx = otrace.ContextWithSpan(ctx, jobSpan)

	cfg := j.req.Config
	cfg.Progress = func(done, total int, id string) {
		j.noteProgress(done)
		j.emit(Event{Type: "progress", Done: done, Total: total, RunID: id})
	}

	res, err := m.cfg.Execute(ctx, j.req.Specs, cfg)
	j.setResult(res, err)

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
				j.setCorpusVersion(version)
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
	m.scheduleNext()
}

// finalize moves a job to a terminal state, bumps the terminal counters,
// and evicts the oldest retained terminal jobs past the Retain bound.
func (m *Manager) finalize(j *Job, state State, msg string) {
	j.finish(state, msg)
	switch state {
	case StateOK:
		m.mOK.Inc()
	case StateFailed:
		m.mFailed.Inc()
	case StateCancelled:
		m.mCancelled.Inc()
	}
	m.gc()
}

// scheduleNext frees the finished job's running slot and starts the
// oldest queued job, if any.
func (m *Manager) scheduleNext() {
	m.mu.Lock()
	m.running--
	var next *Job
	if !m.closed && len(m.queue) > 0 {
		next = m.queue[0]
		m.queue = m.queue[1:]
		m.running++
	}
	m.updateGaugesLocked()
	m.mu.Unlock()
	if next != nil {
		m.start(next)
	}
}

// gc evicts the oldest terminal jobs beyond the Retain bound.
func (m *Manager) gc() {
	m.mu.Lock()
	defer m.mu.Unlock()
	var terminal []string
	for _, id := range m.order {
		if m.jobs[id].State().Terminal() {
			terminal = append(terminal, id)
		}
	}
	for len(terminal) > m.cfg.Retain {
		id := terminal[0]
		terminal = terminal[1:]
		delete(m.jobs, id)
		for i, o := range m.order {
			if o == id {
				m.order = append(m.order[:i], m.order[i+1:]...)
				break
			}
		}
	}
	m.updateGaugesLocked()
}

// updateGaugesLocked refreshes the queue/running/retained gauges.
// Callers hold m.mu.
func (m *Manager) updateGaugesLocked() {
	m.gQueued.Set(float64(len(m.queue)))
	m.gRunning.Set(float64(m.running))
	m.gRetained.Set(float64(len(m.jobs)))
}
