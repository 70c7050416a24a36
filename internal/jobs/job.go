package jobs

import (
	"context"
	"sync"
	"time"

	"gcbench/internal/sweep"
)

// Job is one tracked campaign. Its append-only event log, plus the
// campaign's result once there is one, is all the state it has: State
// and Status fold the log. All methods are safe for concurrent use;
// obtain jobs from Manager.Submit or Manager.Get.
type Job struct {
	id  string
	req Request
	// ctx is the campaign's context, independent of the submitting
	// request so an HTTP-submitted campaign outlives its 202.
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed by the terminal state event

	mu      sync.Mutex
	events  []Event
	updated chan struct{} // closed and replaced on every append
	res     *sweep.CampaignResult
	resErr  error
}

// newJob builds a job whose log opens with its queued event.
func newJob(id string, req Request) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{id: id, req: req, ctx: ctx, cancel: cancel, done: make(chan struct{}), updated: make(chan struct{})}
	j.emit(Event{Type: "state", State: StateQueued})
	return j
}

// ID returns the job's manager-assigned identifier ("j1", "j2", ...).
func (j *Job) ID() string { return j.id }

// State returns the job's current lifecycle state: that of its last
// state event.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := len(j.events) - 1; ; i-- {
		if j.events[i].Type == "state" {
			return j.events[i].State
		}
	}
}

// Status folds the log into a point-in-time snapshot (without queue
// position; see Manager.StatusOf for the queue-aware variant).
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{ID: j.id, Label: j.req.Label, Total: len(j.req.Specs), CreatedAt: j.events[0].Time}
	for _, e := range j.events {
		switch e.Type {
		case "state":
			st.State, st.Error = e.State, e.Error
			if e.State == StateRunning {
				st.StartedAt = e.Time
			} else if e.State.Terminal() {
				st.FinishedAt = e.Time
			}
		case "progress":
			st.Done = max(st.Done, e.Done)
		case "published":
			st.CorpusVersion = e.CorpusVersion
		}
	}
	if r := j.res; r != nil {
		st.Completed, st.Skipped, st.FailedRuns, st.CancelledRuns = r.Completed, r.Skipped, r.Failed, r.Cancelled
		st.Done = len(r.Results)
	}
	return st
}

// Log returns the events from index from on, and a channel closed at the
// next append. Appended events never change, so a reader replays the log
// in place and waits on the channel for more.
func (j *Job) Log(from int) ([]Event, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := len(j.events)
	return j.events[from:n:n], j.updated
}

// emit appends one event to the log and wakes its readers; the terminal
// state event also closes done.
func (j *Job) emit(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e.Seq, e.Time, e.JobID = len(j.events)+1, time.Now().UTC(), j.id
	j.events = append(j.events, e)
	close(j.updated)
	j.updated = make(chan struct{})
	if e.Type == "state" && e.State.Terminal() {
		close(j.done)
	}
}

func (j *Job) setResult(res *sweep.CampaignResult, err error) {
	j.mu.Lock()
	j.res, j.resErr = res, err
	j.mu.Unlock()
}
