package jobs

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"gcbench/internal/behavior"
	"gcbench/internal/obs"
	"gcbench/internal/sweep"
)

func testSpecs(n int) []sweep.Spec {
	specs := make([]sweep.Spec, n)
	for i := range specs {
		specs[i] = sweep.Spec{Algorithm: "PR", SizeLabel: fmt.Sprint(100 + i), Alpha: 2.0, Seed: 1}
	}
	return specs
}

func okResult(specs []sweep.Spec) *sweep.CampaignResult {
	res := &sweep.CampaignResult{Completed: len(specs)}
	for _, s := range specs {
		res.Results = append(res.Results, sweep.RunResult{Spec: s, Status: behavior.StatusOK})
		res.Runs = append(res.Runs, &behavior.Run{Algorithm: "PR", SizeLabel: s.SizeLabel, Alpha: s.Alpha})
	}
	return res
}

// instantExec completes immediately, reporting one progress tick per spec.
func instantExec(ctx context.Context, specs []sweep.Spec, cfg sweep.Config) (*sweep.CampaignResult, error) {
	for i, s := range specs {
		if cfg.Progress != nil {
			cfg.Progress(i+1, len(specs), s.ID())
		}
	}
	return okResult(specs), nil
}

// blockingExec returns an ExecuteFunc that blocks until release is
// closed or the campaign context is cancelled (mirroring the sweep
// runner's cancellation contract: res non-nil, err = ctx.Err()).
func blockingExec(release <-chan struct{}) ExecuteFunc {
	return func(ctx context.Context, specs []sweep.Spec, cfg sweep.Config) (*sweep.CampaignResult, error) {
		select {
		case <-release:
			return okResult(specs), nil
		case <-ctx.Done():
			res := &sweep.CampaignResult{Cancelled: len(specs)}
			for _, s := range specs {
				res.Results = append(res.Results, sweep.RunResult{
					Spec: s, Status: behavior.StatusCancelled, Err: ctx.Err().Error(),
				})
			}
			return res, ctx.Err()
		}
	}
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	m := NewManager(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Close(ctx)
	})
	return m
}

func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("job %s: wait: %v (state %s)", j.ID(), err, got)
	}
	if got != want {
		t.Fatalf("job %s: terminal state %s, want %s", j.ID(), got, want)
	}
}

// terminalEvent returns the last event of a terminal job's log, which
// must be its terminal state event.
func terminalEvent(t *testing.T, j *Job) Event {
	t.Helper()
	log, _ := j.Log(0)
	e := log[len(log)-1]
	if e.Type != "state" || !e.State.Terminal() {
		t.Fatalf("job %s: last event %+v is not a terminal state", j.ID(), e)
	}
	return e
}

func TestJobRunsToOKAndPublishes(t *testing.T) {
	m := newTestManager(t, Config{Execute: instantExec})
	published := make(chan int, 1)
	m.SetPublish(func(jobID string, runs []*behavior.Run) (int64, error) {
		published <- len(runs)
		return 7, nil
	})
	specs := testSpecs(3)
	j, err := m.Submit(Request{Specs: specs, Label: "ok"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateOK)
	select {
	case n := <-published:
		if n != 3 {
			t.Fatalf("published %d runs, want 3", n)
		}
	default:
		t.Fatal("publish sink never called")
	}
	st := m.StatusOf(j)
	if st.CorpusVersion != 7 || st.Done != 3 || st.Completed != 3 {
		t.Fatalf("status after ok: %+v", st)
	}

	// The event stream must show the full lifecycle in order: queued,
	// running, three progress ticks, published, ok.
	var types []string
	events, _ := j.Log(0)
	for _, e := range events {
		types = append(types, e.Type+"/"+string(e.State))
	}
	want := []string{"state/queued", "state/running", "progress/", "progress/", "progress/", "published/", "state/ok"}
	if len(types) != len(want) {
		t.Fatalf("events %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("event[%d] = %s, want %s (all: %v)", i, types[i], want[i], types)
		}
	}
}

func TestCancelWhileQueuedNeverExecutes(t *testing.T) {
	release := make(chan struct{})
	executed := make(chan string, 8)
	exec := blockingExec(release)
	m := newTestManager(t, Config{
		Execute: func(ctx context.Context, specs []sweep.Spec, cfg sweep.Config) (*sweep.CampaignResult, error) {
			executed <- specs[0].SizeLabel
			return exec(ctx, specs, cfg)
		},
	})
	first, err := m.Submit(Request{Specs: testSpecs(1)})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(Request{Specs: testSpecs(2)})
	if err != nil {
		t.Fatal(err)
	}
	if st := m.StatusOf(queued); st.State != StateQueued || st.QueuePosition != 1 {
		t.Fatalf("second job not queued at position 1: %+v", st)
	}

	m.Cancel(queued)
	waitState(t, queued, StateCancelled)
	if e := terminalEvent(t, queued); e.State != StateCancelled || e.Error != "cancelled while queued" {
		t.Fatalf("cancelled-while-queued terminal event = %+v", e)
	}
	if st := queued.Status(); st.Done != 2 || st.CancelledRuns != 2 {
		t.Fatalf("cancelled-while-queued status = %+v, want 2 cancelled specs", st)
	}

	close(release)
	waitState(t, first, StateOK)
	// Only the first job's campaign may ever have reached the executor.
	if n := len(executed); n != 1 {
		t.Fatalf("%d campaigns executed, want 1 (cancelled job must never start)", n)
	}
}

func TestCancelMidRunFinalizesCancelled(t *testing.T) {
	m := newTestManager(t, Config{Execute: blockingExec(nil)})
	publishCalls := 0
	m.SetPublish(func(string, []*behavior.Run) (int64, error) {
		publishCalls++
		return 1, nil
	})
	j, err := m.Submit(Request{Specs: testSpecs(2)})
	if err != nil {
		t.Fatal(err)
	}
	// Let it reach running before cancelling.
	deadline := time.Now().Add(5 * time.Second)
	for j.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job never started (state %s)", j.State())
		}
		time.Sleep(time.Millisecond)
	}
	m.Cancel(j)
	waitState(t, j, StateCancelled)
	if publishCalls != 0 {
		t.Fatalf("cancelled job published %d times; cancelled runs must not enter the corpus", publishCalls)
	}
	// Cancelling again is a no-op.
	m.Cancel(j)
	if st := j.Status(); st.State != StateCancelled || st.CancelledRuns != 2 {
		t.Fatalf("status after a second cancel: %+v", st)
	}
}

func TestQueueFullSheds(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	reg := obs.NewRegistry()
	m := newTestManager(t, Config{QueueDepth: 1, Registry: reg, Execute: blockingExec(release)})
	if _, err := m.Submit(Request{Specs: testSpecs(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(Request{Specs: testSpecs(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(Request{Specs: testSpecs(1)}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: err = %v, want ErrQueueFull", err)
	}
}

func TestQueuedJobStartsAfterSlotFrees(t *testing.T) {
	release := make(chan struct{})
	m := newTestManager(t, Config{Execute: blockingExec(release)})
	first, _ := m.Submit(Request{Specs: testSpecs(1)})
	second, err := m.Submit(Request{Specs: testSpecs(1)})
	if err != nil {
		t.Fatal(err)
	}
	if second.State() != StateQueued {
		t.Fatalf("second job state %s, want queued", second.State())
	}
	close(release)
	waitState(t, first, StateOK)
	waitState(t, second, StateOK)
}

func TestFailedRunsDemoteJob(t *testing.T) {
	m := newTestManager(t, Config{
		Execute: func(ctx context.Context, specs []sweep.Spec, cfg sweep.Config) (*sweep.CampaignResult, error) {
			res := okResult(specs)
			res.Completed--
			res.Failed = 1
			res.Results[0].Status = behavior.StatusFailed
			return res, nil
		},
	})
	j, _ := m.Submit(Request{Specs: testSpecs(2)})
	waitState(t, j, StateFailed)
	if st := m.StatusOf(j); st.Error == "" || st.FailedRuns != 1 {
		t.Fatalf("failed job status: %+v", st)
	}
}

func TestPublishErrorDemotesJob(t *testing.T) {
	m := newTestManager(t, Config{Execute: instantExec})
	m.SetPublish(func(string, []*behavior.Run) (int64, error) {
		return 0, errors.New("corpus on fire")
	})
	j, _ := m.Submit(Request{Specs: testSpecs(1)})
	waitState(t, j, StateFailed)
	if st := m.StatusOf(j); st.CorpusVersion != 0 {
		t.Fatalf("corpus version %d recorded despite publish failure", st.CorpusVersion)
	}
}

func TestLogReplaysAndTerminates(t *testing.T) {
	m := newTestManager(t, Config{Execute: instantExec})
	j, _ := m.Submit(Request{Specs: testSpecs(2)})
	waitState(t, j, StateOK)

	// A reader that comes after completion replays everything, ending on
	// the terminal event; nothing follows it. No publish sink is
	// installed, so there is no published event.
	got, _ := j.Log(0)
	if len(got) != 2+3 || got[len(got)-1].State != StateOK {
		t.Fatalf("log %+v, want 5 events ending in the terminal ok state event", got)
	}
	for i, e := range got {
		if e.Seq != i+1 || e.JobID != j.ID() {
			t.Fatalf("event %d has seq %d, job %q; the log must be gapless from 1", i, e.Seq, e.JobID)
		}
	}
	if rest, _ := j.Log(len(got)); len(rest) != 0 {
		t.Fatalf("log grew after the terminal event: %+v", rest)
	}
}

func TestLogWakesOnAppend(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	m := newTestManager(t, Config{Execute: blockingExec(release)})
	m.Submit(Request{Specs: testSpecs(1)}) // holds the runner
	queued, _ := m.Submit(Request{Specs: testSpecs(1)})

	events, updated := queued.Log(0)
	if len(events) != 1 || events[0].State != StateQueued {
		t.Fatalf("queued job's log %+v, want its one queued event", events)
	}
	select {
	case <-updated:
		t.Fatal("wake-up channel closed with no new event")
	default:
	}
	m.Cancel(queued)
	select {
	case <-updated:
	case <-time.After(5 * time.Second):
		t.Fatal("appending the cancelled event did not wake the reader")
	}
	if rest, _ := queued.Log(1); len(rest) != 1 || rest[0].State != StateCancelled {
		t.Fatalf("log after cancel %+v, want one cancelled event", rest)
	}
}

// TestQueuedCancelAccountsEveryRun retires a queued job through Cancel
// and through Close: either way every spec is a cancelled run.
func TestQueuedCancelAccountsEveryRun(t *testing.T) {
	for _, path := range []string{"Cancel", "Close"} {
		release := make(chan struct{})
		m := newTestManager(t, Config{Execute: blockingExec(release)})
		m.Submit(Request{Specs: testSpecs(1)})
		queued, _ := m.Submit(Request{Specs: testSpecs(3)})
		msg := "cancelled while queued"
		if path == "Cancel" {
			m.Cancel(queued)
		} else {
			msg = "cancelled: manager closed"
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := m.Close(ctx); err != nil {
				t.Fatalf("close: %v", err)
			}
			cancel()
		}
		waitState(t, queued, StateCancelled)
		st := queued.Status()
		if st.Done != 3 || st.CancelledRuns != 3 || st.Total != 3 {
			t.Errorf("%s: done %d, cancelledRuns %d, total %d; want 3 each", path, st.Done, st.CancelledRuns, st.Total)
		}
		if e := terminalEvent(t, queued); e.State != StateCancelled || e.Error != msg {
			t.Errorf("%s: terminal event %+v, want state cancelled, error %q", path, e, msg)
		}
		close(release)
	}
}

// TestCancelBeforeRunStarts cancels a job the runner has taken but may
// not have marked running yet: the cancel must still take effect.
func TestCancelBeforeRunStarts(t *testing.T) {
	m := newTestManager(t, Config{Execute: blockingExec(nil)})
	for i := 0; i < 50; i++ {
		j, err := m.Submit(Request{Specs: testSpecs(1)})
		if err != nil {
			t.Fatal(err)
		}
		m.Cancel(j)
		waitState(t, j, StateCancelled)
	}
}

func TestRetainEvictsOldestTerminal(t *testing.T) {
	m := newTestManager(t, Config{Execute: instantExec})
	var ids []string
	for i := 0; i < retain+2; i++ {
		j, err := m.Submit(Request{Specs: testSpecs(1)})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, j, StateOK)
		ids = append(ids, j.ID())
	}
	for _, id := range ids[:2] {
		if _, ok := m.Get(id); ok {
			t.Fatalf("job %s should have been GC'd (retain=%d)", id, retain)
		}
	}
	if _, ok := m.Get(ids[2]); !ok {
		t.Fatalf("job %s is within the retain bound and must survive GC", ids[2])
	}
	if got := len(m.List()); got != retain {
		t.Fatalf("%d jobs tracked, want %d", got, retain)
	}
}

func TestCloseCancelsQueuedAndRefusesSubmits(t *testing.T) {
	release := make(chan struct{})
	m := NewManager(Config{Registry: obs.NewRegistry(), Execute: blockingExec(release)})
	running, _ := m.Submit(Request{Specs: testSpecs(1)})
	queued, _ := m.Submit(Request{Specs: testSpecs(1)})

	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		closed <- m.Close(ctx)
	}()
	waitState(t, running, StateCancelled) // Close cancels the running job's context
	waitState(t, queued, StateCancelled)
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := m.Submit(Request{Specs: testSpecs(1)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: err = %v, want ErrClosed", err)
	}
}

func TestSubmitEmptyCampaign(t *testing.T) {
	m := newTestManager(t, Config{Execute: instantExec})
	if _, err := m.Submit(Request{}); err == nil {
		t.Fatal("empty campaign accepted")
	}
}
