package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"gcbench/internal/behavior"
	"gcbench/internal/obs"
	"gcbench/internal/obs/otrace"
	"gcbench/internal/trace"
)

// Campaign metrics on the process-wide obs registry.
var (
	metricRunsStarted   = obs.Default().Counter("gcbench_sweep_runs_started_total", "Run attempts started (retries included).")
	metricRunsCompleted = obs.Default().Counter("gcbench_sweep_runs_completed_total", "Specs finished successfully.")
	metricRunsFailed    = obs.Default().Counter("gcbench_sweep_runs_failed_total", "Specs that exhausted every attempt (failed + timeout).")
	metricRunsRetried   = obs.Default().Counter("gcbench_sweep_runs_retried_total", "Extra attempts after a failed or timed-out first attempt.")
	metricRunsSkipped   = obs.Default().Counter("gcbench_sweep_runs_skipped_total", "Specs restored from a checkpoint journal (resume).")
	metricRunsCancelled = obs.Default().Counter("gcbench_sweep_runs_cancelled_total", "Specs stopped or never started due to cancellation.")
	metricQueueDepth    = obs.Default().Gauge("gcbench_sweep_queue_depth", "Specs not yet finished in the running campaign.")
	metricActiveRuns    = obs.Default().Gauge("gcbench_sweep_active_runs", "Specs executing right now.")
	metricRunSeconds    = obs.Default().Histogram("gcbench_sweep_run_seconds", "Per-spec wall time across attempts.",
		[]float64{0.01, 0.1, 0.5, 1, 5, 15, 60, 300, 1800})
)

// countFinished bumps the per-status counters for one finished spec.
func countFinished(st behavior.RunStatus) {
	switch st {
	case behavior.StatusOK:
		metricRunsCompleted.Inc()
	case behavior.StatusSkipped:
		metricRunsSkipped.Inc()
	case behavior.StatusFailed, behavior.StatusTimeout:
		metricRunsFailed.Inc()
	case behavior.StatusCancelled:
		metricRunsCancelled.Inc()
	}
}

// RunResult is the outcome of one campaign spec: either a measured
// behavior run, or an account of why the spec produced none.
type RunResult struct {
	Spec   Spec               `json:"spec"`
	Status behavior.RunStatus `json:"status"`
	// Run is the measured behavior (StatusOK and StatusSkipped only).
	Run *behavior.Run `json:"run,omitempty"`
	// Err is the last attempt's error string (empty on success).
	Err string `json:"error,omitempty"`
	// Attempts is how many attempts were made (0 for skipped/cancelled
	// specs that never started).
	Attempts int `json:"attempts"`
	// Duration is wall-clock time spent on this spec across all attempts,
	// including retry backoff.
	Duration time.Duration `json:"durationNs"`
	// Provenance records the execution environment and the run's
	// start/end timestamps (nil for specs that never started).
	Provenance *Provenance `json:"provenance,omitempty"`
}

// CampaignResult aggregates a resilient campaign: every spec is accounted
// for exactly once, and the partial corpus of successful runs is usable
// even when some specs failed or the campaign was cancelled mid-flight.
type CampaignResult struct {
	// Results has one entry per spec, in spec order.
	Results []RunResult
	// Runs is the corpus of measured behavior runs (successful and
	// journal-restored specs), in spec order.
	Runs []*behavior.Run
	// Completed counts StatusOK results; Skipped counts journal restores;
	// Failed counts StatusFailed + StatusTimeout; Cancelled counts specs
	// stopped or never started due to context cancellation.
	Completed, Skipped, Failed, Cancelled int
}

// FirstFailure returns the first failed or timed-out result in spec
// order, or nil if every spec succeeded.
func (r *CampaignResult) FirstFailure() *RunResult {
	for i := range r.Results {
		if s := r.Results[i].Status; s == behavior.StatusFailed || s == behavior.StatusTimeout {
			return &r.Results[i]
		}
	}
	return nil
}

// ExecuteCampaign runs a sweep campaign resiliently: specs execute
// concurrently under cfg.Parallel; a run that errors, times out
// (cfg.Timeout) or panics is retried up to cfg.Retries times with
// exponential backoff and then recorded as a failed RunResult, without
// disturbing sibling runs. When cfg.Journal is set, completed and failed
// specs are checkpointed as they finish and previously completed specs
// are restored instead of re-executed.
//
// Specs are dispatched structure-major — all specs sharing one graph back
// to back — so at most cfg.Parallel shared graphs are resident at once;
// Results and Runs are still in spec order.
//
// Cancelling ctx stops the campaign cooperatively: in-flight runs stop at
// their next iteration barrier, queued specs are marked cancelled without
// starting, and the returned CampaignResult (with its journal) reflects
// everything that did complete. The error is nil unless ctx was cancelled
// or a journal write failed; per-spec failures are reported in Results,
// not as an error.
func ExecuteCampaign(ctx context.Context, specs []Spec, cfg Config) (*CampaignResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	par := cfg.Parallel
	if par <= 0 {
		par = runtime.GOMAXPROCS(0) / 2
		if par < 1 {
			par = 1
		}
	}

	results := make([]RunResult, len(specs))
	cache := &graphCache{}
	// Refcount shared graphs from the plan so each is released (and its
	// memory reclaimed) as soon as no remaining spec needs it, and order
	// dispatch so that comes early: the specs of one cache key back to
	// back, groups by first appearance, uncached specs at their plan
	// position. Plan order would hold each graph from its first algorithm
	// to its last.
	refs := make(map[string]int)
	first := make(map[string]int)
	rank := make([]int, len(specs))
	order := make([]int, len(specs))
	for i := range specs {
		rank[i], order[i] = i, i
		if k := specs[i].cacheKey(); k != "" {
			if _, ok := first[k]; !ok {
				first[k] = i
			}
			rank[i] = first[k]
			refs[k]++
		}
	}
	slices.SortStableFunc(order, func(a, b int) int { return rank[a] - rank[b] })
	cache.retain(refs)
	if campaignCacheHook != nil {
		campaignCacheHook(cache)
	}
	if cfg.Tracker != nil {
		cfg.Tracker.begin(specs)
	}
	metricQueueDepth.Set(float64(len(specs)))

	var wg sync.WaitGroup
	sem := make(chan struct{}, par)
	var mu sync.Mutex // serializes Progress calls and the done counter
	done := 0
	var journalErr error
	finish := func(i int) {
		// Every spec releases its shared graph exactly once, whatever its
		// outcome — skipped and cancelled specs will never need it either.
		cache.release(specs[i].cacheKey())
		countFinished(results[i].Status)
		metricQueueDepth.Add(-1)
		metricRunSeconds.Observe(results[i].Duration.Seconds())
		if cfg.Tracker != nil {
			cfg.Tracker.runFinished(results[i])
		}
		if cfg.Journal != nil {
			st := results[i].Status
			if st == behavior.StatusOK || st == behavior.StatusFailed || st == behavior.StatusTimeout {
				if err := cfg.Journal.Record(entryOf(results[i])); err != nil {
					mu.Lock()
					if journalErr == nil {
						journalErr = err
					}
					mu.Unlock()
				}
			}
		}
		if cfg.Progress != nil {
			mu.Lock()
			done++
			cfg.Progress(done, len(specs), specs[i].ID())
			mu.Unlock()
		}
	}

	for _, i := range order {
		// Resume: restore journaled runs without taking an execution slot.
		if cfg.Journal != nil {
			if run, ok := cfg.Journal.Completed(specs[i]); ok {
				results[i] = RunResult{Spec: specs[i], Status: behavior.StatusSkipped, Run: run}
				finish(i)
				continue
			}
		}
		if err := ctx.Err(); err != nil {
			results[i] = RunResult{Spec: specs[i], Status: behavior.StatusCancelled, Err: err.Error()}
			finish(i)
			continue
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			results[i] = RunResult{Spec: specs[i], Status: behavior.StatusCancelled, Err: ctx.Err().Error()}
			finish(i)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i] = runResilient(ctx, specs[i], cfg, cache)
			finish(i)
		}(i)
	}
	wg.Wait()

	res := &CampaignResult{Results: results}
	for i := range results {
		switch results[i].Status {
		case behavior.StatusOK:
			res.Completed++
		case behavior.StatusSkipped:
			res.Skipped++
		case behavior.StatusFailed, behavior.StatusTimeout:
			res.Failed++
		case behavior.StatusCancelled:
			res.Cancelled++
		}
		if results[i].Run != nil {
			res.Runs = append(res.Runs, results[i].Run)
		}
	}
	if journalErr != nil {
		return res, fmt.Errorf("sweep: checkpoint journal: %w", journalErr)
	}
	return res, ctx.Err()
}

// runResilient executes one spec with per-attempt timeout, bounded retry
// with exponential backoff, and panic isolation.
func runResilient(ctx context.Context, spec Spec, cfg Config, cache *graphCache) RunResult {
	start := time.Now()
	res := RunResult{Spec: spec, Provenance: newProvenance(start)}
	defer func() { res.Provenance.FinishedAt = time.Now() }()
	// The per-run span hangs under whatever span the campaign context
	// carries (the jobs layer's "job" span, or nothing for untraced CLI
	// sweeps, in which case sp is nil and every call below no-ops).
	sp := otrace.FromContext(ctx).StartChild("run "+spec.ID(), "run")
	defer func() {
		if sp == nil {
			return
		}
		sp.SetAttr("attempts", res.Attempts)
		if res.Status != behavior.StatusOK {
			sp.SetAttr("runStatus", string(res.Status))
		}
		if res.Err != "" {
			sp.Fail(res.Err)
		}
		sp.End()
	}()
	metricActiveRuns.Add(1)
	defer metricActiveRuns.Add(-1)
	backoff := cfg.RetryBackoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	attempts := max(cfg.Retries, 0) + 1
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			wait := backoff << uint(attempt-2)
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		res.Attempts = attempt
		metricRunsStarted.Inc()
		if attempt > 1 {
			metricRunsRetried.Inc()
		}
		if cfg.Tracker != nil {
			cfg.Tracker.runStarted(spec.ID(), attempt)
		}
		run, rt, err := attemptSpec(ctx, spec, cfg, cache)
		if err == nil {
			res.Status = behavior.StatusOK
			res.Run = run
			res.Duration = time.Since(start)
			graftRunTrace(sp, rt)
			return res
		}
		lastErr = err
	}
	res.Duration = time.Since(start)
	switch {
	case ctx.Err() != nil:
		res.Status = behavior.StatusCancelled
		if lastErr == nil {
			lastErr = ctx.Err()
		}
	case errors.Is(lastErr, context.DeadlineExceeded):
		res.Status = behavior.StatusTimeout
	default:
		res.Status = behavior.StatusFailed
	}
	res.Err = lastErr.Error()
	return res
}

// attemptSpec makes one attempt at a spec: fault injection, per-attempt
// deadline, and recovery from panics raised by the generator, driver, or
// (via the engine's panic propagation) a vertex program. The engine
// trace is returned alongside the run so the caller can graft its
// iteration/phase timeline onto the run span.
func attemptSpec(ctx context.Context, spec Spec, cfg Config, cache *graphCache) (run *behavior.Run, rt *trace.RunTrace, err error) {
	defer func() {
		if p := recover(); p != nil {
			run, rt, err = nil, nil, fmt.Errorf("panic: %v", p)
		}
	}()
	if cfg.InjectFault != nil {
		if ferr := cfg.InjectFault(spec); ferr != nil {
			return nil, nil, ferr
		}
	}
	actx := ctx
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	return runSpecTrace(actx, spec, cfg.Workers, cfg.Frontier, cache)
}

// campaignCacheHook, when non-nil, receives every campaign's graph cache
// as it is created — test instrumentation for the refcount-release and
// singleflight behavior.
var campaignCacheHook func(*graphCache)

// FaultRate returns a deterministic, seedable InjectFault hook that fails
// roughly rate of all attempts. The decision depends only on (seed, spec
// ID, attempt number), so a campaign replays identically and retries can
// succeed where first attempts failed.
func FaultRate(rate float64, seed uint64) func(Spec) error {
	if rate <= 0 {
		return nil
	}
	var mu sync.Mutex
	attempt := make(map[string]int)
	return func(s Spec) error {
		mu.Lock()
		attempt[s.ID()]++
		n := attempt[s.ID()]
		mu.Unlock()
		h := seed ^ 0x9e3779b97f4a7c15
		for _, c := range s.ID() {
			h = (h ^ uint64(c)) * 0x100000001b3
		}
		h = (h ^ uint64(n)) * 0x100000001b3
		if float64(h>>11)/float64(1<<53) < math.Min(rate, 1) {
			return fmt.Errorf("injected fault (rate=%g, attempt=%d)", rate, n)
		}
		return nil
	}
}
