package jobs

import (
	"context"

	"gcbench/internal/sweep"
)

// Result returns the campaign outcome exactly as sweep.ExecuteCampaign
// produced it; a job cancelled before starting has every spec cancelled.
// Valid once the job is terminal; callers usually Wait first.
func (j *Job) Result() (*sweep.CampaignResult, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.res, j.resErr
}

// Wait blocks until the job is terminal or ctx expires, returning the
// job's final state (or its current state with ctx's error on timeout).
func (j *Job) Wait(ctx context.Context) (State, error) {
	select {
	case <-j.done:
		return j.State(), nil
	case <-ctx.Done():
		return j.State(), ctx.Err()
	}
}
