package jobs

import "context"

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
