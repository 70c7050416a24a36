// Package trace records per-iteration behavior of a graph computation —
// the raw measurements behind the paper's five metrics (active fraction,
// UPDT, WORK, EREAD, MSG).
package trace

import "time"

// IterationStats captures one synchronous GAS iteration.
type IterationStats struct {
	// Iteration is the 0-based iteration number.
	Iteration int `json:"iteration"`
	// Active is the number of active vertices at iteration start.
	Active int64 `json:"active"`
	// Updates is the number of vertex updates (apply calls) — the paper's
	// UPDT numerator.
	Updates int64 `json:"updates"`
	// EdgeReads is the number of gather operations ("the operation of
	// collecting data through an edge is called an edge read").
	EdgeReads int64 `json:"edgeReads"`
	// Messages is the number of scatter activation signals ("a signal is
	// called a message").
	Messages int64 `json:"messages"`
	// ApplyTime is time spent in the user-defined apply function — the
	// paper's WORK numerator.
	ApplyTime time.Duration `json:"applyTimeNs"`
	// WallTime is the full iteration wall-clock time.
	WallTime time.Duration `json:"wallTimeNs"`

	// Phase spans: wall-clock time of each of the iteration's barrier
	// phases. ApplyTime above is *summed worker busy* time (the WORK
	// numerator, unchanged); ApplyWall is the phase's elapsed time.
	GatherWall  time.Duration `json:"gatherWallNs"`
	ApplyWall   time.Duration `json:"applyWallNs"`
	ScatterWall time.Duration `json:"scatterWallNs"`
	// BarrierTime is the iteration's residual outside the three phases:
	// pre/post-iteration hooks, frontier bookkeeping and scheduling
	// slack. By construction GatherWall + ApplyWall + ScatterWall +
	// BarrierTime == WallTime.
	BarrierTime time.Duration `json:"barrierTimeNs"`
	// WorkerSpans attributes per-phase busy time to each engine worker
	// (chunk-granular timing, so a worker's busy time never exceeds the
	// phase wall time it ran under).
	WorkerSpans []WorkerSpan `json:"workerSpans,omitempty"`

	// GatherMode, ApplyMode and ScatterMode record the frontier schedule
	// each phase executed under ("dense" bitset chunk scan or "sparse"
	// compacted-frontier slices; empty when the phase ran no scan at
	// all). Execution strategy only — the behavior counters above are
	// invariant to it by construction.
	GatherMode  string `json:"gatherMode,omitempty"`
	ApplyMode   string `json:"applyMode,omitempty"`
	ScatterMode string `json:"scatterMode,omitempty"`
}

// WorkerSpan is one worker's busy time within one iteration, split by
// phase. The sum of Apply over workers equals IterationStats.ApplyTime.
type WorkerSpan struct {
	Worker  int           `json:"worker"`
	Gather  time.Duration `json:"gatherNs"`
	Apply   time.Duration `json:"applyNs"`
	Scatter time.Duration `json:"scatterNs"`
}

// RunTrace is the complete record of one graph computation.
type RunTrace struct {
	NumVertices int              `json:"numVertices"`
	NumEdges    int64            `json:"numEdges"`
	Iterations  []IterationStats `json:"iterations"`
	// Converged is false when the run stopped at the iteration cap
	// instead of by its own convergence condition.
	Converged bool `json:"converged"`
}

// NumIterations returns the number of iterations executed.
func (t *RunTrace) NumIterations() int { return len(t.Iterations) }

// ActiveFraction returns the per-iteration active fraction series —
// the paper's first behavior metric. A trace over zero vertices (or a
// negative count from a corrupt file) yields zeros, never NaN/Inf.
func (t *RunTrace) ActiveFraction() []float64 {
	out := make([]float64, len(t.Iterations))
	if t.NumVertices <= 0 {
		return out
	}
	n := float64(t.NumVertices)
	for i, it := range t.Iterations {
		out[i] = float64(it.Active) / n
	}
	return out
}

// MeanUpdates returns the average number of vertex updates per iteration
// (UPDT before per-edge normalization).
func (t *RunTrace) MeanUpdates() float64 {
	if len(t.Iterations) == 0 {
		return 0
	}
	var sum int64
	for _, it := range t.Iterations {
		sum += it.Updates
	}
	return float64(sum) / float64(len(t.Iterations))
}

// MeanEdgeReads returns the average number of edge reads per iteration
// (EREAD before per-edge normalization).
func (t *RunTrace) MeanEdgeReads() float64 {
	if len(t.Iterations) == 0 {
		return 0
	}
	var sum int64
	for _, it := range t.Iterations {
		sum += it.EdgeReads
	}
	return float64(sum) / float64(len(t.Iterations))
}

// MeanMessages returns the average number of messages per iteration
// (MSG before per-edge normalization).
func (t *RunTrace) MeanMessages() float64 {
	if len(t.Iterations) == 0 {
		return 0
	}
	var sum int64
	for _, it := range t.Iterations {
		sum += it.Messages
	}
	return float64(sum) / float64(len(t.Iterations))
}

// MeanApplySeconds returns the average apply-phase CPU seconds per
// iteration (WORK before per-edge normalization).
func (t *RunTrace) MeanApplySeconds() float64 {
	if len(t.Iterations) == 0 {
		return 0
	}
	var sum time.Duration
	for _, it := range t.Iterations {
		sum += it.ApplyTime
	}
	return sum.Seconds() / float64(len(t.Iterations))
}

// TotalWall returns the total wall-clock time across iterations.
func (t *RunTrace) TotalWall() time.Duration {
	var sum time.Duration
	for _, it := range t.Iterations {
		sum += it.WallTime
	}
	return sum
}
