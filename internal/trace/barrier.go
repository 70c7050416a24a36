package trace

import (
	"context"
	"fmt"
	"time"

	"gcbench/internal/graph"
)

// DefaultMaxSteps caps a run, under any of the four engines, whose caller
// sets no cap and whose convergence criterion never fires — a safety net
// (the paper's own caps, 20 iterations for NMF and SGD, sit at the
// algorithm level).
const DefaultMaxSteps = 100000

// Superstep is what one barrier step of a message-passing, streaming or
// partition engine measured. The loop adds Iteration, Active and
// WallTime to make the step's IterationStats.
type Superstep struct {
	Updates, EdgeReads, Messages int64
	ApplyTime                    time.Duration
	// NextActive is the number of units active at the next barrier.
	NextActive int64
}

// Barrier configures the superstep loop the Pregel, X-Stream and
// graph-centric engines share; an engine supplies only its step body.
type Barrier struct {
	// Model prefixes the loop's errors ("pregel").
	Model string
	// Step names one step in the cancellation error ("superstep").
	Step string
	// MaxSteps caps the run; 0 means DefaultMaxSteps.
	MaxSteps int
	// Context, when non-nil, cancels the run at the next barrier; the run
	// returns an error wrapping Context.Err().
	Context context.Context
}

// Result is a barrier-loop run: its trace and the final vertex states.
type Result[S any] struct {
	Trace  *RunTrace
	States []S
}

// RunBarrier validates g, calls setup once with the vertex count to
// allocate the engine's state — it returns the state slice the steps
// update in place, the initially active count and the step body — and
// then runs steps until nothing is active, the cap is reached or the
// context is cancelled. Converged reports whether nothing was active when
// the loop stopped, so a run that quiesces in its last permitted step has
// converged.
func RunBarrier[S any](b Barrier, g *graph.Graph, setup func(n int) (states []S, active int64, step func(i int) Superstep)) (*Result[S], error) {
	if g == nil || g.NumVertices() == 0 {
		return nil, fmt.Errorf("%s: nil or empty graph", b.Model)
	}
	maxSteps := b.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	tr := &RunTrace{NumVertices: g.NumVertices(), NumEdges: g.NumEdges()}
	states, active, step := setup(tr.NumVertices)
	for i := 0; i < maxSteps && active > 0; i++ {
		if b.Context != nil {
			if err := b.Context.Err(); err != nil {
				return nil, fmt.Errorf("%s: run stopped at %s %d: %w", b.Model, b.Step, i, err)
			}
		}
		start := time.Now()
		s := step(i)
		tr.Iterations = append(tr.Iterations, IterationStats{
			Iteration: i,
			Active:    active,
			Updates:   s.Updates,
			EdgeReads: s.EdgeReads,
			Messages:  s.Messages,
			ApplyTime: s.ApplyTime,
			WallTime:  time.Since(start),
		})
		active = s.NextActive
	}
	tr.Converged = active == 0
	return &Result[S]{Trace: tr, States: states}, nil
}
