package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"gcbench/internal/graph"
)

// cancelAfter wraps alwaysOn with a PostIteration hook that cancels the
// run's context after n iterations — a driver-level stand-in for an
// external campaign cancellation arriving mid-run.
type cancelAfter struct {
	alwaysOn
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) PostIteration(ctl *Control[int]) bool {
	if ctl.Iteration() == c.n {
		c.cancel()
	}
	return false
}

func TestRunStopsAtBarrierOnCancel(t *testing.T) {
	g := pathGraph(t, 16)
	ctx, cancel := context.WithCancel(context.Background())
	_, err := runEdge[int, int](g, &cancelAfter{n: 3, cancel: cancel}, Options{Context: ctx, Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// Cancellation lands at the next barrier: iteration 4's check.
	if !strings.Contains(err.Error(), "iteration 4") {
		t.Fatalf("cancellation not reported at the barrier after the hook: %v", err)
	}
}

func TestRunAlreadyCancelledContext(t *testing.T) {
	g := pathGraph(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runEdge[int, int](g, alwaysOn{}, Options{Context: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestRunDeadlineExceeded(t *testing.T) {
	g := pathGraph(t, 8)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	// alwaysOn never converges and the cap is unreachable within the
	// deadline, so only the barrier check can end the run.
	_, err := runEdge[int, int](g, alwaysOn{}, Options{Context: ctx, MaxIterations: 1 << 30})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

// neverActive converges immediately: no vertex starts active.
type neverActive struct{ alwaysOn }

func (neverActive) Init(_ *graph.Graph, _ uint32) (int, bool) { return 0, false }

func TestRunConvergenceCheckedBeforeContext(t *testing.T) {
	// The empty-frontier check precedes the ctx poll at each barrier, so a
	// run that has already converged reports success even under a
	// cancelled context — cancellation never invalidates finished work.
	g := pathGraph(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := runEdge[int, int](g, neverActive{}, Options{Context: ctx})
	if err != nil || !res.Trace.Converged {
		t.Fatalf("converged run failed under cancelled ctx: %v", err)
	}
}

// panicAt panics inside Apply for one vertex — exercising panic capture
// in parallel worker goroutines.
type panicAt struct{ alwaysOn }

func (panicAt) Apply(v uint32, self, _ int, _ bool) int {
	if v == 3 {
		panic("vertex program exploded")
	}
	return self + 1
}

func TestWorkerPanicPropagatesToCaller(t *testing.T) {
	g := pathGraph(t, 64)
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("panic in a worker goroutine was swallowed")
		}
		if s, ok := p.(string); !ok || s != "vertex program exploded" {
			t.Fatalf("unexpected panic payload: %v", p)
		}
	}()
	runEdge[int, int](g, panicAt{}, Options{Workers: 4})
	t.Fatal("Run returned instead of panicking")
}
