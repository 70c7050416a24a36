package trace

import (
	"context"
	"errors"
	"testing"

	"gcbench/internal/graph"
)

func pathGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n, false)
	for i := 0; i < n-1; i++ {
		b.AddEdge(uint32(i), uint32(i+1))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// countdown is a step body whose active count falls by one per step.
func countdown(from int64) func(int) ([]int, int64, func(int) Superstep) {
	return func(n int) ([]int, int64, func(int) Superstep) {
		active := from
		return make([]int, n), active, func(int) Superstep {
			active--
			return Superstep{Updates: 1, NextActive: active}
		}
	}
}

func TestBarrierConvergence(t *testing.T) {
	g := pathGraph(t, 4)
	for _, c := range []struct {
		name      string
		cap       int
		steps     int
		converged bool
	}{
		{"quiesces under the default cap", 0, 3, true},
		{"quiesces in the last permitted step", 3, 3, true},
		{"stopped by the cap", 2, 2, false},
	} {
		res, err := RunBarrier(Barrier{Model: "m", Step: "superstep", MaxSteps: c.cap}, g, countdown(3))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		tr := res.Trace
		if tr.NumIterations() != c.steps || tr.Converged != c.converged {
			t.Errorf("%s: %d steps, converged=%t; want %d, %t", c.name, tr.NumIterations(), tr.Converged, c.steps, c.converged)
		}
		for i, it := range tr.Iterations {
			if it.Iteration != i || it.Active != int64(3-i) || it.Updates != 1 {
				t.Errorf("%s: step %d recorded as %+v", c.name, i, it)
			}
		}
		if tr.NumVertices != 4 || tr.NumEdges != 3 || len(res.States) != 4 {
			t.Errorf("%s: trace scale %d/%d, want 4/3", c.name, tr.NumVertices, tr.NumEdges)
		}
	}
}

func TestBarrierErrors(t *testing.T) {
	if _, err := RunBarrier(Barrier{Model: "m"}, nil, countdown(1)); err == nil || err.Error() != "m: nil or empty graph" {
		t.Errorf("nil graph: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunBarrier(Barrier{Model: "m", Step: "iteration", Context: ctx}, pathGraph(t, 2), countdown(1))
	if !errors.Is(err, context.Canceled) || err.Error() != "m: run stopped at iteration 0: context canceled" {
		t.Errorf("cancelled run: %v", err)
	}
}
