package engine

import (
	"testing"

	"gcbench/internal/graph"
)

// TestAllocationsPerIterationIndependentOfV: the per-phase tallies, the
// granule scratch and the phase dispatch live on the engine, so all an
// iteration allocates is the WorkerSpans the trace retains (plus the
// trace's own amortized growth) — on a 2-chunk graph and a 6-chunk
// graph alike, under the dense and the compacted schedule.
func TestAllocationsPerIterationIndependentOfV(t *testing.T) {
	perIteration := func(g *graph.Graph, mode FrontierMode) float64 {
		allocs := func(iters int) float64 {
			return testing.AllocsPerRun(2, func() {
				if _, err := runEdge[int, int](g, alwaysOn{}, Options{Workers: 1, MaxIterations: iters, Frontier: mode}); err != nil {
					t.Fatal(err)
				}
			})
		}
		return (allocs(18) - allocs(2)) / 16
	}
	small, large := pathGraph(t, 2*chunkSize), pathGraph(t, 6*chunkSize)
	for _, mode := range []FrontierMode{FrontierDense, FrontierSparse} {
		s, l := perIteration(small, mode), perIteration(large, mode)
		t.Logf("%v: %.2f allocations per iteration at V=%d, %.2f at V=%d", mode, s, small.NumVertices(), l, large.NumVertices())
		if s > 2 || l > 2 {
			t.Errorf("%v: %.2f (V=%d) and %.2f (V=%d) allocations per iteration, want the spans slice and trace growth only (<= 2)",
				mode, s, small.NumVertices(), l, large.NumVertices())
		}
	}
}
