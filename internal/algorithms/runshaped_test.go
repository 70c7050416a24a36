package algorithms

import (
	"fmt"
	"math/rand"
	"testing"

	"gcbench/internal/engine"
	"gcbench/internal/graph"
)

// kernelEdgeProgram is a propagation Kernel as a per-edge GAS program:
// gather the offers of in-neighbors, apply the best one if it improves,
// signal every out-neighbor this vertex can still improve. It is the
// reference the hand-specialised run-shaped ccProgram and ssspProgram are
// held to, run through engine.PerEdge.
type kernelEdgeProgram[S any] struct{ k Kernel[S] }

func (p kernelEdgeProgram[S]) Init(_ *graph.Graph, v uint32) (S, bool) { return p.k.Init(v) }
func (kernelEdgeProgram[S]) GatherDirection() engine.Direction         { return engine.In }
func (p kernelEdgeProgram[S]) Gather(_ uint32, e engine.Arc, _, other S) S {
	return p.k.Along(other, e.Weight)
}
func (p kernelEdgeProgram[S]) Sum(a, b S) S {
	if p.k.Better(a, b) {
		return a
	}
	return b
}
func (p kernelEdgeProgram[S]) Apply(_ uint32, self, acc S, hasAcc bool) S {
	if hasAcc && p.k.Better(acc, self) {
		return acc
	}
	return self
}
func (kernelEdgeProgram[S]) ScatterDirection() engine.Direction { return engine.Out }
func (p kernelEdgeProgram[S]) Scatter(_ uint32, e engine.Arc, self, other S) bool {
	return p.k.Better(p.k.Along(self, e.Weight), other)
}

// randomMultigraph keeps parallel edges and self-loops, and leaves some
// vertices isolated.
func randomMultigraph(t *testing.T, r *rand.Rand, n, m int, directed, weighted bool) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n, directed).KeepSelfLoops()
	if weighted {
		b.Weighted()
	}
	for i := 0; i < m; i++ {
		u, v := uint32(r.Intn(n*3/4)), uint32(r.Intn(n*3/4))
		b.AddWeightedEdge(u, v, 0.25+4*r.Float64())
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// sameRun requires two runs of one algorithm to agree exactly: final
// states, and every iteration's behavior counters and schedule labels.
func sameRun[S comparable](t *testing.T, got, want *engine.Result[S]) {
	t.Helper()
	for v := range want.States {
		if got.States[v] != want.States[v] {
			t.Fatalf("state[%d] = %v, per-edge oracle %v", v, got.States[v], want.States[v])
		}
	}
	if len(got.Trace.Iterations) != len(want.Trace.Iterations) || got.Trace.Converged != want.Trace.Converged {
		t.Fatalf("%d iterations (converged %v), per-edge oracle %d (%v)",
			len(got.Trace.Iterations), got.Trace.Converged, len(want.Trace.Iterations), want.Trace.Converged)
	}
	for i, w := range want.Trace.Iterations {
		g := got.Trace.Iterations[i]
		if g.Active != w.Active || g.Updates != w.Updates || g.EdgeReads != w.EdgeReads || g.Messages != w.Messages {
			t.Fatalf("iteration %d active/updates/reads/messages = %d/%d/%d/%d, per-edge oracle %d/%d/%d/%d",
				i, g.Active, g.Updates, g.EdgeReads, g.Messages, w.Active, w.Updates, w.EdgeReads, w.Messages)
		}
		if g.GatherMode != w.GatherMode || g.ApplyMode != w.ApplyMode || g.ScatterMode != w.ScatterMode {
			t.Fatalf("iteration %d modes %q/%q/%q, per-edge oracle %q/%q/%q",
				i, g.GatherMode, g.ApplyMode, g.ScatterMode, w.GatherMode, w.ApplyMode, w.ScatterMode)
		}
	}
}

// TestRunShapedMatchesPerEdgeOracle is the differential check of the
// run-shaped CC and SSSP against the kernels every other execution model
// derives its program from — final states and counters — over every
// graph shape the run view has a separate case for (in-runs of directed
// graphs, weighted arcs) and every schedule (run it with -race: workers 4
// exercises the shared Signals path).
func TestRunShapedMatchesPerEdgeOracle(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, directed := range []bool{false, true} {
		for _, weighted := range []bool{false, true} {
			// Two chunks and a tail, sparse enough to take many iterations.
			g := randomMultigraph(t, r, 2*4096+300, 14_000, directed, weighted)
			source := g.MaxDegreeVertex()
			for _, frontier := range []FrontierMode{FrontierAuto, FrontierDense, FrontierSparse} {
				for _, workers := range []int{1, 4} {
					opt := engine.Options{Workers: workers, Frontier: frontier}
					name := fmt.Sprintf("directed=%v/weighted=%v/%v/workers=%d", directed, weighted, frontier, workers)
					t.Run("CC/"+name, func(t *testing.T) {
						got, err := engine.Run[uint32, uint32](g, ccProgram{}, opt)
						if err != nil {
							t.Fatal(err)
						}
						want, err := engine.Run(g, engine.PerEdge[uint32, uint32](kernelEdgeProgram[uint32]{MinLabel{}}), opt)
						if err != nil {
							t.Fatal(err)
						}
						sameRun(t, got, want)
					})
					t.Run("SSSP/"+name, func(t *testing.T) {
						got, err := engine.Run[float64, float64](g, &ssspProgram{source: source}, opt)
						if err != nil {
							t.Fatal(err)
						}
						want, err := engine.Run(g, engine.PerEdge[float64, float64](kernelEdgeProgram[float64]{Relax{Source: source}}), opt)
						if err != nil {
							t.Fatal(err)
						}
						sameRun(t, got, want)
					})
				}
			}
		}
	}
}
