package algorithms

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gcbench/internal/engine"
	"gcbench/internal/graph"
)

// ccEdgeOracle and ssspEdgeOracle are CC and SSSP written one edge at a
// time — the definitions the run-shaped ccProgram and ssspProgram
// replaced — kept as the reference the differential test runs through
// engine.PerEdge.
type ccEdgeOracle struct{}

func (ccEdgeOracle) Init(_ *graph.Graph, v uint32) (uint32, bool) { return v, true }
func (ccEdgeOracle) GatherDirection() engine.Direction            { return engine.In }
func (ccEdgeOracle) Gather(_ uint32, _ engine.Arc, _, other uint32) uint32 {
	return other
}
func (ccEdgeOracle) Sum(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}
func (ccEdgeOracle) Apply(_ uint32, self, acc uint32, hasAcc bool) uint32 {
	if hasAcc && acc < self {
		return acc
	}
	return self
}
func (ccEdgeOracle) ScatterDirection() engine.Direction { return engine.Out }
func (ccEdgeOracle) Scatter(_ uint32, _ engine.Arc, self, other uint32) bool {
	return self < other
}

type ssspEdgeOracle struct{ source uint32 }

func (p ssspEdgeOracle) Init(_ *graph.Graph, v uint32) (float64, bool) {
	if v == p.source {
		return 0, true
	}
	return math.Inf(1), false
}
func (ssspEdgeOracle) GatherDirection() engine.Direction { return engine.In }
func (ssspEdgeOracle) Gather(_ uint32, e engine.Arc, _, other float64) float64 {
	return other + e.Weight
}
func (ssspEdgeOracle) Sum(a, b float64) float64 { return math.Min(a, b) }
func (ssspEdgeOracle) Apply(_ uint32, self, acc float64, hasAcc bool) float64 {
	if hasAcc && acc < self {
		return acc
	}
	return self
}
func (ssspEdgeOracle) ScatterDirection() engine.Direction { return engine.Out }
func (ssspEdgeOracle) Scatter(_ uint32, e engine.Arc, self, other float64) bool {
	return self+e.Weight < other
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
// run-shaped CC and SSSP against their per-edge definitions, over every
// graph shape the run view has a separate case for (in-runs of directed
// graphs, weighted arcs) and every schedule (run it with -race: workers 4
// exercises the shared Signals path).
func TestRunShapedMatchesPerEdgeOracle(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, directed := range []bool{false, true} {
		for _, weighted := range []bool{false, true} {
			// Two chunks and a tail, sparse enough to take many iterations.
			g := randomMultigraph(t, r, 2*4096+300, 14_000, directed, weighted)
			source := maxDegreeVertex(g)
			for _, frontier := range []FrontierMode{FrontierAuto, FrontierDense, FrontierSparse} {
				for _, workers := range []int{1, 4} {
					opt := engine.Options{Workers: workers, Frontier: frontier}
					name := fmt.Sprintf("directed=%v/weighted=%v/%v/workers=%d", directed, weighted, frontier, workers)
					t.Run("CC/"+name, func(t *testing.T) {
						got, err := engine.Run[uint32, uint32](g, ccProgram{}, opt)
						if err != nil {
							t.Fatal(err)
						}
						want, err := engine.Run(g, engine.PerEdge[uint32, uint32](ccEdgeOracle{}), opt)
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
						want, err := engine.Run(g, engine.PerEdge[float64, float64](ssspEdgeOracle{source: source}), opt)
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
