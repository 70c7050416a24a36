package xstream

import (
	"math"
	"testing"

	"gcbench/internal/algorithms"
	"gcbench/internal/gen"
	"gcbench/internal/graph"
	"gcbench/internal/trace"
)

func testGraph(t *testing.T, edges int64, alpha float64, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{NumEdges: edges, Alpha: alpha, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// --- conservation of results across computation models (§3.3) ---

func TestCCMatchesGASExactly(t *testing.T) {
	g := testGraph(t, 2000, 2.3, 5)
	res, err := Run(g, FromKernel[uint32](algorithms.MinLabel{}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, gasLabels, err := algorithms.ConnectedComponents(g, algorithms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range gasLabels {
		if res.States[v] != gasLabels[v] {
			t.Fatalf("vertex %d: edge-centric label %d, GAS label %d",
				v, res.States[v], gasLabels[v])
		}
	}
	if !res.Trace.Converged {
		t.Fatal("edge-centric CC did not converge")
	}
}

func TestSSSPMatchesGASExactly(t *testing.T) {
	g := testGraph(t, 2000, 2.5, 7)
	res, err := Run(g, FromKernel[float64](algorithms.Relax{Source: 0}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, gasDist, err := algorithms.SingleSourceShortestPath(g, 0, algorithms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range gasDist {
		if res.States[v] != gasDist[v] {
			t.Fatalf("vertex %d: edge-centric dist %v, GAS %v", v, res.States[v], gasDist[v])
		}
	}
}

func TestPRMatchesGASWithinTolerance(t *testing.T) {
	g := testGraph(t, 2000, 2.3, 9)
	p := PRProgram{Damping: 0.85, Tolerance: 1e-10}
	res, err := Run[PRState, float64](g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, gasRanks, err := algorithms.PageRank(g, algorithms.PageRankOptions{Tolerance: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	for v := range gasRanks {
		if math.Abs(res.States[v].Rank-gasRanks[v]) > 1e-5*(1+gasRanks[v]) {
			t.Fatalf("vertex %d: edge-centric rank %v, GAS %v", v, res.States[v].Rank, gasRanks[v])
		}
	}
}

// --- conservation of *behavior*, not just results ---

func TestActivationBehaviorConserved(t *testing.T) {
	// §3.3: "the basic behavior of graph computation is conserved --
	// transferring information through edges, performing computation on
	// an independent unit, and activations." SSSP's frontier growth must
	// look the same under both models: same initial activity, same growth
	// trend, comparable iteration count.
	g := testGraph(t, 3000, 2.2, 11)
	res, err := Run(g, FromKernel[float64](algorithms.Relax{Source: 0}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	gasOut, _, err := algorithms.SingleSourceShortestPath(g, 0, algorithms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ec := res.Trace
	gas := gasOut.Trace
	if ec.Iterations[0].Active != 1 || gas.Iterations[0].Active != 1 {
		t.Fatal("both models must start from one active vertex")
	}
	// Same propagation depth up to the trailing quiescent pass.
	if d := ec.NumIterations() - gas.NumIterations(); d < -1 || d > 1 {
		t.Fatalf("iteration counts diverge: edge-centric %d, GAS %d",
			ec.NumIterations(), gas.NumIterations())
	}
	// Peak activity within 10% of each other (the frontier is the same;
	// only the activation bookkeeping differs).
	peakEC, peakGAS := int64(0), int64(0)
	for _, it := range ec.Iterations {
		if it.Active > peakEC {
			peakEC = it.Active
		}
	}
	for _, it := range gas.Iterations {
		if it.Active > peakGAS {
			peakGAS = it.Active
		}
	}
	lo, hi := float64(peakGAS)*0.9, float64(peakGAS)*1.1
	if f := float64(peakEC); f < lo || f > hi {
		t.Fatalf("peak activity diverges: edge-centric %d, GAS %d", peakEC, peakGAS)
	}
}

func TestEdgeReadsCountOnlyActiveSources(t *testing.T) {
	// Path 0-1-2-3: SSSP from 0. Iteration 0 has one active vertex with
	// 1 undirected arc... vertex 0 has out-arc to 1 only, so 1 read.
	b := graph.NewBuilder(4, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, FromKernel[float64](algorithms.Relax{Source: 0}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	it0 := res.Trace.Iterations[0]
	if it0.EdgeReads != 1 || it0.Messages != 1 || it0.Updates != 1 {
		t.Fatalf("iteration 0 counters: %+v", it0)
	}
	// Iteration 1: vertex 1 active with arcs to 0 and 2 → 2 reads,
	// 2 messages, but only vertex 2 improves → next active 1.
	it1 := res.Trace.Iterations[1]
	if it1.EdgeReads != 2 || it1.Messages != 2 {
		t.Fatalf("iteration 1 counters: %+v", it1)
	}
	if res.States[3] != 3 {
		t.Fatalf("dist[3] = %v, want 3", res.States[3])
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, FromKernel[uint32](algorithms.MinLabel{}), Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
}

// flipProgram never quiesces: every active source sends along each arc,
// and every target that hears one flips its state, so it is active again.
type flipProgram struct{}

func (flipProgram) Init(*graph.Graph, uint32) (bool, bool) { return false, true }

func (flipProgram) Scatter(vs []uint32, out *graph.CSR, _ []bool, _ []struct{}, has []bool) int64 {
	var n int64
	for _, v := range vs {
		for _, t := range out.Adj[out.Off[v]:out.Off[v+1]] {
			has[t] = true
			n++
		}
	}
	return n
}

func (flipProgram) Apply(vs []uint32, state []bool, _ []struct{}, next []bool) int64 {
	for _, v := range vs {
		state[v] = !state[v]
		next[v] = true
	}
	return int64(len(vs))
}

// TestMaxIterationsCap: a program whose activity never dies out stops at
// trace.DefaultMaxSteps, unconverged, with every iteration traced.
func TestMaxIterationsCap(t *testing.T) {
	b := graph.NewBuilder(2, false)
	b.AddEdge(0, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run[bool, struct{}](g, flipProgram{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Converged || res.Trace.NumIterations() != trace.DefaultMaxSteps {
		t.Fatalf("cap not honored: %d iterations, converged=%t; want %d, false",
			res.Trace.NumIterations(), res.Trace.Converged, trace.DefaultMaxSteps)
	}
	if last := res.Trace.Iterations[trace.DefaultMaxSteps-1]; last.Active != 2 || last.Messages != 2 || last.Updates != 2 {
		t.Fatalf("last iteration recorded as %+v, want 2 active, 2 messages, 2 updates", last)
	}
}

func BenchmarkEdgeCentricCC(b *testing.B) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{NumEdges: 100000, Alpha: 2.2, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, FromKernel[uint32](algorithms.MinLabel{}), Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
