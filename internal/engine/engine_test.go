package engine

import (
	"math"
	"testing"

	"gcbench/internal/gen"
	"gcbench/internal/graph"
)

// bfsProgram computes unweighted hop distance from a source — the minimal
// frontier-expanding GAS program used to exercise engine semantics.
type bfsProgram struct {
	source uint32
}

func (p *bfsProgram) Init(_ *graph.Graph, v uint32) (float64, bool) {
	if v == p.source {
		return 0, true
	}
	return math.Inf(1), false
}
func (p *bfsProgram) GatherDirection() Direction { return In }
func (p *bfsProgram) Gather(_ uint32, _ Arc, _, other float64) float64 {
	return other + 1
}
func (p *bfsProgram) Sum(a, b float64) float64 { return math.Min(a, b) }
func (p *bfsProgram) Apply(_ uint32, self, acc float64, hasAcc bool) float64 {
	if hasAcc && acc < self {
		return acc
	}
	return self
}
func (p *bfsProgram) ScatterDirection() Direction { return Out }
func (p *bfsProgram) Scatter(v uint32, e Arc, self, other float64) bool {
	return self+1 < other
}

// serialBFS is the reference implementation.
func serialBFS(g *graph.Graph, src uint32) []float64 {
	dist := make([]float64, g.NumVertices())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	queue := []uint32{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.OutNeighbors(u) {
			if dist[u]+1 < dist[v] {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

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

func TestBFSOnPath(t *testing.T) {
	g := pathGraph(t, 10)
	res, err := runEdge[float64, float64](g, &bfsProgram{source: 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Trace.Converged {
		t.Fatal("BFS did not converge")
	}
	for v := 0; v < 10; v++ {
		if res.States[v] != float64(v) {
			t.Fatalf("dist[%d] = %v, want %d", v, res.States[v], v)
		}
	}
	// Path of 10 vertices: 9 propagation iterations + 1 final quiescent pass.
	if n := res.Trace.NumIterations(); n != 10 {
		t.Fatalf("iterations = %d, want 10", n)
	}
}

func TestBFSMatchesSerialOnPowerLaw(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{NumEdges: 3000, Alpha: 2.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := serialBFS(g, 0)
	res, err := runEdge[float64, float64](g, &bfsProgram{source: 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if res.States[v] != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, res.States[v], want[v])
		}
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{NumEdges: 5000, Alpha: 2.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var baseline []float64
	var baseTrace []int64
	for _, workers := range []int{1, 2, 4, 8} {
		res, err := runEdge[float64, float64](g, &bfsProgram{source: 1}, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if baseline == nil {
			baseline = res.States
			for _, it := range res.Trace.Iterations {
				baseTrace = append(baseTrace, it.Active, it.Updates, it.EdgeReads, it.Messages)
			}
			continue
		}
		for v := range baseline {
			if res.States[v] != baseline[v] {
				t.Fatalf("workers=%d: dist[%d] = %v, want %v", workers, v, res.States[v], baseline[v])
			}
		}
		var got []int64
		for _, it := range res.Trace.Iterations {
			got = append(got, it.Active, it.Updates, it.EdgeReads, it.Messages)
		}
		if len(got) != len(baseTrace) {
			t.Fatalf("workers=%d: trace length differs", workers)
		}
		for i := range got {
			if got[i] != baseTrace[i] {
				t.Fatalf("workers=%d: trace counter %d = %d, want %d", workers, i, got[i], baseTrace[i])
			}
		}
	}
}

func TestCounterSemantics(t *testing.T) {
	// Triangle 0-1-2: start with only vertex 0 active.
	b := graph.NewBuilder(3, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := runEdge[float64, float64](g, &bfsProgram{source: 0}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	its := res.Trace.Iterations
	// Iteration 0: 1 active vertex (0), gathers its 2 edges, 1 update,
	// signals both neighbors (2 messages).
	if its[0].Active != 1 || its[0].Updates != 1 || its[0].EdgeReads != 2 || its[0].Messages != 2 {
		t.Fatalf("iteration 0 counters = %+v", its[0])
	}
	// Iteration 1: vertices 1 and 2 active; each gathers 2 edges; no
	// further improvement possible, so no messages.
	if its[1].Active != 2 || its[1].Updates != 2 || its[1].EdgeReads != 4 || its[1].Messages != 0 {
		t.Fatalf("iteration 1 counters = %+v", its[1])
	}
	if len(its) != 2 {
		t.Fatalf("iterations = %d, want 2", len(its))
	}
	if f := res.Trace.ActiveFraction(); f[0] != 1.0/3.0 || f[1] != 2.0/3.0 {
		t.Fatalf("active fraction series = %v", f)
	}
}

func TestMaxIterationsCap(t *testing.T) {
	// A program that never quiesces: every vertex always signals.
	g := pathGraph(t, 8)
	res, err := runEdge[int, int](g, &alwaysOn{}, Options{MaxIterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Converged {
		t.Fatal("capped run reported convergence")
	}
	if res.Trace.NumIterations() != 5 {
		t.Fatalf("iterations = %d, want 5", res.Trace.NumIterations())
	}
}

type alwaysOn struct{}

func (alwaysOn) Init(_ *graph.Graph, _ uint32) (int, bool) { return 0, true }
func (alwaysOn) GatherDirection() Direction                { return Out }
func (alwaysOn) Gather(_ uint32, _ Arc, _, other int) int  { return other }
func (alwaysOn) Sum(a, b int) int                          { return a + b }
func (alwaysOn) Apply(_ uint32, self, _ int, _ bool) int   { return self + 1 }
func (alwaysOn) ScatterDirection() Direction               { return Out }
func (alwaysOn) Scatter(uint32, Arc, int, int) bool        { return true }

// hookProgram exercises Pre/PostIteration: no scatter signals at all, the
// post hook drives reactivation for exactly 3 iterations.
type hookProgram struct {
	preCalls, postCalls int
}

func (h *hookProgram) Init(_ *graph.Graph, _ uint32) (int, bool) { return 0, true }
func (h *hookProgram) GatherDirection() Direction                { return None }
func (h *hookProgram) Gather(_ uint32, _ Arc, _, _ int) int      { return 0 }
func (h *hookProgram) Sum(a, b int) int                          { return a + b }
func (h *hookProgram) Apply(_ uint32, self, _ int, hasAcc bool) int {
	if hasAcc {
		return -1000 // GatherDirection None must imply hasAcc == false
	}
	return self + 1
}
func (h *hookProgram) ScatterDirection() Direction        { return None }
func (h *hookProgram) Scatter(uint32, Arc, int, int) bool { return false }

func (h *hookProgram) PreIteration(c *Control[int]) { h.preCalls++ }
func (h *hookProgram) PostIteration(c *Control[int]) bool {
	h.postCalls++
	if c.Iteration() < 2 {
		c.ActivateAll()
		return false
	}
	return true
}

func TestHooksDriveReactivation(t *testing.T) {
	g := pathGraph(t, 6)
	p := &hookProgram{}
	res, err := runEdge[int, int](g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Trace.Converged {
		t.Fatal("hook-halted run not marked converged")
	}
	if res.Trace.NumIterations() != 3 {
		t.Fatalf("iterations = %d, want 3", res.Trace.NumIterations())
	}
	if p.preCalls != 3 || p.postCalls != 3 {
		t.Fatalf("hook calls pre=%d post=%d, want 3 and 3", p.preCalls, p.postCalls)
	}
	for v, s := range res.States {
		if s != 3 {
			t.Fatalf("state[%d] = %d, want 3 applies", v, s)
		}
	}
	// GatherDirection None → zero edge reads; ScatterDirection None → zero
	// messages; hook activations are not messages.
	for _, it := range res.Trace.Iterations {
		if it.EdgeReads != 0 || it.Messages != 0 {
			t.Fatalf("hook-driven run counted reads/messages: %+v", it)
		}
		if it.Active != 6 || it.Updates != 6 {
			t.Fatalf("expected all 6 vertices active/updated: %+v", it)
		}
	}
}

func TestControlActivateSingle(t *testing.T) {
	g := pathGraph(t, 4)
	p := &selectiveHook{}
	res, err := runEdge[int, int](g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Iteration 0: all 4 active; hook activates only vertex 2 for
	// iteration 1; then halts after iteration 1.
	its := res.Trace.Iterations
	if len(its) != 2 || its[0].Active != 4 || its[1].Active != 1 {
		t.Fatalf("unexpected activity pattern: %+v", its)
	}
}

type selectiveHook struct{ hookProgram }

func (s *selectiveHook) PostIteration(c *Control[int]) bool {
	if c.Iteration() == 0 {
		c.Activate(2)
		if c.NextActiveCount() != 1 {
			panic("NextActiveCount mismatch")
		}
		return false
	}
	return true
}

func TestDirectedGatherIn(t *testing.T) {
	// Star: arcs 1→0, 2→0, 3→0. Gathering In at 0 must read 3 edges.
	b := graph.NewBuilder(4, true).Weighted()
	b.AddWeightedEdge(1, 0, 2)
	b.AddWeightedEdge(2, 0, 3)
	b.AddWeightedEdge(3, 0, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := &weightSum{}
	res, err := runEdge[float64, float64](g, p, Options{MaxIterations: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.States[0] != 9 {
		t.Fatalf("gathered weight sum = %v, want 9", res.States[0])
	}
	if res.Trace.Iterations[0].EdgeReads != 3 {
		t.Fatalf("edge reads = %d, want 3", res.Trace.Iterations[0].EdgeReads)
	}
}

type weightSum struct{}

func (weightSum) Init(g *graph.Graph, v uint32) (float64, bool) { return 0, v == 0 }
func (weightSum) GatherDirection() Direction                    { return In }
func (weightSum) Gather(_ uint32, e Arc, _, _ float64) float64  { return e.Weight }
func (weightSum) Sum(a, b float64) float64                      { return a + b }
func (weightSum) Apply(_ uint32, _, acc float64, has bool) float64 {
	if !has {
		return -1
	}
	return acc
}
func (weightSum) ScatterDirection() Direction                { return None }
func (weightSum) Scatter(uint32, Arc, float64, float64) bool { return false }

func TestEmptyGraphRejected(t *testing.T) {
	if _, err := runEdge[int, int](nil, &alwaysOn{}, Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestIsolatedVertexHasNoAcc(t *testing.T) {
	b := graph.NewBuilder(2, false)
	b.AddEdge(0, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Run weightSum-like gather on a graph where vertex 0 has an edge.
	// Use a 3-vertex variant with isolated vertex 2.
	b2 := graph.NewBuilder(3, false).Weighted()
	b2.AddWeightedEdge(0, 1, 5)
	g2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	_ = g
	p := &allActiveSum{}
	res, err := runEdge[float64, float64](g2, p, Options{MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.States[2] != -1 {
		t.Fatalf("isolated vertex state = %v, want -1 (hasAcc false)", res.States[2])
	}
	if res.States[0] != 5 || res.States[1] != 5 {
		t.Fatalf("edge endpoints = %v, %v, want 5, 5", res.States[0], res.States[1])
	}
}

type allActiveSum struct{ weightSum }

func (allActiveSum) Init(_ *graph.Graph, _ uint32) (float64, bool) { return 0, true }

func BenchmarkEngineBFS(b *testing.B) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{NumEdges: 100000, Alpha: 2.2, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runEdge[float64, float64](g, &bfsProgram{source: 0}, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// runEdge runs a per-edge test program through the PerEdge adapter.
func runEdge[S, A any](g *graph.Graph, p EdgeProgram[S, A], opt Options) (*Result[S], error) {
	return Run(g, PerEdge(p), opt)
}
