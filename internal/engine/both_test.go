package engine

import (
	"math"
	"math/rand"
	"testing"

	"gcbench/internal/graph"
)

// bothSum gathers and scatters in Both directions on a directed graph —
// the access pattern the bipartite CF algorithms rely on.
type bothSum struct{}

func (bothSum) Init(_ *graph.Graph, _ uint32) (float64, bool)  { return 1, true }
func (bothSum) GatherDirection() Direction                     { return Both }
func (bothSum) Gather(_ uint32, e Arc, _, o float64) float64   { return e.Weight * o }
func (bothSum) Sum(a, b float64) float64                       { return a + b }
func (bothSum) Apply(_ uint32, _, acc float64, _ bool) float64 { return acc }
func (bothSum) ScatterDirection() Direction                    { return Both }
func (bothSum) Scatter(uint32, Arc, float64, float64) bool     { return true }

func TestGatherScatterBothOnDirected(t *testing.T) {
	// 0→1 (w 2), 2→1 (w 3), 1→3 (w 5): gathering Both at vertex 1 reads
	// in-arcs from 0 and 2 and the out-arc to 3.
	b := graph.NewBuilder(4, true).Weighted()
	b.AddWeightedEdge(0, 1, 2)
	b.AddWeightedEdge(2, 1, 3)
	b.AddWeightedEdge(1, 3, 5)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := runEdge[float64, float64](g, bothSum{}, Options{MaxIterations: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Vertex 1: 2·1 + 3·1 (in) + 5·1 (out) = 10.
	if res.States[1] != 10 {
		t.Fatalf("state[1] = %v, want 10", res.States[1])
	}
	// Vertex 0: only the out-arc to 1 → 2; vertex 3: in-arc from 1 → 5.
	if res.States[0] != 2 || res.States[3] != 5 {
		t.Fatalf("states = %v", res.States)
	}
	it := res.Trace.Iterations[0]
	// Each of the 3 arcs is visited from both endpoints: 6 reads, and the
	// Both-direction scatter signals across each arc both ways: 6 messages.
	if it.EdgeReads != 6 || it.Messages != 6 {
		t.Fatalf("reads=%d messages=%d, want 6 and 6", it.EdgeReads, it.Messages)
	}
}

func TestBothNormalizedToOutOnUndirected(t *testing.T) {
	// On an undirected graph, Both must not double-visit edges.
	b := graph.NewBuilder(2, false)
	b.AddEdge(0, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := runEdge[float64, float64](g, bothSum{}, Options{MaxIterations: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	it := res.Trace.Iterations[0]
	// 2 arcs total (one per direction), each gathered once — not twice.
	if it.EdgeReads != 2 {
		t.Fatalf("reads = %d, want 2 (no double visit)", it.EdgeReads)
	}
}

// TestBothFoldBitIdenticalToPerEdge: on a directed graph a Both gather is
// two runs per vertex — out-arcs, then in-arcs — and the engine continues
// one fold across them. Floating-point addition does not associate, so
// the sum must come out bit-identical to one left-to-right per-edge fold
// over out-arcs then in-arcs, written here against the graph accessors.
func TestBothFoldBitIdenticalToPerEdge(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const n = 300
	b := graph.NewBuilder(n, true).Weighted()
	for i := 0; i < 4000; i++ {
		// Magnitudes spread over 2^±30 make every reordering visible.
		w := math.Ldexp(r.Float64()-0.5, r.Intn(61)-30)
		b.AddWeightedEdge(uint32(r.Intn(n)), uint32(r.Intn(n)), w)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := runEdge[float64, float64](g, bothSum{}, Options{MaxIterations: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	orderMatters := false
	for v := uint32(0); v < n; v++ {
		var outIn, inOut float64 // bothSum: every neighbor's state is 1
		lo, hi := g.OutArcRange(v)
		for a := lo; a < hi; a++ {
			outIn += g.ArcWeight(a)
		}
		in := g.InCSR()
		for i := in.Off[v]; i < in.Off[v+1]; i++ {
			outIn += g.ArcWeight(in.Arc[i])
			inOut += g.ArcWeight(in.Arc[i])
		}
		lo, hi = g.OutArcRange(v)
		for a := lo; a < hi; a++ {
			inOut += g.ArcWeight(a)
		}
		if math.Float64bits(res.States[v]) != math.Float64bits(outIn) {
			t.Fatalf("state[%d] = %x, per-edge out-then-in fold %x", v, math.Float64bits(res.States[v]), math.Float64bits(outIn))
		}
		orderMatters = orderMatters || outIn != inOut
	}
	if !orderMatters {
		t.Fatal("no vertex's sum depends on the fold order: the test proves nothing")
	}
}
