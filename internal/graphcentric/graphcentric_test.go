package graphcentric

import (
	"testing"

	"gcbench/internal/algorithms"
	"gcbench/internal/gen"
	"gcbench/internal/graph"
)

func testGraph(t *testing.T, edges int64, alpha float64, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{NumEdges: edges, Alpha: alpha, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCCMatchesGAS(t *testing.T) {
	g := testGraph(t, 3000, 2.3, 5)
	res, err := Run[uint32](g, algorithms.MinLabel{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, gasLabels, err := algorithms.ConnectedComponents(g, algorithms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range gasLabels {
		if res.States[v] != gasLabels[v] {
			t.Fatalf("vertex %d: graph-centric %d, GAS %d", v, res.States[v], gasLabels[v])
		}
	}
	if !res.Trace.Converged {
		t.Fatal("did not converge")
	}
}

func TestSSSPMatchesGAS(t *testing.T) {
	g := testGraph(t, 3000, 2.5, 7)
	res, err := Run[float64](g, algorithms.Relax{Source: 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, gasDist, err := algorithms.SingleSourceShortestPath(g, 0, algorithms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range gasDist {
		if res.States[v] != gasDist[v] {
			t.Fatalf("vertex %d: graph-centric %v, GAS %v", v, res.States[v], gasDist[v])
		}
	}
}

// TestFewerSupersteps checks the model's defining property (and the
// Giraph++ motivation): local fixed points collapse many vertex-centric
// iterations into few supersteps.
func TestFewerSupersteps(t *testing.T) {
	// A long path maximizes the contrast: vertex-centric CC needs ~n
	// iterations, graph-centric needs ~partitions supersteps.
	n := 256
	b := graph.NewBuilder(n, false)
	for i := 0; i < n-1; i++ {
		b.AddEdge(uint32(i), uint32(i+1))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run[uint32](g, algorithms.MinLabel{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gasOut, _, err := algorithms.ConnectedComponents(g, algorithms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gc := res.Trace.NumIterations()
	gas := gasOut.Trace.NumIterations()
	if gc >= gas/4 {
		t.Fatalf("graph-centric used %d supersteps vs %d GAS iterations; expected ≥4x fewer", gc, gas)
	}
	// With 8 partitions on a path, labels cross 7 boundaries: ≤9 steps.
	if gc > partitions+1 {
		t.Fatalf("supersteps = %d, want ≤%d with %d partitions", gc, partitions+1, partitions)
	}
}

func TestBoundaryMessagesOnlyAcrossPartitions(t *testing.T) {
	// 2·partitions vertices make partitions of two, {2p, 2p+1}. Edges
	// inside the pairs are all internal: zero messages and one superstep
	// (plus none after quiescence).
	n := 2 * partitions
	b := graph.NewBuilder(n, false)
	for v := uint32(0); int(v) < n; v += 2 {
		b.AddEdge(v, v+1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run[uint32](g, algorithms.MinLabel{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.NumIterations() != 1 {
		t.Fatalf("internal edges took %d supersteps, want 1", res.Trace.NumIterations())
	}
	if res.Trace.Iterations[0].Messages != 0 {
		t.Fatalf("internal edges produced %d boundary messages", res.Trace.Iterations[0].Messages)
	}
}

// TestPartitionClampMatchesGAS runs graphs with fewer vertices than
// partitions, where every vertex is a partition of its own, and graphs
// just past the count: labels match GAS (monotone programs give the same
// result under any partitioning).
func TestPartitionClampMatchesGAS(t *testing.T) {
	for n := 1; n <= partitions+2; n++ {
		b := graph.NewBuilder(n, false)
		for i := 0; i+2 < n; i += 2 {
			b.AddEdge(uint32(i+2), uint32(i)) // components {0, 2, 4, …} and the odd singletons
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run[uint32](g, algorithms.MinLabel{}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, gasLabels, err := algorithms.ConnectedComponents(g, algorithms.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for v := range gasLabels {
			if res.States[v] != gasLabels[v] {
				t.Fatalf("n=%d: vertex %d: graph-centric %d, GAS %d", n, v, res.States[v], gasLabels[v])
			}
		}
		if n >= 3 && n <= partitions && res.Trace.Iterations[0].Messages == 0 {
			t.Fatalf("n=%d: one vertex per partition, yet no boundary message", n)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run[uint32](nil, algorithms.MinLabel{}, Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
}
