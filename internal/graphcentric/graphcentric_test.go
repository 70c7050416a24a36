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
	res, err := Run[uint32](g, algorithms.MinLabel{}, Options{Partitions: 8})
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
	res, err := Run[float64](g, algorithms.Relax{Source: 0}, Options{Partitions: 4})
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
	res, err := Run[uint32](g, algorithms.MinLabel{}, Options{Partitions: 4})
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
	// With 4 partitions on a path, labels cross 3 boundaries: ≤5 steps.
	if gc > 5 {
		t.Fatalf("supersteps = %d, want ≤5 with 4 partitions", gc)
	}
}

func TestBoundaryMessagesOnlyAcrossPartitions(t *testing.T) {
	// Single partition: everything is internal, so zero messages and one
	// superstep (plus none after quiescence).
	g := testGraph(t, 1000, 2.5, 9)
	res, err := Run[uint32](g, algorithms.MinLabel{}, Options{Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.NumIterations() != 1 {
		t.Fatalf("single partition took %d supersteps, want 1", res.Trace.NumIterations())
	}
	if res.Trace.Iterations[0].Messages != 0 {
		t.Fatalf("single partition produced %d boundary messages", res.Trace.Iterations[0].Messages)
	}
}

func TestPartitionCountInsensitivity(t *testing.T) {
	// Results must be identical for any partitioning (monotone programs).
	g := testGraph(t, 2000, 2.2, 11)
	var base []uint32
	for _, parts := range []int{1, 2, 7, 32} {
		res, err := Run[uint32](g, algorithms.MinLabel{}, Options{Partitions: parts})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res.States
			continue
		}
		for v := range base {
			if res.States[v] != base[v] {
				t.Fatalf("partitions=%d: vertex %d label differs", parts, v)
			}
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run[uint32](nil, algorithms.MinLabel{}, Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
}
