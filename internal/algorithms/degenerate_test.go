package algorithms

import (
	"math"
	"testing"

	"gcbench/internal/graph"
)

// Degenerate-input tests: every algorithm must handle edgeless graphs,
// single components, and minimum-size inputs without panicking and with
// sensible outputs. These are the inputs real pipelines feed a library by
// accident.

func edgelessGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	// One edge then none to the rest makes n-1 isolated vertices; fully
	// edgeless builds are also legal.
	b := graph.NewBuilder(n, false).SortAdjacency()
	b.AddEdge(0, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCCWithIsolatedVertices(t *testing.T) {
	g := edgelessGraph(t, 10)
	out, labels, err := ConnectedComponents(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 1 two-vertex component + 8 singletons.
	if out.Summary["components"] != 9 {
		t.Fatalf("components = %v, want 9", out.Summary["components"])
	}
	if labels[0] != labels[1] {
		t.Fatal("edge endpoints in different components")
	}
}

func TestKCoreWithIsolatedVertices(t *testing.T) {
	g := edgelessGraph(t, 6)
	_, cores, err := KCoreDecomposition(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 2; v < 6; v++ {
		if cores[v] != 0 {
			t.Fatalf("isolated vertex %d core %d, want 0", v, cores[v])
		}
	}
	if cores[0] != 1 || cores[1] != 1 {
		t.Fatalf("edge endpoints cores %d, %d, want 1, 1", cores[0], cores[1])
	}
}

func TestTCTriangleFree(t *testing.T) {
	g := edgelessGraph(t, 5)
	_, triangles, err := TriangleCounting(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if triangles != 0 {
		t.Fatalf("triangles = %d on a triangle-free graph", triangles)
	}
}

func TestSSSPUnreachable(t *testing.T) {
	g := edgelessGraph(t, 5)
	out, dist, err := SingleSourceShortestPath(g, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Summary["reached"] != 2 {
		t.Fatalf("reached = %v, want 2", out.Summary["reached"])
	}
	for v := 2; v < 5; v++ {
		if !math.IsInf(dist[v], 1) {
			t.Fatalf("unreachable vertex %d has distance %v", v, dist[v])
		}
	}
}

func TestPageRankIsolatedVertices(t *testing.T) {
	g := edgelessGraph(t, 4)
	_, ranks, err := PageRank(g, PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Isolated vertices get the teleport mass only.
	for v := 2; v < 4; v++ {
		if math.Abs(ranks[v]-0.15) > 1e-9 {
			t.Fatalf("isolated rank = %v, want 0.15", ranks[v])
		}
	}
}

func TestDiameterSingleEdge(t *testing.T) {
	g := edgelessGraph(t, 3)
	_, diameter, err := ApproximateDiameter(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if diameter != 1 {
		t.Fatalf("diameter = %d, want 1", diameter)
	}
}

func TestKMeansSingleCluster(t *testing.T) {
	g := edgelessGraph(t, 8)
	pts := make([]float64, 16) // all points at the origin
	if err := g.SetFeatures(2, pts); err != nil {
		t.Fatal(err)
	}
	// Every centroid is seeded at the origin, so every point ties across
	// all kmK of them and takes the lowest index.
	out, assign, err := KMeans(g, KMeansOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range assign {
		if a != 0 {
			t.Fatal("identical points split across clusters")
		}
	}
	if out.Summary["inertia"] != 0 {
		t.Fatalf("inertia = %v, want 0 for identical points", out.Summary["inertia"])
	}
}

func TestCFSingleRating(t *testing.T) {
	b := graph.NewBuilder(2, true).Weighted()
	b.AddWeightedEdge(0, 1, 4.0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := AlternatingLeastSquares(g, 1, Options{}); err != nil {
		t.Fatalf("ALS: %v", err)
	}
	if _, _, err := NonnegativeMatrixFactorization(g, 1, Options{}); err != nil {
		t.Fatalf("NMF: %v", err)
	}
	if _, _, err := StochasticGradientDescent(g, 1, Options{}); err != nil {
		t.Fatalf("SGD: %v", err)
	}
	if _, sv, err := SingularValueDecomposition(g, 1, Options{}); err != nil {
		t.Fatalf("SVD: %v", err)
	} else if math.Abs(sv-4.0) > 0.01 {
		// The 1×1 matrix [4] has singular value 4.
		t.Fatalf("SVD of [4] = %v, want 4", sv)
	}
}

func TestLBPTwoVertices(t *testing.T) {
	b := graph.NewBuilder(2, false)
	b.AddEdge(0, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := graph.NewMRF(g, []int{2, 2},
		[][]float64{{0.9, 0.1}, {0.5, 0.5}},
		[][]float64{{3, 1, 1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	_, assign, err := LoopyBeliefPropagation(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Strong attraction + strong prior on 0 → both vertices pick state 0.
	if assign[0] != 0 || assign[1] != 0 {
		t.Fatalf("assign = %v, want [0 0]", assign)
	}
}

func TestDDTwoVertices(t *testing.T) {
	b := graph.NewBuilder(2, false)
	b.AddEdge(0, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := graph.NewMRF(g, []int{2, 2},
		[][]float64{{0.9, 0.1}, {0.6, 0.4}},
		[][]float64{{3, 1, 1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	out, assign, err := DualDecomposition(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Trace.Converged {
		t.Fatal("DD did not reach agreement on a 2-variable MRF")
	}
	if assign[0] != 0 || assign[1] != 0 {
		t.Fatalf("assign = %v, want [0 0]", assign)
	}
}
