package gen

import (
	"math"
	"strings"
	"testing"

	"gcbench/internal/graph"
)

func TestPowerLawBasic(t *testing.T) {
	g, err := PowerLaw(PowerLawConfig{NumEdges: 5000, Alpha: 2.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.Directed() {
		t.Fatal("default power-law graph should be undirected")
	}
	// Dedup and self-loop removal shave some edges; expect within 25%.
	if g.NumEdges() < 3750 || g.NumEdges() > 5000 {
		t.Fatalf("NumEdges = %d, want within [3750, 5000]", g.NumEdges())
	}
	if g.NumVertices() < 100 {
		t.Fatalf("suspiciously few vertices: %d", g.NumVertices())
	}
}

func TestPowerLawDeterministic(t *testing.T) {
	cfg := PowerLawConfig{NumEdges: 2000, Alpha: 2.25, Seed: 42}
	a, err := PowerLaw(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PowerLaw(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed produced different graphs: (%d,%d) vs (%d,%d)",
			a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	for v := uint32(0); int(v) < a.NumVertices(); v++ {
		if a.OutDegree(v) != b.OutDegree(v) {
			t.Fatalf("vertex %d degree differs: %d vs %d", v, a.OutDegree(v), b.OutDegree(v))
		}
	}
	c, err := PowerLaw(PowerLawConfig{NumEdges: 2000, Alpha: 2.25, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if degreesEqual(a, c) {
		t.Fatal("different seeds produced identical degree sequences")
	}
}

func degreesEqual(a, b *graph.Graph) bool {
	if a.NumVertices() != b.NumVertices() {
		return false
	}
	for v := uint32(0); int(v) < a.NumVertices(); v++ {
		if a.OutDegree(v) != b.OutDegree(v) {
			return false
		}
	}
	return true
}

// TestPowerLawTailExponent fits the realized degree distribution's tail and
// checks alpha ordering: a steeper configured alpha must produce a steeper
// realized tail (the property the sweep relies on).
func TestPowerLawTailExponent(t *testing.T) {
	slopes := make(map[float64]float64)
	for _, alpha := range []float64{2.0, 3.0} {
		g, err := PowerLaw(PowerLawConfig{NumEdges: 30000, Alpha: alpha, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		slopes[alpha] = fitTailSlope(g)
	}
	if slopes[3.0] >= slopes[2.0] {
		t.Fatalf("tail slope for alpha=3 (%v) not steeper than alpha=2 (%v)",
			slopes[3.0], slopes[2.0])
	}
}

// fitTailSlope least-squares fits log P(k) vs log k over k in [2, 30],
// where P(k) is the fraction of vertices with out-degree k.
func fitTailSlope(g *graph.Graph) float64 {
	count := make([]int, g.MaxDegree()+1)
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		count[g.OutDegree(v)]++
	}
	var xs, ys []float64
	for k := 2; k < len(count) && k <= 30; k++ {
		if count[k] == 0 {
			continue
		}
		xs = append(xs, math.Log(float64(k)))
		ys = append(ys, math.Log(float64(count[k])/float64(g.NumVertices())))
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	n := float64(len(xs))
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

func TestPowerLawHeavierTailForSmallerAlpha(t *testing.T) {
	gLow, err := PowerLaw(PowerLawConfig{NumEdges: 20000, Alpha: 2.0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	gHigh, err := PowerLaw(PowerLawConfig{NumEdges: 20000, Alpha: 3.0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if gLow.MaxDegree() <= gHigh.MaxDegree() {
		t.Fatalf("alpha=2 max degree %d not above alpha=3 max degree %d",
			gLow.MaxDegree(), gHigh.MaxDegree())
	}
}

func TestPowerLawErrors(t *testing.T) {
	if _, err := PowerLaw(PowerLawConfig{NumEdges: 0, Alpha: 2.5}); err == nil {
		t.Fatal("NumEdges=0 accepted")
	}
	if _, err := PowerLaw(PowerLawConfig{NumEdges: 100, Alpha: 0.5}); err == nil {
		t.Fatal("Alpha=0.5 accepted")
	}
	// NaN fails the Alpha check itself, not the sampler it would reach.
	if _, err := PowerLaw(PowerLawConfig{NumEdges: 100, Alpha: math.NaN()}); err == nil || !strings.Contains(err.Error(), "Alpha must exceed 1") {
		t.Fatalf("Alpha=NaN: %v", err)
	}
	// From α ≈ 1075 up, 2^-α is 0: every weight past degree 1 vanishes.
	for _, alpha := range []float64{math.Inf(1), 1e300} {
		if _, err := PowerLaw(PowerLawConfig{NumEdges: 100, Alpha: alpha}); err == nil {
			t.Errorf("Alpha=%v accepted", alpha)
		}
	}
}

func TestPowerLawSorted(t *testing.T) {
	g, err := PowerLaw(PowerLawConfig{NumEdges: 1000, Alpha: 2.5, Seed: 5, SortAdjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	if !g.AdjSorted() {
		t.Fatal("SortAdjacency not reflected")
	}
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		adj := g.OutNeighbors(v)
		for i := 1; i < len(adj); i++ {
			if adj[i-1] >= adj[i] {
				t.Fatalf("vertex %d adjacency not strictly sorted: %v", v, adj)
			}
		}
	}
}

func TestGaussianPoints2D(t *testing.T) {
	pts := GaussianPoints2D(1000, 4, 10, 11)
	if len(pts) != 2000 {
		t.Fatalf("len = %d, want 2000", len(pts))
	}
	again := GaussianPoints2D(1000, 4, 10, 11)
	for i := range pts {
		if pts[i] != again[i] {
			t.Fatal("GaussianPoints2D not deterministic")
		}
	}
}

func TestBipartiteBasic(t *testing.T) {
	g, users, err := Bipartite(BipartiteConfig{NumEdges: 5000, Alpha: 2.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Directed() || !g.Weighted() {
		t.Fatal("bipartite rating graph must be directed and weighted")
	}
	if users*2 != g.NumVertices() {
		t.Fatalf("users=%d but %d vertices; paper requires #items = #users", users, g.NumVertices())
	}
	// All arcs go user → item.
	for u := uint32(0); int(u) < g.NumVertices(); u++ {
		deg := g.OutDegree(u)
		if int(u) >= users && deg != 0 {
			t.Fatalf("item %d has %d out-arcs, want 0", u, deg)
		}
		lo, hi := g.OutArcRange(u)
		for a := lo; a < hi; a++ {
			if int(g.ArcTarget(a)) < users {
				t.Fatalf("arc from %d targets user %d", u, g.ArcTarget(a))
			}
			w := g.ArcWeight(a)
			if w < 0.5 || w > 5.5 {
				t.Fatalf("rating %v outside clamp range", w)
			}
		}
	}
}

func TestBipartiteErrors(t *testing.T) {
	if _, _, err := Bipartite(BipartiteConfig{NumEdges: 0, Alpha: 2}); err == nil {
		t.Fatal("NumEdges=0 accepted")
	}
	if _, _, err := Bipartite(BipartiteConfig{NumEdges: 10, Alpha: 1}); err == nil {
		t.Fatal("Alpha=1 accepted")
	}
	if _, _, err := Bipartite(BipartiteConfig{NumEdges: 10, Alpha: math.NaN()}); err == nil || !strings.Contains(err.Error(), "Alpha must exceed 1") {
		t.Fatalf("Alpha=NaN: %v", err)
	}
	for _, alpha := range []float64{math.Inf(1), 1e300} {
		if _, _, err := Bipartite(BipartiteConfig{NumEdges: 10, Alpha: alpha}); err == nil {
			t.Errorf("Alpha=%v accepted", alpha)
		}
	}
}

func TestMatrixDiagonallyDominant(t *testing.T) {
	sys, err := Matrix(JacobiConfig{NumRows: 500, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := sys.G
	if g.NumVertices() != 500 {
		t.Fatalf("NumVertices = %d, want 500", g.NumVertices())
	}
	for i := uint32(0); int(i) < 500; i++ {
		if g.OutDegree(i) != 8 {
			t.Fatalf("row %d degree %d, want uniform 8", i, g.OutDegree(i))
		}
		var off float64
		lo, hi := g.OutArcRange(i)
		for a := lo; a < hi; a++ {
			off += math.Abs(g.ArcWeight(a))
		}
		if sys.Diag[i] <= off {
			t.Fatalf("row %d not strictly dominant: diag %v vs off-sum %v", i, sys.Diag[i], off)
		}
	}
}

func TestMatrixErrors(t *testing.T) {
	if _, err := Matrix(JacobiConfig{NumRows: 1}); err == nil {
		t.Fatal("NumRows=1 accepted")
	}
	if _, err := Matrix(JacobiConfig{NumRows: matrixDegree}); err == nil {
		t.Fatal("row degree >= NumRows accepted")
	}
}

func TestGridStructure(t *testing.T) {
	m, err := Grid(GridConfig{Rows: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := m.G
	if g.NumVertices() != 100 {
		t.Fatalf("NumVertices = %d, want 100", g.NumVertices())
	}
	// 4-connected grid: 2·side·(side-1) edges.
	if g.NumEdges() != 180 {
		t.Fatalf("NumEdges = %d, want 180", g.NumEdges())
	}
	// Corner degree 2, edge 3, interior 4.
	if g.OutDegree(0) != 2 {
		t.Fatalf("corner degree %d, want 2", g.OutDegree(0))
	}
	if g.OutDegree(5) != 3 {
		t.Fatalf("border degree %d, want 3", g.OutDegree(5))
	}
	if g.OutDegree(55) != 4 {
		t.Fatalf("interior degree %d, want 4", g.OutDegree(55))
	}
	for v := 0; v < g.NumVertices(); v++ {
		if m.Card[v] != 3 {
			t.Fatalf("default States should be 3, got %d", m.Card[v])
		}
	}
}

func TestGridErrors(t *testing.T) {
	if _, err := Grid(GridConfig{Rows: 1}); err == nil {
		t.Fatal("Rows=1 accepted")
	}
}

func TestMRFGenerator(t *testing.T) {
	m, err := MRF(MRFConfig{NumEdges: 1056, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.G.NumEdges() < 800 || m.G.NumEdges() > 1056 {
		t.Fatalf("NumEdges = %d, want near 1056", m.G.NumEdges())
	}
	for v := 0; v < m.G.NumVertices(); v++ {
		if m.Card[v] != 2 {
			t.Fatalf("default cardinality should be 2, got %d", m.Card[v])
		}
		for _, x := range m.Unary[v] {
			if x <= 0 {
				t.Fatal("non-positive unary potential")
			}
		}
	}
	for _, tab := range m.Pairwise {
		for _, x := range tab {
			if x <= 0 {
				t.Fatal("non-positive pairwise potential")
			}
		}
	}
}

func TestMRFErrors(t *testing.T) {
	if _, err := MRF(MRFConfig{NumEdges: 0}); err == nil {
		t.Fatal("NumEdges=0 accepted")
	}
}
