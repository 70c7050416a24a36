package algorithms

import (
	"container/heap"
	"math"
	"slices"
	"testing"

	"gcbench/internal/gen"
	"gcbench/internal/graph"
)

// --- test graph helpers ---

func undirected(t *testing.T, n int, sorted bool, edges ...[2]uint32) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n, false).Dedup()
	if sorted {
		b.SortAdjacency()
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func powerLawGraph(t testing.TB, edges int64, alpha float64, seed uint64, sorted bool) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		NumEdges: edges, Alpha: alpha, Seed: seed, SortAdjacency: sorted,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// --- serial references ---

// unionFind is the CC reference.
type unionFind struct{ parent []int }

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}
func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}
func (u *unionFind) union(a, b int) { u.parent[u.find(a)] = u.find(b) }

func serialComponents(g *graph.Graph) int {
	uf := newUnionFind(g.NumVertices())
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		for _, w := range g.OutNeighbors(v) {
			uf.union(int(v), int(w))
		}
	}
	roots := map[int]struct{}{}
	for i := 0; i < g.NumVertices(); i++ {
		roots[uf.find(i)] = struct{}{}
	}
	return len(roots)
}

// serialCores is the KC reference: classic O(m) peeling.
func serialCores(g *graph.Graph) []int32 {
	n := g.NumVertices()
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = g.OutDegree(uint32(v))
	}
	cores := make([]int32, n)
	removed := make([]bool, n)
	for k := 0; ; k++ {
		// Remove everything with degree < k+1 ... peel level by level.
		changed := true
		anyLeft := false
		for changed {
			changed = false
			for v := 0; v < n; v++ {
				if !removed[v] && deg[v] < k+1 {
					removed[v] = true
					cores[v] = int32(k)
					changed = true
					for _, w := range g.OutNeighbors(uint32(v)) {
						if !removed[w] {
							deg[w]--
						}
					}
				}
			}
		}
		for v := 0; v < n; v++ {
			if !removed[v] {
				anyLeft = true
				break
			}
		}
		if !anyLeft {
			return cores
		}
	}
}

// serialTriangles is the TC reference: enumerate ordered wedges.
func serialTriangles(g *graph.Graph) int64 {
	var count int64
	n := g.NumVertices()
	for a := uint32(0); int(a) < n; a++ {
		for _, b := range g.OutNeighbors(a) {
			if b <= a {
				continue
			}
			for _, c := range g.OutNeighbors(b) {
				if c <= b {
					continue
				}
				if slices.Contains(g.OutNeighbors(a), c) {
					count++
				}
			}
		}
	}
	return count
}

// dijkstra is the SSSP reference.
type pqItem struct {
	v    uint32
	dist float64
}
type pq []pqItem

func (p pq) Len() int           { return len(p) }
func (p pq) Less(i, j int) bool { return p[i].dist < p[j].dist }
func (p pq) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x any)        { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() any          { old := *p; x := old[len(old)-1]; *p = old[:len(old)-1]; return x }

func dijkstra(g *graph.Graph, src uint32) []float64 {
	dist := make([]float64, g.NumVertices())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	h := &pq{{src, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(pqItem)
		if it.dist > dist[it.v] {
			continue
		}
		lo, hi := g.OutArcRange(it.v)
		for a := lo; a < hi; a++ {
			w := g.ArcTarget(a)
			d := it.dist + g.ArcWeight(a)
			if d < dist[w] {
				dist[w] = d
				heap.Push(h, pqItem{w, d})
			}
		}
	}
	return dist
}

// densePageRank is the PR reference: power iteration on the full matrix.
func densePageRank(g *graph.Graph, damping float64, iters int) []float64 {
	n := g.NumVertices()
	rank := make([]float64, n)
	for i := range rank {
		rank[i] = 1
	}
	for it := 0; it < iters; it++ {
		next := make([]float64, n)
		for v := uint32(0); int(v) < n; v++ {
			var sum float64
			in := g.InCSR()
			for _, u := range in.Adj[in.Off[v]:in.Off[v+1]] {
				sum += rank[u] / float64(g.OutDegree(u))
			}
			next[v] = (1 - damping) + damping*sum
		}
		rank = next
	}
	return rank
}

// exactDiameter is the AD reference: BFS from every vertex.
func exactDiameter(g *graph.Graph) int {
	best := 0
	n := g.NumVertices()
	dist := make([]int, n)
	queue := make([]uint32, 0, n)
	for s := uint32(0); int(s) < n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.OutNeighbors(u) {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					if dist[v] > best {
						best = dist[v]
					}
					queue = append(queue, v)
				}
			}
		}
	}
	return best
}

// --- CC ---

func TestCCTwoComponents(t *testing.T) {
	g := undirected(t, 6, false, [2]uint32{0, 1}, [2]uint32{1, 2}, [2]uint32{3, 4}, [2]uint32{4, 5})
	out, labels, err := ConnectedComponents(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Summary["components"] != 2 {
		t.Fatalf("components = %v, want 2", out.Summary["components"])
	}
	if labels[0] != labels[1] || labels[1] != labels[2] || labels[0] != 0 {
		t.Fatalf("component A labels: %v", labels[:3])
	}
	if labels[3] != labels[4] || labels[4] != labels[5] || labels[3] != 3 {
		t.Fatalf("component B labels: %v", labels[3:])
	}
	if !out.Trace.Converged {
		t.Fatal("CC did not converge")
	}
	// All vertices start active (paper: CC is all-active initially).
	if out.Trace.Iterations[0].Active != 6 {
		t.Fatalf("initial active = %d, want 6", out.Trace.Iterations[0].Active)
	}
}

func TestCCMatchesUnionFind(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g := powerLawGraph(t, 2000, 2.0+0.25*float64(seed), seed, false)
		out, labels, err := ConnectedComponents(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := serialComponents(g)
		if int(out.Summary["components"]) != want {
			t.Fatalf("seed %d: components = %v, want %d", seed, out.Summary["components"], want)
		}
		// Same-component vertices share labels; neighbors must match.
		for v := uint32(0); int(v) < g.NumVertices(); v++ {
			for _, w := range g.OutNeighbors(v) {
				if labels[v] != labels[w] {
					t.Fatalf("neighbors %d and %d have labels %d, %d", v, w, labels[v], labels[w])
				}
			}
		}
	}
}

func TestCCRejectsDirected(t *testing.T) {
	b := graph.NewBuilder(2, true)
	b.AddEdge(0, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ConnectedComponents(g, Options{}); err == nil {
		t.Fatal("directed graph accepted")
	}
}

// --- KC ---

func TestKCoreOnKnownGraph(t *testing.T) {
	// A 4-clique {0,1,2,3} with a pendant path 3-4-5: clique has core 3,
	// path vertices core 1.
	g := undirected(t, 6, false,
		[2]uint32{0, 1}, [2]uint32{0, 2}, [2]uint32{0, 3},
		[2]uint32{1, 2}, [2]uint32{1, 3}, [2]uint32{2, 3},
		[2]uint32{3, 4}, [2]uint32{4, 5})
	out, cores, err := KCoreDecomposition(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{3, 3, 3, 3, 1, 1}
	for v := range want {
		if cores[v] != want[v] {
			t.Fatalf("core[%d] = %d, want %d (all: %v)", v, cores[v], want[v], cores)
		}
	}
	if out.Summary["maxCore"] != 3 {
		t.Fatalf("maxCore = %v, want 3", out.Summary["maxCore"])
	}
}

func TestKCoreMatchesSerialPeeling(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		g := powerLawGraph(t, 1500, 2.2, seed+10, false)
		_, cores, err := KCoreDecomposition(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := serialCores(g)
		for v := range want {
			if cores[v] != want[v] {
				t.Fatalf("seed %d: core[%d] = %d, want %d", seed, v, cores[v], want[v])
			}
		}
	}
}

// --- TC ---

func TestTriangleCountingKnown(t *testing.T) {
	// Two triangles sharing edge 1-2: {0,1,2} and {1,2,3}.
	g := undirected(t, 4, true,
		[2]uint32{0, 1}, [2]uint32{0, 2}, [2]uint32{1, 2},
		[2]uint32{1, 3}, [2]uint32{2, 3})
	out, triangles, err := TriangleCounting(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if triangles != 2 {
		t.Fatalf("triangles = %d, want 2", triangles)
	}
	// One effective iteration: everything quiesces immediately after.
	if out.Trace.NumIterations() != 1 {
		t.Fatalf("iterations = %d, want 1", out.Trace.NumIterations())
	}
	// EREAD per iteration = 2 per edge (each arc visited once).
	if out.Trace.Iterations[0].EdgeReads != 10 {
		t.Fatalf("edge reads = %d, want 10", out.Trace.Iterations[0].EdgeReads)
	}
}

func TestTriangleCountingMatchesBruteForce(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		g := powerLawGraph(t, 1200, 2.0, seed+20, true)
		_, triangles, err := TriangleCounting(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want := serialTriangles(g); triangles != want {
			t.Fatalf("seed %d: triangles = %d, want %d", seed, triangles, want)
		}
	}
}

func TestTriangleCountingRequiresSorted(t *testing.T) {
	g := undirected(t, 3, false, [2]uint32{0, 1}, [2]uint32{1, 2}, [2]uint32{0, 2})
	if _, _, err := TriangleCounting(g, Options{}); err == nil {
		t.Fatal("unsorted adjacency accepted")
	}
}

// --- SSSP ---

func TestSSSPMatchesDijkstraUnweighted(t *testing.T) {
	g := powerLawGraph(t, 3000, 2.5, 31, false)
	out, dist, err := SingleSourceShortestPath(g, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := dijkstra(g, 0)
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, dist[v], want[v])
		}
	}
	// Paper: only the source is active initially, then the frontier grows.
	if out.Trace.Iterations[0].Active != 1 {
		t.Fatalf("initial active = %d, want 1", out.Trace.Iterations[0].Active)
	}
	if len(out.Trace.Iterations) > 1 && out.Trace.Iterations[1].Active <= 0 {
		t.Fatal("frontier did not grow")
	}
}

func TestSSSPWeighted(t *testing.T) {
	b := graph.NewBuilder(4, false).Weighted()
	b.AddWeightedEdge(0, 1, 5)
	b.AddWeightedEdge(0, 2, 1)
	b.AddWeightedEdge(2, 1, 1)
	b.AddWeightedEdge(1, 3, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, dist, err := SingleSourceShortestPath(g, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 2, 1, 3}
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("dist = %v, want %v", dist, want)
		}
	}
}

// --- PR ---

func TestPageRankMatchesPowerIteration(t *testing.T) {
	g := powerLawGraph(t, 2000, 2.5, 41, false)
	out, ranks, err := PageRank(g, PageRankOptions{Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	want := densePageRank(g, 0.85, 200)
	for v := range want {
		if math.Abs(ranks[v]-want[v]) > 1e-4*(1+want[v]) {
			t.Fatalf("rank[%d] = %v, want %v", v, ranks[v], want[v])
		}
	}
	// All vertices begin active and activity declines (paper §1).
	its := out.Trace.Iterations
	if its[0].Active != int64(g.NumVertices()) {
		t.Fatalf("initial active = %d, want all %d", its[0].Active, g.NumVertices())
	}
	last := its[len(its)-1].Active
	if last >= its[0].Active {
		t.Fatalf("activity did not decline: first %d, last %d", its[0].Active, last)
	}
}

// --- AD ---

func TestApproximateDiameterOnPath(t *testing.T) {
	n := 30
	b := graph.NewBuilder(n, false)
	for i := 0; i < n-1; i++ {
		b.AddEdge(uint32(i), uint32(i+1))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	out, diameter, err := ApproximateDiameter(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// FM sketches can only underestimate when hashes collide; a path's
	// sketches change every hop, so the estimate should be exact here.
	if want := exactDiameter(g); diameter != want {
		t.Fatalf("diameter = %d, want %d", diameter, want)
	}
	// Paper: AD has active fraction 1.0 for the whole lifecycle.
	for _, it := range out.Trace.Iterations {
		if it.Active != int64(n) {
			t.Fatalf("iteration %d active = %d, want %d", it.Iteration, it.Active, n)
		}
	}
}

func TestApproximateDiameterClosePowerLaw(t *testing.T) {
	g := powerLawGraph(t, 2000, 2.2, 51, false)
	_, diameter, err := ApproximateDiameter(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := exactDiameter(g)
	// Sketches can stop growing a hop or two early when the last vertices
	// reached contribute no new bits (hash collisions) — that is the
	// "approximate" in Approximate Diameter. Accept a small underestimate.
	if diameter > want || diameter < want-2 {
		t.Fatalf("diameter = %d, want within [%d, %d]", diameter, want-2, want)
	}
}
