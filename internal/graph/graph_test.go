package graph

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"gcbench/internal/rng"
)

// mustBuild is a test helper that fails the test on builder errors.
func mustBuild(t *testing.T, b *Builder) *Graph {
	t.Helper()
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestUndirectedBasics(t *testing.T) {
	b := NewBuilder(4, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := mustBuild(t, b)

	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	if g.NumArcs() != 6 {
		t.Fatalf("NumArcs = %d, want 6", g.NumArcs())
	}
	if g.Directed() {
		t.Fatal("undirected graph reports Directed")
	}
	wantDeg := []int{1, 2, 2, 1}
	for v, want := range wantDeg {
		if d := g.OutDegree(uint32(v)); d != want {
			t.Fatalf("OutDegree(%d) = %d, want %d", v, d, want)
		}
	}
	if !reflect.DeepEqual(g.InCSR(), g.OutCSR()) {
		t.Fatal("undirected InCSR differs from OutCSR")
	}
	if got := g.OutNeighbors(0); !reflect.DeepEqual(got, []uint32{1}) {
		t.Fatalf("OutNeighbors(0) = %v, want [1]", got)
	}
	if got := g.OutNeighbors(1); !reflect.DeepEqual(got, []uint32{0, 2}) {
		t.Fatalf("OutNeighbors(1) = %v, want [0 2]", got)
	}
}

func TestDirectedBasics(t *testing.T) {
	b := NewBuilder(3, true)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(2, 1)
	g := mustBuild(t, b)

	if g.NumEdges() != 3 || g.NumArcs() != 3 {
		t.Fatalf("NumEdges=%d NumArcs=%d, want 3 and 3", g.NumEdges(), g.NumArcs())
	}
	in := g.InCSR()
	if g.OutDegree(0) != 2 || in.Off[1]-in.Off[0] != 0 {
		t.Fatalf("vertex 0 degrees out=%d in=%d, want 2, 0", g.OutDegree(0), in.Off[1]-in.Off[0])
	}
	if g.OutDegree(1) != 0 || in.Off[2]-in.Off[1] != 2 {
		t.Fatalf("vertex 1 degrees out=%d in=%d, want 0, 2", g.OutDegree(1), in.Off[2]-in.Off[1])
	}
	ins := append([]uint32(nil), in.Adj[in.Off[1]:in.Off[2]]...)
	sort.Slice(ins, func(i, j int) bool { return ins[i] < ins[j] })
	if len(ins) != 2 || ins[0] != 0 || ins[1] != 2 {
		t.Fatalf("in-neighbors of 1 = %v, want [0 2]", ins)
	}
}

func TestInArcToOutArcDirected(t *testing.T) {
	b := NewBuilder(4, true).Weighted()
	b.AddWeightedEdge(0, 2, 10)
	b.AddWeightedEdge(1, 2, 20)
	b.AddWeightedEdge(3, 2, 30)
	g := mustBuild(t, b)

	in := g.InCSR()
	lo, hi := in.Off[2], in.Off[3]
	if hi-lo != 3 {
		t.Fatalf("vertex 2 has %d in-arcs, want 3", hi-lo)
	}
	for a := lo; a < hi; a++ {
		src := in.Adj[a]
		out := in.Arc[a]
		if g.ArcTarget(out) != 2 {
			t.Fatalf("cross-indexed out-arc %d targets %d, want 2", out, g.ArcTarget(out))
		}
		want := map[uint32]float64{0: 10, 1: 20, 3: 30}[src]
		if got := g.ArcWeight(out); got != want {
			t.Fatalf("weight via in-arc from %d = %v, want %v", src, got, want)
		}
	}
}

func TestSelfLoopsDroppedByDefault(t *testing.T) {
	b := NewBuilder(2, false)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	g := mustBuild(t, b)
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 (self-loop dropped)", g.NumEdges())
	}

	b2 := NewBuilder(2, true)
	b2.AddEdge(0, 0)
	b2.AddEdge(1, 1)
	if g2 := mustBuild(t, b2); g2.NumEdges() != 0 || g2.NumArcs() != 0 {
		t.Fatalf("directed: NumEdges=%d NumArcs=%d, want 0 and 0 (self-loops dropped)", g2.NumEdges(), g2.NumArcs())
	}
}

func TestDedup(t *testing.T) {
	b := NewBuilder(3, false).Dedup()
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // same undirected edge
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(1, 2)
	g := mustBuild(t, b)
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 after dedup", g.NumEdges())
	}

	bd := NewBuilder(3, true).Dedup()
	bd.AddEdge(0, 1)
	bd.AddEdge(1, 0) // distinct directed arcs survive
	bd.AddEdge(0, 1)
	gd := mustBuild(t, bd)
	if gd.NumEdges() != 2 {
		t.Fatalf("directed NumEdges = %d, want 2 (0→1 and 1→0)", gd.NumEdges())
	}
}

func TestSortAdjacency(t *testing.T) {
	b := NewBuilder(5, false).SortAdjacency().Weighted()
	b.AddWeightedEdge(0, 4, 4)
	b.AddWeightedEdge(0, 2, 2)
	b.AddWeightedEdge(0, 3, 3)
	b.AddWeightedEdge(0, 1, 1)
	g := mustBuild(t, b)
	adj := g.OutNeighbors(0)
	if !sort.SliceIsSorted(adj, func(i, j int) bool { return adj[i] < adj[j] }) {
		t.Fatalf("adjacency not sorted: %v", adj)
	}
	// Weights must follow their targets through the sort.
	lo, _ := g.OutArcRange(0)
	for i, v := range adj {
		if w := g.ArcWeight(lo + int64(i)); w != float64(v) {
			t.Fatalf("weight of arc to %d = %v, want %v", v, w, float64(v))
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder(0, false).Build(); err == nil {
		t.Fatal("Build with 0 vertices succeeded")
	}
	b := NewBuilder(2, false)
	b.AddEdge(0, 5)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build with out-of-range endpoint succeeded")
	}
}

func TestWeightsDefaultToOne(t *testing.T) {
	b := NewBuilder(2, false)
	b.AddEdge(0, 1)
	g := mustBuild(t, b)
	if g.Weighted() {
		t.Fatal("unweighted graph reports Weighted")
	}
	lo, _ := g.OutArcRange(0)
	if w := g.ArcWeight(lo); w != 1 {
		t.Fatalf("unweighted ArcWeight = %v, want 1", w)
	}
}

func TestFeatures(t *testing.T) {
	b := NewBuilder(3, false)
	b.AddEdge(0, 1)
	g := mustBuild(t, b)
	if err := g.SetFeatures(2, []float64{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	f := g.Features(1)
	if len(f) != 2 || f[0] != 3 || f[1] != 4 {
		t.Fatalf("Features(1) = %v, want [3 4]", f)
	}
	if err := g.SetFeatures(2, []float64{1}); err == nil {
		t.Fatal("SetFeatures with wrong length succeeded")
	}
	if err := g.SetFeatures(0, nil); err == nil {
		t.Fatal("SetFeatures with dim 0 succeeded")
	}
}

func TestMaxDegree(t *testing.T) {
	b := NewBuilder(6, false)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(4, 5)
	g := mustBuild(t, b)
	if g.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d, want 3", g.MaxDegree())
	}
}

// Property: on random undirected graphs, every arc u→v has a matching
// arc v→u, and total arcs = 2×edges.
func TestUndirectedSymmetryProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(50)
		b := NewBuilder(n, false).Dedup()
		m := r.Intn(3 * n)
		for i := 0; i < m; i++ {
			b.AddEdge(uint32(r.Intn(n)), uint32(r.Intn(n)))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		if g.NumArcs() != 2*g.NumEdges() {
			return false
		}
		arcs := map[[2]uint32]bool{}
		for u := uint32(0); int(u) < n; u++ {
			for _, v := range g.OutNeighbors(u) {
				arcs[[2]uint32{u, v}] = true
			}
		}
		for a := range arcs {
			if !arcs[[2]uint32{a[1], a[0]}] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the directed transpose cross-index round-trips every arc.
func TestTransposeCrossIndexProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(40)
		b := NewBuilder(n, true).Weighted()
		m := r.Intn(4 * n)
		for i := 0; i < m; i++ {
			b.AddWeightedEdge(uint32(r.Intn(n)), uint32(r.Intn(n)), r.Float64())
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		in := g.InCSR()
		var inArcs int64
		for v := uint32(0); int(v) < n; v++ {
			lo, hi := in.Off[v], in.Off[v+1]
			inArcs += hi - lo
			for a := lo; a < hi; a++ {
				out := in.Arc[a]
				if g.ArcTarget(out) != v {
					return false
				}
				// The out-arc's source must be the in-arc's source; verify
				// by range membership.
				src := in.Adj[a]
				sLo, sHi := g.OutArcRange(src)
				if out < sLo || out >= sHi {
					return false
				}
			}
		}
		return inArcs == g.NumArcs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
