package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// This file keeps the comparison-sort construction Builder.Build used up
// to commit 68d2ffd as a reference: the counting-sort pipeline that
// replaced it must produce the same Graph, array for array, for every
// combination of build options. The bodies are the old ones with a single
// deliberate difference, marked below.

// oracleBuild is the old Builder.Build.
func oracleBuild(b *Builder) (*Graph, error) {
	if b.n <= 0 {
		return nil, fmt.Errorf("graph: builder needs a positive vertex count, got %d", b.n)
	}
	if b.n > 1<<31 {
		return nil, fmt.Errorf("graph: vertex count %d exceeds uint32 ID space", b.n)
	}
	for i := range b.src {
		if int(b.src[i]) >= b.n || int(b.dst[i]) >= b.n {
			return nil, fmt.Errorf("graph: edge %d (%d→%d) references vertex ≥ n=%d",
				i, b.src[i], b.dst[i], b.n)
		}
	}
	if b.weighted && b.w == nil {
		b.w = []float64{}
	}

	k := 0
	for i := range b.src {
		if b.src[i] == b.dst[i] {
			continue
		}
		b.src[k], b.dst[k] = b.src[i], b.dst[i]
		if b.weighted {
			b.w[k] = b.w[i]
		}
		k++
	}
	b.src, b.dst = b.src[:k], b.dst[:k]
	if b.weighted {
		b.w = b.w[:k]
	}

	if b.dedup {
		oracleDedupEdges(b)
	}

	g := &Graph{
		numVertices: b.n,
		directed:    b.directed,
		adjSorted:   b.sortAdj,
	}

	if b.directed {
		g.numEdges = int64(len(b.src))
		g.outOff, g.outAdj, g.outW = oracleBuildCSR(b.n, b.src, b.dst, b.w, b.sortAdj)
		g.inOff, g.inAdj, g.inArc = buildTranspose(b.n, g.outOff, g.outAdj)
	} else {
		g.numEdges = int64(len(b.src))
		// Double every edge into both directions.
		src2 := make([]uint32, 0, 2*len(b.src))
		dst2 := make([]uint32, 0, 2*len(b.src))
		var w2 []float64
		if b.weighted {
			w2 = make([]float64, 0, 2*len(b.w))
		}
		for i := range b.src {
			src2 = append(src2, b.src[i], b.dst[i])
			dst2 = append(dst2, b.dst[i], b.src[i])
			if b.weighted {
				w2 = append(w2, b.w[i], b.w[i])
			}
		}
		g.outOff, g.outAdj, g.outW = oracleBuildCSR(b.n, src2, dst2, w2, b.sortAdj)
		g.inOff, g.inAdj, g.inArc = g.outOff, g.outAdj, nil
	}
	return g, nil
}

// oracleDedupEdges is the old Builder.dedupEdges: sort (key, position)
// records, keep the first of each key.
func oracleDedupEdges(b *Builder) {
	type rec struct {
		key uint64
		pos int
	}
	recs := make([]rec, len(b.src))
	for i := range b.src {
		u, v := b.src[i], b.dst[i]
		if !b.directed && u > v {
			u, v = v, u
		}
		recs[i] = rec{uint64(u)<<32 | uint64(v), i}
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].key != recs[j].key {
			return recs[i].key < recs[j].key
		}
		return recs[i].pos < recs[j].pos
	})
	src := make([]uint32, 0, len(b.src))
	dst := make([]uint32, 0, len(b.dst))
	var w []float64
	if b.weighted {
		w = make([]float64, 0, len(b.w))
	}
	var prev uint64 = ^uint64(0)
	for _, r := range recs {
		if r.key == prev {
			continue
		}
		prev = r.key
		src = append(src, b.src[r.pos])
		dst = append(dst, b.dst[r.pos])
		if b.weighted {
			w = append(w, b.w[r.pos])
		}
	}
	b.src, b.dst, b.w = src, dst, w
}

// oracleBuildCSR is the old buildCSR: counting sort by source, then one
// comparison sort per vertex.
func oracleBuildCSR(n int, src, dst []uint32, w []float64, sortAdj bool) ([]int64, []uint32, []float64) {
	off := make([]int64, n+1)
	for _, u := range src {
		off[u+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	adj := make([]uint32, len(src))
	var weights []float64
	if w != nil {
		weights = make([]float64, len(src))
	}
	cursor := make([]int64, n)
	copy(cursor, off[:n])
	for i := range src {
		p := cursor[src[i]]
		cursor[src[i]]++
		adj[p] = dst[i]
		if w != nil {
			weights[p] = w[i]
		}
	}
	if sortAdj {
		for v := 0; v < n; v++ {
			lo, hi := off[v], off[v+1]
			if weights == nil {
				s := adj[lo:hi]
				sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
			} else {
				oracleSortArcsByTarget(adj[lo:hi], weights[lo:hi])
			}
		}
	}
	return off, adj, weights
}

// oracleSortArcsByTarget is the old sortArcsByTarget, except that it sorts
// with sort.SliceStable where the old code used sort.Slice. The old order
// of parallel arcs with different weights (SortAdjacency without Dedup)
// was whatever pdqsort left; the builder now guarantees recording order,
// and the oracle states that guarantee.
func oracleSortArcsByTarget(adj []uint32, w []float64) {
	idx := make([]int, len(adj))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return adj[idx[i]] < adj[idx[j]] })
	adjCopy := append([]uint32(nil), adj...)
	wCopy := append([]float64(nil), w...)
	for i, p := range idx {
		adj[i] = adjCopy[p]
		w[i] = wCopy[p]
	}
}

// buildOpts is one point of the option matrix.
type buildOpts struct {
	directed, weighted, dedup, sortAdj bool
}

func (o buildOpts) String() string {
	return fmt.Sprintf("directed=%t weighted=%t dedup=%t sortAdj=%t",
		o.directed, o.weighted, o.dedup, o.sortAdj)
}

func (o buildOpts) builder(n int, edges [][2]uint32, weights []float64) *Builder {
	b := NewBuilder(n, o.directed)
	if o.weighted {
		b.Weighted()
	}
	if o.dedup {
		b.Dedup()
	}
	if o.sortAdj {
		b.SortAdjacency()
	}
	for i, e := range edges {
		b.AddWeightedEdge(e[0], e[1], weights[i])
	}
	return b
}

// allBuildOpts enumerates the 16 option combinations.
func allBuildOpts() []buildOpts {
	var all []buildOpts
	for bits := 0; bits < 16; bits++ {
		all = append(all, buildOpts{bits&1 != 0, bits&2 != 0, bits&4 != 0, bits&8 != 0})
	}
	return all
}

// checkAgainstOracle builds the same edge list both ways and requires the
// two Graphs to be deeply equal (every array, nil-ness included).
func checkAgainstOracle(t *testing.T, o buildOpts, n int, edges [][2]uint32, weights []float64) {
	t.Helper()
	want, werr := oracleBuild(o.builder(n, edges, weights))
	got, gerr := o.builder(n, edges, weights).Build()
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("%v n=%d: Build error %v, oracle error %v", o, n, gerr, werr)
	}
	if werr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%v n=%d edges=%v weights=%v:\n got  %+v\n want %+v", o, n, edges, weights, got, want)
	}
}

// randomMultigraph draws m edges over n vertices from a small ID range so
// that duplicates (in both orientations, with different weights) and
// self-loops are common.
func randomMultigraph(r *rand.Rand, n, m int) ([][2]uint32, []float64) {
	edges := make([][2]uint32, m)
	weights := make([]float64, m)
	for i := range edges {
		u, v := uint32(r.Intn(n)), uint32(r.Intn(n))
		switch r.Intn(8) {
		case 0:
			v = u // self-loop
		case 1:
			if i > 0 { // repeat an earlier edge, reversed
				prev := edges[r.Intn(i)]
				u, v = prev[1], prev[0]
			}
		}
		edges[i] = [2]uint32{u, v}
		weights[i] = float64(i) + 0.5 // distinct, so a wrong survivor shows
	}
	return edges, weights
}

func TestBuilderMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, o := range allBuildOpts() {
		checkAgainstOracle(t, o, 3, nil, nil)
		for trial := 0; trial < 40; trial++ {
			n := 1 + r.Intn(12)
			if trial%8 == 0 {
				n = 200 // long lists: past the insertion-sort cutoff of the sort package
			}
			edges, weights := randomMultigraph(r, n, r.Intn(6*n))
			checkAgainstOracle(t, o, n, edges, weights)
		}
	}
}

// FuzzBuilderMatchesReference drives the same comparison from fuzzed bytes:
// byte 0 picks the options, byte 1 the vertex count, and each following
// pair one edge (out-of-range endpoints included, so the error path is
// compared too).
func FuzzBuilderMatchesReference(f *testing.F) {
	f.Add([]byte{0, 4, 0, 1, 1, 0, 2, 2, 0, 1})
	f.Add([]byte{0x1f, 3, 2, 1, 1, 2, 1, 2, 0, 0})
	f.Add([]byte{0x0a, 5, 4, 0, 4, 0, 4, 3, 9, 9})
	f.Add([]byte{0x04, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 1<<12 {
			t.Skip()
		}
		o := allBuildOpts()[data[0]%16]
		n := int(data[1] % 64)
		var edges [][2]uint32
		var weights []float64
		for i := 2; i+1 < len(data); i += 2 {
			edges = append(edges, [2]uint32{uint32(data[i] % 66), uint32(data[i+1] % 66)})
			weights = append(weights, float64(i))
		}
		checkAgainstOracle(t, o, n, edges, weights)
	})
}

// SortAdjacency without Dedup keeps parallel arcs in recording order, on
// lists long enough that an unstable sort would not.
func TestSortAdjacencyStableForParallelArcs(t *testing.T) {
	const targets, copies = 20, 5
	b := NewBuilder(targets+1, true).Weighted().SortAdjacency()
	for c := 0; c < copies; c++ {
		for v := targets; v >= 1; v-- {
			b.AddWeightedEdge(0, uint32(v), float64(c))
		}
	}
	g := mustBuild(t, b)
	lo, hi := g.OutArcRange(0)
	for a := lo; a < hi; a++ {
		i := int(a - lo)
		if got, want := g.ArcTarget(a), uint32(1+i/copies); got != want {
			t.Fatalf("arc %d: target %d, want %d", i, got, want)
		}
		if got, want := g.ArcWeight(a), float64(i%copies); got != want {
			t.Fatalf("arc %d (target %d): weight %v, want %v — parallel arcs out of recording order",
				i, g.ArcTarget(a), got, want)
		}
	}
}

func TestBuildRejectsEdgeCountBeyondUint32(t *testing.T) {
	if err := checkEdgeCount(1<<32 - 1); err != nil {
		t.Fatalf("2^32-1 edges rejected: %v", err)
	}
	if err := checkEdgeCount(1 << 32); err == nil {
		t.Fatal("2^32 edges accepted; the dedup permutation indexes edges with uint32")
	}
}

// BenchmarkBuilderBuild times Build alone on a 1e6-edge undirected
// multigraph with the options the sweep's graphs use (Dedup +
// SortAdjacency); recording the edges is outside the timer.
func BenchmarkBuilderBuild(b *testing.B) {
	const n, m = 1 << 18, 1_000_000
	r := rand.New(rand.NewSource(1))
	src, dst := make([]uint32, m), make([]uint32, m)
	for i := range src {
		// Squaring skews the endpoints toward low IDs: hubs and duplicates.
		u, v := r.Float64(), r.Float64()
		src[i], dst[i] = uint32(u*u*n), uint32(v*v*n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bld := NewBuilder(n, false).Dedup().SortAdjacency().Grow(m)
		for j := range src {
			bld.AddEdge(src[j], dst[j])
		}
		b.StartTimer()
		if _, err := bld.Build(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}
