package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Builder accumulates edges and produces an immutable CSR Graph.
//
// For undirected graphs, AddEdge(u, v) stores the edge once and Build
// materializes both arcs. For directed graphs, AddEdge adds a single arc
// and Build additionally constructs the transposed (in-) adjacency.
type Builder struct {
	n        int
	directed bool
	weighted bool

	src, dst []uint32
	w        []float64

	// Build options.
	dedup         bool
	sortAdj       bool
	dropSelfLoops bool
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int, directed bool) *Builder {
	return &Builder{n: n, directed: directed, dropSelfLoops: true}
}

// Weighted declares that edges carry weights; must be called before the
// first AddEdge that supplies a weight.
func (b *Builder) Weighted() *Builder { b.weighted = true; return b }

// Dedup requests removal of duplicate edges at Build time (parallel arcs
// between the same pair collapse to one; for weighted graphs the first
// weight wins).
func (b *Builder) Dedup() *Builder { b.dedup = true; return b }

// SortAdjacency requests neighbor lists sorted by vertex ID (needed by
// triangle counting's sorted-merge intersection). The sort is stable:
// without Dedup, parallel arcs to one neighbor keep their recording order.
// With Dedup the lists come out sorted whether or not this is set.
func (b *Builder) SortAdjacency() *Builder { b.sortAdj = true; return b }

// KeepSelfLoops retains self-loop edges, which are dropped by default.
func (b *Builder) KeepSelfLoops() *Builder { b.dropSelfLoops = false; return b }

// AddEdge records an edge (or arc, for directed graphs) from u to v with
// weight 1.
func (b *Builder) AddEdge(u, v uint32) { b.AddWeightedEdge(u, v, 1) }

// AddWeightedEdge records an edge from u to v with the given weight.
func (b *Builder) AddWeightedEdge(u, v uint32, w float64) {
	b.src = append(b.src, u)
	b.dst = append(b.dst, v)
	if b.weighted {
		b.w = append(b.w, w)
	}
}

// Grow reserves room for m more edges: one allocation per column instead
// of append's doublings. Call it after Weighted.
func (b *Builder) Grow(m int) *Builder {
	b.src, b.dst = slices.Grow(b.src, m), slices.Grow(b.dst, m)
	if b.weighted {
		b.w = slices.Grow(b.w, m)
	}
	return b
}

// checkEdgeCount rejects edge lists the builder's uint32 bucket cursors
// cannot address.
func checkEdgeCount(m int64) error {
	if m > math.MaxUint32 {
		return fmt.Errorf("graph: %d pending edges exceed the builder's 32-bit edge index", m)
	}
	return nil
}

// Build materializes the CSR graph in time linear in edges plus vertices.
// The Builder must not be reused after.
func (b *Builder) Build() (*Graph, error) {
	if b.n <= 0 {
		return nil, fmt.Errorf("graph: builder needs a positive vertex count, got %d", b.n)
	}
	if b.n > 1<<31 {
		return nil, fmt.Errorf("graph: vertex count %d exceeds uint32 ID space", b.n)
	}
	if err := checkEdgeCount(int64(len(b.src))); err != nil {
		return nil, err
	}
	for i := range b.src {
		if int(b.src[i]) >= b.n || int(b.dst[i]) >= b.n {
			return nil, fmt.Errorf("graph: edge %d (%d→%d) references vertex ≥ n=%d",
				i, b.src[i], b.dst[i], b.n)
		}
	}
	// A weighted graph stays weighted even with zero surviving edges
	// (Graph.Weighted derives from a non-nil weight slice).
	if b.weighted && b.w == nil {
		b.w = []float64{}
	}

	// Filter self-loops up front.
	if b.dropSelfLoops {
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
		b.truncate(k)
	}

	if b.dedup {
		b.dedupEdges()
	}

	g := &Graph{
		numVertices: b.n,
		numEdges:    int64(len(b.src)),
		directed:    b.directed,
		adjSorted:   b.sortAdj,
	}
	g.outOff, g.outAdj, g.outW = buildCSR(b.n, b.src, b.dst, b.w, !b.directed, b.sortAdj)
	if b.directed {
		// Transpose, tracking the originating out-arc of each in-arc.
		g.inOff, g.inAdj, g.inArc = buildTranspose(b.n, g.outOff, g.outAdj)
	} else {
		g.inOff, g.inAdj, g.inArc = g.outOff, g.outAdj, nil
	}
	return g, nil
}

// dedupEdges removes parallel edges, keeping the first recorded of each
// pair (and so its weight), and leaves the survivors ordered by (src, dst).
// Undirected builders first turn every edge low endpoint first, so that
// (u,v) and (v,u) collapse; which arc of the two was recorded does not
// show in an undirected CSR. The ordering is an LSD radix sort with vertex
// IDs as digits — a stable counting sort by dst, then one by src — so it
// costs O(E+n).
func (b *Builder) dedupEdges() {
	n := b.n
	bySrc, byDst := make([]uint32, n+1), make([]uint32, n+1)
	for i, u := range b.src {
		v := b.dst[i]
		if !b.directed {
			u, v = min(u, v), max(u, v)
			b.src[i], b.dst[i] = u, v
		}
		bySrc[u+1]++
		byDst[v+1]++
	}
	for i := 1; i <= n; i++ {
		bySrc[i] += bySrc[i-1]
		byDst[i] += byDst[i-1]
	}
	// by*[k] is now bucket k's write cursor, and its end once filled.
	// Pass 1, by dst. A slot's dst is the bucket it lies in, so only the
	// src (and the weight) moves.
	src := make([]uint32, len(b.src))
	var w []float64
	if b.weighted {
		w = make([]float64, len(b.w))
	}
	for i, v := range b.dst {
		p := byDst[v]
		byDst[v]++
		src[p] = b.src[i]
		if b.weighted {
			w[p] = b.w[i]
		}
	}
	// Pass 2, by src, back into the builder's own columns, which pass 1
	// has finished reading.
	p := uint32(0)
	for v := 0; v < n; v++ {
		for ; p < byDst[v]; p++ {
			q := bySrc[src[p]]
			bySrc[src[p]]++
			b.dst[q] = uint32(v)
			if b.weighted {
				b.w[q] = w[p]
			}
		}
	}
	// Keep the first of each run of equal pairs, compacting in place: slot
	// k never overtakes slot q.
	k, q := 0, uint32(0)
	for u := 0; u < n; u++ {
		for ; q < bySrc[u]; q++ {
			v := b.dst[q]
			if k > 0 && b.src[k-1] == uint32(u) && b.dst[k-1] == v {
				continue
			}
			b.src[k], b.dst[k] = uint32(u), v
			if b.weighted {
				b.w[k] = b.w[q]
			}
			k++
		}
	}
	b.truncate(k)
}

// truncate keeps the first k pending edges.
func (b *Builder) truncate(k int) {
	b.src, b.dst = b.src[:k], b.dst[:k]
	if b.weighted {
		b.w = b.w[:k]
	}
}

// buildCSR counting-sorts arcs by source into offset/adjacency arrays,
// each list in edge order. With both set, every edge also yields its
// reverse arc, placed right after the forward one: the undirected layout,
// with no doubled edge list in between.
func buildCSR(n int, src, dst []uint32, w []float64, both, sortAdj bool) ([]int64, []uint32, []float64) {
	off := make([]int64, n+1)
	for i, u := range src {
		off[u+1]++
		if both {
			off[dst[i]+1]++
		}
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	adj := make([]uint32, off[n])
	var weights []float64
	if w != nil {
		weights = make([]float64, off[n])
	}
	// off[u] doubles as u's write cursor, which leaves it at the end of u's
	// list, where u+1's begins: shift the array back afterwards.
	for i, u := range src {
		v := dst[i]
		p := off[u]
		off[u]++
		adj[p] = v
		if w != nil {
			weights[p] = w[i]
		}
		if both {
			q := off[v]
			off[v]++
			adj[q] = u
			if w != nil {
				weights[q] = w[i]
			}
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	if sortAdj {
		// Dedup leaves every list sorted already; only a list built without
		// it can fail the check and pay for a sort.
		for v := 0; v < n; v++ {
			list := adj[off[v]:off[v+1]]
			if slices.IsSorted(list) {
				continue
			}
			if weights == nil {
				slices.Sort(list)
			} else {
				sort.Stable(arcsByTarget{list, weights[off[v]:off[v+1]]})
			}
		}
	}
	return off, adj, weights
}

// arcsByTarget co-sorts an adjacency list and its weights by target ID.
type arcsByTarget struct {
	adj []uint32
	w   []float64
}

func (a arcsByTarget) Len() int           { return len(a.adj) }
func (a arcsByTarget) Less(i, j int) bool { return a.adj[i] < a.adj[j] }
func (a arcsByTarget) Swap(i, j int) {
	a.adj[i], a.adj[j] = a.adj[j], a.adj[i]
	a.w[i], a.w[j] = a.w[j], a.w[i]
}

// buildTranspose constructs in-adjacency from out-CSR, recording for each
// in-arc the out-arc index it mirrors.
func buildTranspose(n int, outOff []int64, outAdj []uint32) (inOff []int64, inAdj []uint32, inArc []int64) {
	inOff = make([]int64, n+1)
	for _, v := range outAdj {
		inOff[v+1]++
	}
	for i := 1; i <= n; i++ {
		inOff[i] += inOff[i-1]
	}
	inAdj = make([]uint32, len(outAdj))
	inArc = make([]int64, len(outAdj))
	cursor := make([]int64, n)
	copy(cursor, inOff[:n])
	for u := 0; u < n; u++ {
		for a := outOff[u]; a < outOff[u+1]; a++ {
			v := outAdj[a]
			p := cursor[v]
			cursor[v]++
			inAdj[p] = uint32(u)
			inArc[p] = a
		}
	}
	return
}
