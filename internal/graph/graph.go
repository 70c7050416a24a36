// Package graph provides the immutable compressed-sparse-row (CSR) graph
// representation shared by every algorithm and the GAS engine.
//
// A Graph stores out-adjacency (and, for directed graphs, in-adjacency) in
// flat arrays for cache-friendly sequential scans — the access pattern the
// engine's gather and scatter phases are built around. Vertex identifiers
// are dense uint32 indices in [0, NumVertices).
//
// Terminology: an *edge* is a logical connection as counted by the paper's
// nedges parameter. An *arc* is a directed CSR slot; an undirected edge
// occupies two arcs (u→v and v→u). Per-arc algorithm state (e.g. belief
// propagation messages, one per direction) is indexed by arc position.
package graph

import (
	"fmt"
	"sync"
)

// Graph is an immutable CSR graph. Construct one with a Builder or a
// generator from internal/gen; the zero value is an empty graph.
type Graph struct {
	numVertices int
	numEdges    int64 // logical edges (undirected edges counted once)
	directed    bool

	outOff []int64  // len numVertices+1
	outAdj []uint32 // len = arcs
	outW   []float64

	// For directed graphs, the transposed adjacency. For undirected graphs
	// these alias the out arrays (every edge is stored in both directions).
	inOff []int64
	inAdj []uint32
	// inArc[i] is the out-arc index holding the same logical edge as
	// in-arc i, so per-arc data written on out-arcs is reachable from the
	// in-side. For undirected graphs inArc is nil and in-arc i IS out-arc i.
	inArc []int64

	adjSorted bool

	// Lazily computed reverse-arc mapping for undirected graphs.
	revOnce sync.Once
	revArcs []int64

	// Optional per-vertex feature vectors (e.g. 2-D points for K-Means,
	// pixel priors for LBP), stored flattened: vertex v owns
	// features[v*featureDim : (v+1)*featureDim].
	featureDim int
	features   []float64
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.numVertices }

// NumEdges returns the number of logical edges (the paper's nedges).
func (g *Graph) NumEdges() int64 { return g.numEdges }

// NumArcs returns the number of directed CSR slots: NumEdges for directed
// graphs, 2×NumEdges for undirected ones.
func (g *Graph) NumArcs() int64 { return int64(len(g.outAdj)) }

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// Weighted reports whether edges carry weights.
func (g *Graph) Weighted() bool { return g.outW != nil }

// AdjSorted reports whether each adjacency list is sorted by neighbor ID
// (required by the triangle-counting intersection).
func (g *Graph) AdjSorted() bool { return g.adjSorted }

// OutDegree returns the number of out-arcs at v.
func (g *Graph) OutDegree(v uint32) int {
	return int(g.outOff[v+1] - g.outOff[v])
}

// MaxDegreeVertex returns the lowest-numbered vertex of highest
// out-degree: the SSSP source every execution model shares, so the
// frontier expansion the paper describes is visible on every graph (a
// random isolated source would trivialize the run) and cross-model
// results are comparable.
func (g *Graph) MaxDegreeVertex() uint32 {
	best := uint32(0)
	for v := uint32(1); int(v) < g.NumVertices(); v++ {
		if g.OutDegree(v) > g.OutDegree(best) {
			best = v
		}
	}
	return best
}

// OutNeighbors returns v's out-neighbor slice. The slice aliases internal
// storage and must not be modified.
func (g *Graph) OutNeighbors(v uint32) []uint32 {
	return g.outAdj[g.outOff[v]:g.outOff[v+1]]
}

// OutArcRange returns the half-open arc index range [lo, hi) of v's
// out-arcs; arc i connects v to g.ArcTarget(i) with weight g.ArcWeight(i).
func (g *Graph) OutArcRange(v uint32) (lo, hi int64) {
	return g.outOff[v], g.outOff[v+1]
}

// CSR is a read-only view of one adjacency side of a Graph as flat arrays,
// for callers that own their edge loop (the engine's gather and scatter
// phases) and must not pay an accessor call per arc. Vertex v owns slots
// [Off[v], Off[v+1]). The slices alias the graph's storage and must not
// be modified.
type CSR struct {
	Off []int64  // len NumVertices+1
	Adj []uint32 // neighbor across each slot
	// Arc[i] is the out-arc index of the logical edge in slot i; nil when
	// slot i IS out-arc i (the out side, and both sides when undirected).
	Arc []int64
	// W is the weight per out-arc index (not per slot: index it through
	// Arc on the in side); nil when the graph is unweighted.
	W []float64
}

// OutCSR returns the out-adjacency view.
func (g *Graph) OutCSR() CSR {
	return CSR{Off: g.outOff, Adj: g.outAdj, W: g.outW}
}

// InCSR returns the in-adjacency view. For undirected graphs it equals
// OutCSR.
func (g *Graph) InCSR() CSR {
	return CSR{Off: g.inOff, Adj: g.inAdj, Arc: g.inArc, W: g.outW}
}

// ArcTarget returns the head vertex of out-arc i.
func (g *Graph) ArcTarget(i int64) uint32 { return g.outAdj[i] }

// ArcWeight returns the weight of out-arc i; 1.0 when unweighted.
func (g *Graph) ArcWeight(i int64) float64 {
	if g.outW == nil {
		return 1
	}
	return g.outW[i]
}

// FeatureDim returns the per-vertex feature dimensionality (0 if none).
func (g *Graph) FeatureDim() int { return g.featureDim }

// Features returns vertex v's feature vector (aliases internal storage),
// or nil when the graph carries no features.
func (g *Graph) Features(v uint32) []float64 {
	if g.features == nil {
		return nil
	}
	return g.features[int(v)*g.featureDim : (int(v)+1)*g.featureDim]
}

// SetFeatures attaches flattened per-vertex feature vectors. len(data) must
// equal NumVertices×dim.
func (g *Graph) SetFeatures(dim int, data []float64) error {
	if dim <= 0 {
		return fmt.Errorf("graph: feature dim must be positive, got %d", dim)
	}
	if len(data) != g.numVertices*dim {
		return fmt.Errorf("graph: feature data length %d != %d vertices × dim %d",
			len(data), g.numVertices, dim)
	}
	g.featureDim = dim
	g.features = data
	return nil
}

// MaxDegree returns the maximum out-degree in the graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := uint32(0); int(v) < g.numVertices; v++ {
		if d := g.OutDegree(v); d > max {
			max = d
		}
	}
	return max
}
