package graph

import (
	"bufio"
	"fmt"
	"io"
)

// MRF is a pairwise Markov Random Field: an undirected Graph whose vertices
// are discrete variables with per-variable cardinalities, unary potentials,
// and one pairwise potential table per edge. It is the input type of the
// Loopy Belief Propagation and Dual Decomposition algorithms.
//
// Potentials are stored in probability (not log) space, matching the UAI
// file format the paper's DD inputs use.
type MRF struct {
	G *Graph

	// Card[v] is the number of states of variable v.
	Card []int
	// Unary[v] has length Card[v].
	Unary [][]float64
	// Pairwise[e] is the table of logical edge e, row-major with the
	// lower-numbered endpoint as the row variable:
	// table[i*Card[hi] + j] = φ(lo=i, hi=j).
	Pairwise [][]float64

	// arcEdge maps each arc index to its logical edge index.
	arcEdge []int64
}

// NewMRF wraps an undirected graph with potentials. Cardinalities, unary
// and pairwise tables must be dimensionally consistent with g.
func NewMRF(g *Graph, card []int, unary, pairwise [][]float64) (*MRF, error) {
	if g.Directed() {
		return nil, fmt.Errorf("mrf: graph must be undirected")
	}
	n := g.NumVertices()
	if len(card) != n {
		return nil, fmt.Errorf("mrf: %d cardinalities for %d variables", len(card), n)
	}
	if len(unary) != n {
		return nil, fmt.Errorf("mrf: %d unary tables for %d variables", len(unary), n)
	}
	for v, c := range card {
		if c < 1 {
			return nil, fmt.Errorf("mrf: variable %d has cardinality %d", v, c)
		}
		if len(unary[v]) != c {
			return nil, fmt.Errorf("mrf: unary table of variable %d has %d entries, want %d",
				v, len(unary[v]), c)
		}
	}
	if int64(len(pairwise)) != g.NumEdges() {
		return nil, fmt.Errorf("mrf: %d pairwise tables for %d edges", len(pairwise), g.NumEdges())
	}

	m := &MRF{G: g, Card: card, Unary: unary, Pairwise: pairwise}
	if err := m.indexArcs(); err != nil {
		return nil, err
	}
	// Validate table shapes now that edges are indexed.
	seen := make([]bool, len(pairwise))
	for u := uint32(0); int(u) < n; u++ {
		lo, hi := g.OutArcRange(u)
		for a := lo; a < hi; a++ {
			v := g.ArcTarget(a)
			if v < u {
				continue
			}
			e := m.arcEdge[a]
			if seen[e] {
				continue
			}
			seen[e] = true
			want := card[u] * card[v]
			if len(pairwise[e]) != want {
				return nil, fmt.Errorf("mrf: pairwise table %d (edge %d-%d) has %d entries, want %d",
					e, u, v, len(pairwise[e]), want)
			}
		}
	}
	return m, nil
}

// indexArcs assigns logical edge indices to arcs: edges are numbered in
// order of their canonical (lo, hi) appearance scanning vertices by ID.
func (m *MRF) indexArcs() error {
	g := m.G
	m.arcEdge = make([]int64, g.NumArcs())
	edgeOf := make(map[uint64]int64, g.NumEdges())
	var next int64
	for u := uint32(0); int(u) < g.NumVertices(); u++ {
		lo, hi := g.OutArcRange(u)
		for a := lo; a < hi; a++ {
			v := g.ArcTarget(a)
			cu, cv := u, v
			if cu > cv {
				cu, cv = cv, cu
			}
			key := uint64(cu)<<32 | uint64(cv)
			e, ok := edgeOf[key]
			if !ok {
				e = next
				next++
				edgeOf[key] = e
			}
			m.arcEdge[a] = e
		}
	}
	if next != g.NumEdges() {
		return fmt.Errorf("mrf: indexed %d distinct edges, graph reports %d (parallel edges?)",
			next, g.NumEdges())
	}
	return nil
}

// PairwiseFor returns φ(xu, xv) for the edge held by arc a, where a is an
// out-arc of u targeting v — the orientation lookup the caller would
// otherwise have to repeat.
func (m *MRF) PairwiseFor(a int64, u uint32, xu, xv int) float64 {
	v := m.G.ArcTarget(a)
	t := m.Pairwise[m.arcEdge[a]]
	if u < v {
		return t[xu*m.Card[v]+xv]
	}
	return t[xv*m.Card[u]+xu]
}

// WriteUAI writes the MRF in the UAI MARKOV file format (the PIC2011
// format the paper's DD inputs use): preamble with variable cardinalities
// and factor scopes, then one table per factor. Unary factors come first
// (one per variable), then pairwise factors in logical-edge order.
func WriteUAI(w io.Writer, m *MRF) error {
	bw := bufio.NewWriter(w)
	n := m.G.NumVertices()
	fmt.Fprintln(bw, "MARKOV")
	fmt.Fprintln(bw, n)
	for v := 0; v < n; v++ {
		if v > 0 {
			fmt.Fprint(bw, " ")
		}
		fmt.Fprint(bw, m.Card[v])
	}
	fmt.Fprintln(bw)

	// Collect edges in logical order: (lo, hi) per edge index.
	edges := m.edgeEndpoints()
	fmt.Fprintln(bw, n+len(edges))
	for v := 0; v < n; v++ {
		fmt.Fprintf(bw, "1 %d\n", v)
	}
	for _, e := range edges {
		fmt.Fprintf(bw, "2 %d %d\n", e[0], e[1])
	}
	fmt.Fprintln(bw)
	for v := 0; v < n; v++ {
		fmt.Fprintln(bw, len(m.Unary[v]))
		writeTable(bw, m.Unary[v])
	}
	for i := range edges {
		fmt.Fprintln(bw, len(m.Pairwise[i]))
		writeTable(bw, m.Pairwise[i])
	}
	return bw.Flush()
}

// edgeEndpoints returns the canonical (lo, hi) endpoints of each logical
// edge in edge-index order.
func (m *MRF) edgeEndpoints() [][2]uint32 {
	edges := make([][2]uint32, m.G.NumEdges())
	seen := make([]bool, m.G.NumEdges())
	for u := uint32(0); int(u) < m.G.NumVertices(); u++ {
		lo, hi := m.G.OutArcRange(u)
		for a := lo; a < hi; a++ {
			v := m.G.ArcTarget(a)
			e := m.arcEdge[a]
			if seen[e] {
				continue
			}
			seen[e] = true
			if u < v {
				edges[e] = [2]uint32{u, v}
			} else {
				edges[e] = [2]uint32{v, u}
			}
		}
	}
	return edges
}

func writeTable(bw *bufio.Writer, t []float64) {
	for i, x := range t {
		if i > 0 {
			fmt.Fprint(bw, " ")
		}
		fmt.Fprintf(bw, "%g", x)
	}
	fmt.Fprintln(bw)
}
