package algorithms

import (
	"fmt"

	"gcbench/internal/engine"
	"gcbench/internal/graph"
)

// tcProgram counts triangles: "for each edge in the graph, the TC program
// counts the number of intersections of the neighbor sets on both
// endpoints" (§2.1). Adjacency must be sorted so the intersection is a
// linear merge. The computation finishes in one gather/apply pass; scatter
// sends nothing, so the frontier empties and the run converges.
type tcProgram struct {
	g *graph.Graph
}

func (p *tcProgram) Init(_ *graph.Graph, _ uint32) (int64, bool) { return 0, true }

func (p *tcProgram) GatherDirection() engine.Direction { return engine.Out }

// Gather intersects the two endpoint neighbor sets, counting each
// unordered edge once (from its lower endpoint) so every triangle is
// counted exactly three times globally — once per corner edge pair.
func (p *tcProgram) Gather(v uint32, e engine.Arc, _, _ int64) int64 {
	if v > e.Other {
		return 0
	}
	return intersectSize(p.g.OutNeighbors(v), p.g.OutNeighbors(e.Other))
}

func (p *tcProgram) Sum(a, b int64) int64 { return a + b }

func (p *tcProgram) Apply(_ uint32, _, acc int64, hasAcc bool) int64 {
	if !hasAcc {
		return 0
	}
	return acc
}

func (p *tcProgram) ScatterDirection() engine.Direction { return engine.None }

func (p *tcProgram) Scatter(uint32, engine.Arc, int64, int64) bool { return false }

// intersectSize merges two sorted neighbor lists.
func intersectSize(a, b []uint32) int64 {
	var n int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// TriangleCounting returns the number of triangles in an undirected graph
// with sorted adjacency. Summary reports "triangles".
func TriangleCounting(g *graph.Graph, opt Options) (*Output, int64, error) {
	if g.Directed() {
		return nil, 0, fmt.Errorf("algorithms: TC requires an undirected graph")
	}
	if !g.AdjSorted() {
		return nil, 0, fmt.Errorf("algorithms: TC requires sorted adjacency (build with SortAdjacency)")
	}
	p := &tcProgram{g: g}
	res, err := engine.Run(g, engine.PerEdge[int64, int64](p), opt.engineOptions())
	if err != nil {
		return nil, 0, err
	}
	var total int64
	for _, c := range res.States {
		total += c
	}
	// Each triangle {a,b,c} is counted once per edge (from the lower
	// endpoint): 3 times total.
	triangles := total / 3
	out := &Output{
		Trace:   res.Trace,
		Summary: map[string]float64{"triangles": float64(triangles)},
	}
	return out, triangles, nil
}
