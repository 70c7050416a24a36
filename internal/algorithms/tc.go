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
type tcProgram struct{}

func (tcProgram) Init(_ *graph.Graph, _ uint32) (int64, bool) { return 0, true }

func (tcProgram) GatherDirection() engine.Direction { return engine.Out }

// Gather intersects, across each arc of a granule vertex's run, the two
// endpoint neighbor sets, counting each unordered edge once (from its
// lower endpoint) so every triangle is counted exactly three times
// globally — once per corner edge pair. Out is one side on the
// undirected graphs TC runs on, so the count starts at zero, which is
// also what an empty run leaves, and acc[v] holds it for every granule
// vertex.
func (tcProgram) Gather(vs []uint32, side *graph.CSR, _, acc []int64, _ []bool) {
	off, adj := side.Off, side.Adj
	for _, v := range vs {
		mine := adj[off[v]:off[v+1]]
		var n int64
		for _, u := range mine {
			if v <= u {
				n += intersectSize(mine, adj[off[u]:off[u+1]])
			}
		}
		acc[v] = n
	}
}

// Apply keeps the count; see ccProgram.Apply on hasAcc.
func (tcProgram) Apply(vs []uint32, state, acc []int64, _ []bool) {
	for _, v := range vs {
		state[v] = acc[v]
	}
}

func (tcProgram) ScatterDirection() engine.Direction { return engine.None }

// Scatter is never called: the direction is None.
func (tcProgram) Scatter([]uint32, *graph.CSR, []int64, *engine.Signals) {}

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
	res, err := engine.Run[int64, int64](g, tcProgram{}, opt.engineOptions())
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
