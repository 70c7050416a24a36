package algorithms

import (
	"fmt"
	"math"

	"gcbench/internal/engine"
	"gcbench/internal/graph"
)

// ccProgram finds connected components by min-label propagation: every
// vertex starts with its own ID as its label and repeatedly adopts the
// minimum label among its neighbors ("the CC program compares the IDs of
// adjacent vertices and only updates a vertex if its ID is larger than the
// minimum value", §2.1).
type ccProgram struct{}

func (ccProgram) Init(_ *graph.Graph, v uint32) (uint32, bool) { return v, true }

func (ccProgram) GatherDirection() engine.Direction { return engine.In }

// Gather takes the minimum over each granule vertex's neighbor labels,
// with min rather than a compare: which neighbor wins is data no branch
// predictor learns. In is one side on any graph, so the fold always
// starts here, at MaxUint32 — the identity of min, which is also what an
// empty run leaves — and acc[v] holds a fold for every granule vertex.
func (ccProgram) Gather(vs []uint32, side *graph.CSR, state, acc []uint32, _ []bool) {
	off, adj := side.Off, side.Adj
	for _, v := range vs {
		best := uint32(math.MaxUint32)
		for _, o := range adj[off[v]:off[v+1]] {
			best = min(best, state[o])
		}
		acc[v] = best
	}
}

// Apply adopts the gathered label if it is smaller. Gather filled every
// acc[v], with the identity where there was nothing to gather, so hasAcc
// adds nothing.
func (ccProgram) Apply(vs []uint32, state, acc []uint32, _ []bool) {
	for _, v := range vs {
		state[v] = min(state[v], acc[v])
	}
}

func (ccProgram) ScatterDirection() engine.Direction { return engine.Out }

// Scatter signals every neighbor whose label this vertex can still improve.
func (ccProgram) Scatter(vs []uint32, side *graph.CSR, state []uint32, out *engine.Signals) {
	off, adj := side.Off, side.Adj
	for _, v := range vs {
		self := state[v]
		for _, o := range adj[off[v]:off[v+1]] {
			out.SendIf(o, self < state[o])
		}
	}
}

// ConnectedComponents labels each vertex with its component's minimum
// vertex ID. The graph must be undirected. Summary reports "components".
func ConnectedComponents(g *graph.Graph, opt Options) (*Output, []uint32, error) {
	if g.Directed() {
		return nil, nil, fmt.Errorf("algorithms: CC requires an undirected graph")
	}
	res, err := engine.Run[uint32, uint32](g, ccProgram{}, opt.engineOptions())
	if err != nil {
		return nil, nil, err
	}
	return &Output{Trace: res.Trace, Summary: ComponentsSummary(res.States)}, res.States, nil
}
