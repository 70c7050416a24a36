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

// Gather continues the minimum over one run of neighbor labels. MaxUint32
// is the identity of min, so a fold with nothing in it yet starts there.
func (ccProgram) Gather(_, _ uint32, nb *engine.Edges[uint32], acc *uint32, has bool) bool {
	best := uint32(math.MaxUint32)
	if has {
		best = *acc
	}
	state := nb.State
	for _, o := range nb.Other {
		if l := state[o]; l < best {
			best = l
		}
	}
	*acc = best
	return true
}

func (ccProgram) Apply(_ uint32, self, acc uint32, hasAcc bool) uint32 {
	if hasAcc && acc < self {
		return acc
	}
	return self
}

func (ccProgram) ScatterDirection() engine.Direction { return engine.Out }

// Scatter signals every neighbor whose label this vertex can still improve.
func (ccProgram) Scatter(_, self uint32, nb *engine.Edges[uint32], out *engine.Signals) {
	state := nb.State
	for _, o := range nb.Other {
		if self < state[o] {
			out.Send(o)
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
