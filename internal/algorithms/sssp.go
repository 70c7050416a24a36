package algorithms

import (
	"math"

	"gcbench/internal/engine"
	"gcbench/internal/graph"
)

// ssspProgram relaxes distances from a single source. Only the source is
// active initially; the active fraction grows rapidly as the frontier
// expands (§1). Unweighted graphs relax with unit edge length, so on the
// paper's Graph Analytics inputs this computes hop distance.
type ssspProgram struct {
	source uint32
}

func (p *ssspProgram) Init(_ *graph.Graph, v uint32) (float64, bool) {
	if v == p.source {
		return 0, true
	}
	return math.Inf(1), false
}

func (p *ssspProgram) GatherDirection() engine.Direction { return engine.In }

// Gather takes the minimum over each granule vertex's neighbor distances
// plus edge lengths, as ccProgram.Gather does: min, not a compare (the
// two differ only on NaN and −0, which sums of a +0 source and positive
// lengths never are), from +Inf, the identity of min, on the one side In
// visits, so acc[v] holds a fold for every granule vertex.
func (p *ssspProgram) Gather(vs []uint32, side *graph.CSR, state, acc []float64, _ []bool) {
	off, adj := side.Off, side.Adj
	for _, v := range vs {
		best := math.Inf(1)
		for slot := off[v]; slot < off[v+1]; slot++ {
			best = min(best, state[adj[slot]]+arcLength(side, slot))
		}
		acc[v] = best
	}
}

// Apply adopts the gathered distance if it is shorter; see ccProgram.Apply.
func (p *ssspProgram) Apply(vs []uint32, state, acc []float64, _ []bool) {
	for _, v := range vs {
		state[v] = min(state[v], acc[v])
	}
}

func (p *ssspProgram) ScatterDirection() engine.Direction { return engine.Out }

// Scatter signals every neighbor this vertex's distance can still relax.
func (p *ssspProgram) Scatter(vs []uint32, side *graph.CSR, state []float64, out *engine.Signals) {
	off, adj := side.Off, side.Adj
	for _, v := range vs {
		self := state[v]
		for slot := off[v]; slot < off[v+1]; slot++ {
			o := adj[slot]
			out.SendIf(o, self+arcLength(side, slot) < state[o])
		}
	}
}

// arcLength is the length of the arc in slot: its weight, 1 when the
// graph is unweighted.
func arcLength(side *graph.CSR, slot int64) float64 {
	if side.W == nil {
		return 1
	}
	if side.Arc != nil {
		slot = side.Arc[slot]
	}
	return side.W[slot]
}

// SingleSourceShortestPath computes distances from source to every vertex
// (Inf for unreachable). Summary reports "reached" and "maxDistance".
func SingleSourceShortestPath(g *graph.Graph, source uint32, opt Options) (*Output, []float64, error) {
	res, err := engine.Run[float64, float64](g, &ssspProgram{source: source}, opt.engineOptions())
	if err != nil {
		return nil, nil, err
	}
	return &Output{Trace: res.Trace, Summary: DistanceSummary(res.States)}, res.States, nil
}
