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

// Gather continues the minimum over one run of neighbor distances plus
// edge lengths. +Inf is the identity of min, so a fold with nothing in it
// yet starts there.
func (p *ssspProgram) Gather(_ uint32, _ float64, nb *engine.Edges[float64], acc *float64, has bool) bool {
	best := math.Inf(1)
	if has {
		best = *acc
	}
	state := nb.State
	for i, o := range nb.Other {
		if d := state[o] + nb.Weight(i); d < best {
			best = d
		}
	}
	*acc = best
	return true
}

func (p *ssspProgram) Apply(_ uint32, self, acc float64, hasAcc bool) float64 {
	if hasAcc && acc < self {
		return acc
	}
	return self
}

func (p *ssspProgram) ScatterDirection() engine.Direction { return engine.Out }

// Scatter signals every neighbor this vertex's distance can still relax.
func (p *ssspProgram) Scatter(_ uint32, self float64, nb *engine.Edges[float64], out *engine.Signals) {
	state := nb.State
	for i, o := range nb.Other {
		if self+nb.Weight(i) < state[o] {
			out.Send(o)
		}
	}
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
